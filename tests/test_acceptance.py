"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import random
import string
from pathlib import Path

import numpy as np

from helpers import mat_close, mat_pow_iterative, random_system, random_unimodular, replace
from optikit import cli
from optikit.core import RVec3, mat2_apply, mat2_mul, sylvester_power
from optikit.emoptics import (
    boundary_residual,
    check_plane_of_incidence,
    continuity_coefficients,
    eval_plane_wave,
    max_boundary_residual,
    oblique_incidence_fields,
    reflect_wavevector,
    sample_plane_points,
    validate_interface_system,
)
from optikit.gaussian import FLAT, QParameter, beam_at, geometry_from_q, propagate_q, q_from_geometry
from optikit.core import Mat2
from optikit.quantum import InnerProduct, StateVector, commutator, ground_energy, hermitian_eigenvalues, make_single_mode
from optikit.rayoptics import RayState, system_composition, trace_ray
from optikit.resonator import fp_resonator, ray_bound_oracle, stability
from optikit.sysdesc import ParseError, parse, serialize
from test_sysdesc import random_document

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TWO_PI = 2.0 * math.pi


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_ray_transfer_equivalence():
    rng = random.Random(20260810)
    for _ in range(1000):
        sys = random_system(rng, max_components=8)
        src = RayState(rng.uniform(-1, 1), rng.uniform(-1, 1))
        stepped = trace_ray(sys, src).final
        direct = mat2_apply(system_composition(sys), src.as_pair())
        scale = max(abs(direct[0]), abs(direct[1]), 1.0)
        assert abs(stepped.y - direct[0]) <= 1e-12 * scale
        assert abs(stepped.theta - direct[1]) <= 1e-12 * scale
    report(1, "step-wise trace equals composed matrix on 1000 random systems (1e-12)")


def test_criterion_2_two_mirror_stability_window():
    for d in (0.1, 0.5, 0.9, 1.1, 1.5, 1.9):
        res = fp_resonator(1.0, d, 1.0)
        v = stability(res)
        expected = 2.0 * (1.0 - d) ** 2 - 1.0
        assert v.stable and not v.marginal, d
        assert abs(v.half_trace - expected) <= 1e-12
        oracle = ray_bound_oracle(res, RayState(1e-3, 0.0), 1000)
        assert not oracle.diverged, d
    for d in (2.1, 2.5, 3.0):
        res = fp_resonator(1.0, d, 1.0)
        v = stability(res)
        assert (not v.stable) and (not v.marginal), d
        assert v.half_trace > 1.0
        oracle = ray_bound_oracle(res, RayState(1e-3, 0.0), 1000)
        assert oracle.diverged, d
    for d in (1.0, 2.0):
        v = stability(fp_resonator(1.0, d, 1.0))
        assert v.marginal and not v.stable, d
    report(2, "cavity verdicts across the d sweep match 2(1-d)^2-1 and the ray oracle")


def test_criterion_3_closed_form_matrix_power():
    rng = random.Random(3)
    for _ in range(100):
        m = random_unimodular(rng, ht_limit=0.99)
        for n in (2, 10, 100):
            assert mat_close(sylvester_power(m, n), mat_pow_iterative(m, n), 1e-9)
    report(3, "closed-form power matches iterated multiplication (100 matrices, N up to 100)")


def test_criterion_4_abcd_law():
    rng = random.Random(4)
    # Moebius composition through the beam transform
    count = 0
    while count < 1000:
        m1 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        m2 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        if m1.det() <= 0.1 or m2.det() <= 0.1:
            continue
        qp = QParameter(complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)), 1e-6)
        chained = propagate_q(propagate_q(qp, m1), m2).q
        composed = propagate_q(qp, mat2_mul(m2, m1)).q
        assert abs(chained - composed) <= 1e-10 * max(1.0, abs(composed))
        count += 1
    # closed-form geometry against free-space transport of the waist q
    for _ in range(200):
        w0 = rng.uniform(1e-5, 1e-2)
        lam = rng.uniform(1e-7, 1e-5)
        z_r = math.pi * w0 * w0 / lam
        z = rng.uniform(-5.0, 5.0) * z_r
        if z == 0.0:
            continue
        geo = beam_at(w0, lam, z)
        r_q, w_q = geometry_from_q(propagate_q(q_from_geometry(FLAT, w0, lam), Mat2(1.0, z, 0.0, 1.0)))
        assert math.isclose(geo.w, w_q, rel_tol=1e-12)
        assert math.isclose(geo.R, r_q, rel_tol=1e-12)
    # q <-> (R, w) round trip
    for _ in range(200):
        w = rng.uniform(1e-5, 1e-2)
        lam = rng.uniform(1e-7, 1e-5)
        r = rng.choice([FLAT, rng.uniform(0.01, 10.0), -rng.uniform(0.01, 10.0)])
        r_back, w_back = geometry_from_q(q_from_geometry(r, w, lam))
        assert math.isclose(w_back, w, rel_tol=1e-12)
        if r is FLAT:
            assert math.isinf(r_back)
        else:
            assert math.isclose(r_back, r, rel_tol=1e-12)
    report(4, "beam transform law: composition, geometry consistency, and round trip hold")


def _random_interface_tuple(rng):
    while True:
        n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)
        theta = rng.uniform(0.0, math.radians(85.0))
        if n1 * math.sin(theta) / n2 < 1.0:
            return n1, n2, theta, rng.uniform(0.1, 3.0)


def test_criterion_5_boundary_condition_replay():
    rng = random.Random(5)
    for i in range(50):
        n1, n2, theta, a = _random_interface_tuple(rng)
        system = oblique_incidence_fields(theta, n1, n2, a, TWO_PI, TWO_PI)
        assert validate_interface_system(system, samples=200, seed=i).ok
        scale = max(
            max(w.E.max_abs(), w.H.max_abs())
            for w in (system.incident, system.reflected, system.transmitted)
        )
        assert max_boundary_residual(system, samples=1000, seed=i) < 1e-12 * scale
        # at sampled points, the tangential jumps n x (E_i + E_r - E_t) and n x (H_i + H_r - H_t)
        # of the fields `eval_plane_wave` gives, and the residual pair of `boundary_residual`
        waves = (system.incident, system.reflected, system.transmitted)
        n = system.spec.normal.as_complex()
        for r, t in sample_plane_points(system, 20, i):
            (e_i, h_i), (e_r, h_r), (e_t, h_t) = (eval_plane_wave(w, r, t) for w in waves)
            jumps = (n.cross(e_i + e_r - e_t), n.cross(h_i + h_r - h_t))
            residual = boundary_residual(waves[:2], waves[2], system.spec, r, t)
            assert all(v.max_abs() < 1e-12 * scale for v in (*jumps, *residual))
        r_amp, t_amp = continuity_coefficients(n1, n2, theta, a)
        assert abs((a + r_amp) - t_amp) <= 1e-15 * abs(t_amp)
    report(5, "tangential boundary residual vanishes at 1000 seeded samples for 50 field triples")


def test_criterion_6_reflection_and_plane_of_incidence():
    rng = random.Random(6)
    for i in range(50):
        n1, n2, theta, a = _random_interface_tuple(rng)
        system = oblique_incidence_fields(theta, n1, n2, a, TWO_PI, TWO_PI)
        k_i, n = system.incident.k, system.spec.normal
        k_r = reflect_wavevector(k_i, n)
        assert (reflect_wavevector(k_r, n) - k_i).norm() <= 1e-12 * k_i.norm()
        assert abs(k_r.norm() - k_i.norm()) <= 1e-12 * k_i.norm()
        assert (k_r - system.reflected.k).norm() <= 1e-12 * k_i.norm()
        assert check_plane_of_incidence(system)
        k_t = system.transmitted.k
        lifted = RVec3(k_t.x, 1e-3 * k_t.norm(), k_t.z)
        perturbed = replace(
            system, transmitted=replace(system.transmitted, k=lifted)
        )
        assert not check_plane_of_incidence(perturbed)
    report(6, "reflection involution, |k| preservation, and coplanarity checks hold")


def test_criterion_7_truncated_single_mode():
    hbar = 1.0
    for dim in (2, 4, 8, 16, 32):
        for omega in (0.5, 1.0, 2.5):
            sm = make_single_mode(omega, hbar, dim)
            assert abs(ground_energy(sm) - hbar * omega / 2.0) <= 1e-10
            diag = np.real(np.diag(sm.H.matrix))
            for n in range(dim - 1):
                assert abs(diag[n] - hbar * omega * (n + 0.5)) <= 1e-10
            evals = hermitian_eigenvalues(sm.H)
            expected = sorted(
                [hbar * omega * (n + 0.5) for n in range(dim - 1)]
                + [hbar * omega * (dim - 1) / 2.0]
            )
            assert np.max(np.abs(evals - np.array(expected))) <= 1e-10
            comm = commutator(sm.q, sm.p).matrix[: dim - 1, : dim - 1]
            assert np.max(np.abs(comm - 1j * hbar * np.eye(dim - 1))) <= 1e-12

    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pairings = [InnerProduct(), InnerProduct(weight=g.conj().T @ g + 0.5 * np.eye(6))]
    for _ in range(1000):
        x, y, z = (
            StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            for _ in range(3)
        )
        a = complex(rng.standard_normal(), rng.standard_normal())
        for pairing in pairings:
            scale = max(1.0, abs(pairing(x, y)))
            assert abs(np.conj(pairing(y, x)) - pairing(x, y)) <= 1e-12 * scale
            xy = StateVector(x.amplitudes + y.amplitudes)
            lhs = pairing(xy, z)
            rhs = pairing(x, z) + pairing(y, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            norm_sq = pairing(x, x)
            assert abs(norm_sq.imag) <= 1e-12 * max(1.0, abs(norm_sq))
            assert norm_sq.real > 0
            ay = StateVector(a * y.amplitudes)
            assert abs(pairing(x, ay) - a * pairing(x, y)) <= 1e-12 * scale * max(1.0, abs(a))
    report(7, "ground energy, spectrum, lower-block commutator, and pairing axioms hold")


def _fuzz_lines(rng: random.Random, count: int):
    vocab = [
        "[system]", "[resonator]", "freespace", "interface", "plane", "spherical",
        "n=1.0", "d=0.5", "R=1.0", "kind=transmitted", "kind=reflected",
        "n=", "d=x", "R", "#", "freespace=1", "=", "1e309", "[system",
    ]
    printable = string.printable
    for _ in range(count):
        mode = rng.random()
        if mode < 0.4:
            yield "".join(rng.choices(printable, k=rng.randint(0, 60)))
        elif mode < 0.8:
            yield " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        else:
            yield rng.choice(
                ["[system]", "freespace n=1.0 d=0.5", "interface spherical R=1.0", ""]
            )


def test_criterion_8_parser_round_trip_and_fuzz():
    rng = random.Random(8)
    for _ in range(500):
        doc = random_document(rng)
        assert parse(serialize(doc)) == doc

    fuzz_rng = random.Random(88)
    total = 0
    for line in _fuzz_lines(fuzz_rng, 100_000):
        total += 1
        try:
            parse(line)
        except ParseError as err:
            lines = line.split("\n")
            assert 1 <= err.line <= max(1, len(lines))
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1
    assert total == 100_000
    report(8, "500 documents round-trip; 1e5 fuzz lines give only positioned errors")


def test_criterion_9_cli_golden_outputs(capsys):
    def run(*argv):
        code = cli.main([str(a) for a in argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    code, out, _ = run("matrix", SAMPLES / "single_space.osys")
    assert (code, out) == (0, "1 2\n0 1\ndet 1\n")

    code, out, _ = run(
        "trace", SAMPLES / "single_space.osys", "--y0", "1.0", "--theta0", "0.1", "--format", "csv"
    )
    assert (code, out) == (0, "index,y,theta\n0,1,0.1\n1,1.2,0.1\n")

    code, out, _ = run("stability", SAMPLES / "fp_stable.res")
    assert (code, out) == (0, "det 1\nhalf_trace -0.5\nverdict stable\n")

    code, out, _ = run(
        "beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"
    )
    assert (code, out) == (
        0,
        "q_in 0 3.14159265359\nM 1 2 0 1\nq_out 2 3.14159265359\nR 6.93480220054\nw 0.00118544706106\n",
    )

    code, out, _ = run("interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "0")
    assert code == 0
    assert out == (
        "theta_t_deg 0\n"
        "r_amp 0.2\n"
        "t_amp 1.2\n"
        "fresnel_s_r -0.2\n"
        "fresnel_s_t 0.8\n"
        "fresnel_p_r 0.2\n"
        "fresnel_p_t 0.8\n"
        "max_residual 2.48253415325e-16\n"
        "plane_of_incidence true\n"
        "reflection_law true\n"
    )

    code, out, _ = run("quantum", "--omega", "1", "--dim", "32")
    assert code == 0
    assert out.splitlines()[0] == "ground_energy 0.5"
    assert out.splitlines()[1] == "eigenvalues 0.5 1.5 2.5 3.5 4.5 5.5 6.5 7.5"

    # failure classes: invalid input is 1, unparseable input is 2
    code, _, err = run("matrix", SAMPLES / "invalid_index.osys")
    assert code == 1 and "0 < n" in err
    code, _, err = run("matrix", SAMPLES / "malformed.osys")
    assert code == 2 and "d=" in err
    code, _, _ = run("quantum", "--omega", "1", "--dim", "1")
    assert code == 2

    report(9, "six commands byte-match their goldens; exit codes follow the 0/1/2 classes")
