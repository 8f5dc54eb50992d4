import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optikit.core import CVec3, RVec3, cdot
from optikit.emoptics import (
    EMConstants,
    InterfaceSpec,
    PlaneWave,
    boundary_residual,
    check_plane_of_incidence,
    continuity_coefficients,
    eval_plane_wave,
    fresnel_standard,
    h_from_e,
    max_boundary_residual,
    oblique_incidence_fields,
    reflect_wavevector,
    sample_plane_points,
    snell_angle,
    validate_interface_system,
    wavelength_of,
)
from optikit.errors import DomainError, OffPlanePoint, TotalInternalReflection

TWO_PI = 2.0 * math.pi


def sample_wave() -> PlaneWave:
    return PlaneWave(
        k=RVec3(0.0, 0.0, TWO_PI),
        omega=TWO_PI,
        E=CVec3(1.0 + 0j, 0j, 0j),
        H=CVec3(0j, 1.0 / 376.730313668 + 0j, 0j),
    )


def example_system(theta_deg=30.0, n1=1.0, n2=1.5, a=1.0):
    return oblique_incidence_fields(math.radians(theta_deg), n1, n2, a, TWO_PI, TWO_PI)


class TestEvalPlaneWave:
    def test_zero_phase(self):
        w = sample_wave()
        e, h = eval_plane_wave(w, RVec3(0, 0, 0), 0.0)
        assert e == w.E and h == w.H

    def test_half_period_flips_sign(self):
        w = sample_wave()
        # k . r = pi at r = (0, 0, 0.5) since |k| = 2 pi
        e, _ = eval_plane_wave(w, RVec3(0, 0, 0.5), 0.0)
        assert abs(e.x + w.E.x) <= 1e-15

    def test_magnitude_invariant(self):
        w = sample_wave()
        rng = random.Random(1)
        for _ in range(100):
            r = RVec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            e, h = eval_plane_wave(w, r, rng.uniform(0, 10))
            assert abs(e.norm() - w.E.norm()) <= 1e-15 * max(1.0, w.E.norm())
            assert abs(h.norm() - w.H.norm()) <= 1e-15 * max(1.0, w.H.norm())


class TestWavelength:
    def test_unit_wavelength(self):
        assert math.isclose(wavelength_of(RVec3(0, 0, TWO_PI)), 1.0, rel_tol=1e-15)

    def test_micron_wavelength(self):
        assert math.isclose(wavelength_of(RVec3(TWO_PI * 1e6, 0, 0)), 1e-6, rel_tol=1e-12)

    def test_scaling(self):
        k = RVec3(1.0, 2.0, -3.0)
        assert math.isclose(wavelength_of(k.scale(4.0)), wavelength_of(k) / 4.0, rel_tol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            wavelength_of(RVec3(0, 0, 0))


class TestHFromE:
    def test_axial_wave(self):
        consts = EMConstants(k0=TWO_PI)
        h = h_from_e(RVec3(0, 0, TWO_PI), CVec3(2.0 + 0j, 0j, 0j), consts)
        assert abs(h.y - 2.0 / consts.eta0) <= 1e-15
        assert h.x == 0 and h.z == 0

    def test_parallel_field_gives_zero(self):
        consts = EMConstants(k0=1.0)
        h = h_from_e(RVec3(0, 0, 1.0), CVec3(0j, 0j, 3.0 + 1j), consts)
        assert h.max_abs() == 0.0

    def test_orthogonal_to_k_and_e(self):
        rng = random.Random(3)
        consts = EMConstants(k0=1.0)
        for _ in range(200):
            k = RVec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            e = CVec3(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            h = h_from_e(k, e, consts)
            scale = max(1.0, h.norm())
            assert abs(cdot(k.as_complex(), h)) <= 1e-12 * scale * max(1.0, k.norm())
            assert abs(cdot(e, h)) <= 1e-12 * scale * max(1.0, e.norm())


class TestBoundaryResidual:
    def test_identical_fields_cancel(self):
        w = sample_wave()
        spec = InterfaceSpec(1.0, 1.0, RVec3(0, 0, 0), RVec3(1, 0, 0))
        d_e, d_h = boundary_residual([w], w, spec, RVec3(0.0, 0.3, -0.2), 1.0)
        assert d_e.max_abs() == 0.0 and d_h.max_abs() == 0.0

    def test_fields_along_normal_cancel(self):
        spec = InterfaceSpec(1.0, 1.5, RVec3(0, 0, 0), RVec3(1, 0, 0))
        w1 = PlaneWave(RVec3(1, 0, 0), 1.0, CVec3(2 + 1j, 0j, 0j), CVec3(1j, 0j, 0j))
        w2 = PlaneWave(RVec3(1, 0, 0), 1.0, CVec3(-1 + 0j, 0j, 0j), CVec3(5 + 0j, 0j, 0j))
        d_e, d_h = boundary_residual([w1], w2, spec, RVec3(0.0, 1.0, 2.0), 0.5)
        assert d_e.max_abs() == 0.0 and d_h.max_abs() == 0.0

    def test_off_plane_point_rejected(self):
        w = sample_wave()
        spec = InterfaceSpec(1.0, 1.0, RVec3(0, 0, 0), RVec3(1, 0, 0))
        with pytest.raises(OffPlanePoint):
            boundary_residual([w], w, spec, RVec3(0.1, 0.0, 0.0), 0.0)


class TestSnell:
    def test_equal_indices(self):
        theta = 0.4
        assert snell_angle(1.5, 1.5, theta) == pytest.approx(theta, rel=1e-15)

    def test_glass_from_air(self):
        theta_t = snell_angle(1.0, 1.5, math.radians(30.0))
        assert math.isclose(math.degrees(theta_t), 19.471220634490695, rel_tol=1e-12)

    def test_total_internal_reflection(self):
        with pytest.raises(TotalInternalReflection):
            snell_angle(1.5, 1.0, math.radians(60.0))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            snell_angle(-1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            snell_angle(1.0, 1.0, math.pi / 2)
        for n1, n2 in ((1.0, math.inf), (math.inf, 1.5), (math.nan, 1.5), (1.0, math.nan)):
            with pytest.raises(DomainError):
                snell_angle(n1, n2, 0.3)


class TestReflectWavevector:
    def test_normal_incidence_retroreflects(self):
        k = RVec3(3.0, 0.0, 0.0)
        assert reflect_wavevector(k, RVec3(1, 0, 0)) == RVec3(-3.0, 0.0, 0.0)

    def test_oblique_component_flip(self):
        theta = 0.7
        k = RVec3(math.cos(theta), 0.0, math.sin(theta)).scale(5.0)
        k_r = reflect_wavevector(k, RVec3(1, 0, 0))
        assert math.isclose(k_r.x, -k.x, rel_tol=1e-15)
        assert k_r.y == k.y and k_r.z == k.z

    def test_isometry_and_involution(self):
        rng = random.Random(4)
        for _ in range(200):
            k = RVec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            raw = RVec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            if raw.norm() < 1e-2:
                continue
            n = raw.scale(1.0 / raw.norm())
            k_r = reflect_wavevector(k, n)
            assert abs(k_r.norm() - k.norm()) <= 1e-12 * max(1.0, k.norm())
            back = reflect_wavevector(k_r, n)
            assert (back - k).norm() <= 1e-12 * max(1.0, k.norm())

    def test_non_unit_normal_rejected(self):
        with pytest.raises(DomainError):
            reflect_wavevector(RVec3(1, 0, 0), RVec3(2, 0, 0))


class TestContinuityCoefficients:
    def test_normal_incidence_values(self):
        r, t = continuity_coefficients(1.0, 1.5, 0.0)
        assert math.isclose(r, 0.2, rel_tol=1e-15)
        assert math.isclose(t, 1.2, rel_tol=1e-15)

    def test_sum_identity(self):
        rng = random.Random(5)
        for _ in range(300):
            n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)
            theta = rng.uniform(0.0, math.radians(85.0))
            if n1 * math.sin(theta) / n2 >= 1.0:
                continue
            a = rng.uniform(0.1, 3.0)
            r, t = continuity_coefficients(n1, n2, theta, a)
            assert abs((a + r) - t) <= 1e-15 * max(abs(t), 1.0)


class TestObliqueIncidenceFields:
    def test_residual_vanishes_on_sampled_plane_points(self):
        system = example_system()
        scale = max(
            max(w.E.max_abs(), w.H.max_abs())
            for w in (system.incident, system.reflected, system.transmitted)
        )
        assert max_boundary_residual(system, 500, seed=0) <= 1e-12 * scale

    def test_validation_passes_with_advisory_impedance_warning(self):
        report = validate_interface_system(example_system(), samples=300, seed=1)
        assert report.ok
        assert [c.key for c in report.warnings] == ["h_field_consistency"]

    def test_tangential_wavevectors_match(self):
        system = example_system(theta_deg=52.0, n1=1.2, n2=1.9)
        kz_i = system.incident.k.z
        assert abs(system.reflected.k.z - kz_i) <= 1e-12 * abs(kz_i)
        assert abs(system.transmitted.k.z - kz_i) <= 1e-12 * abs(kz_i)
        assert system.incident.k.y == 0.0

    def test_flipped_transmitted_direction_fails_clause(self):
        system = example_system()
        flipped = dataclasses.replace(
            system, transmitted=dataclasses.replace(system.transmitted, k=system.transmitted.k.scale(-1.0))
        )
        report = validate_interface_system(flipped, samples=50, seed=0)
        assert not report.clause("direction_transmitted").ok
        assert not report.ok

    def test_zeroed_reflected_field_fails_non_null(self):
        system = example_system()
        silenced = dataclasses.replace(
            system, reflected=dataclasses.replace(system.reflected, E=CVec3(0j, 0j, 0j))
        )
        report = validate_interface_system(silenced, samples=50, seed=0)
        assert not report.clause("non_null_reflected").ok

    def test_tir_propagates(self):
        with pytest.raises(TotalInternalReflection):
            example_system(theta_deg=60.0, n1=1.5, n2=1.0)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, math.inf, 1.0, TWO_PI, TWO_PI),
            (math.inf, 1.5, 1.0, TWO_PI, TWO_PI),
            (1.0, 1.5, math.inf, TWO_PI, TWO_PI),
            (1.0, 1.5, math.nan, TWO_PI, TWO_PI),
            (1.0, 1.5, 1.0, math.inf, TWO_PI),
            (1.0, 1.5, 1.0, TWO_PI, math.inf),
            (1.0, 1.5, 1.0, math.nan, math.nan),
        ],
    )
    def test_nonfinite_inputs_rejected(self, args):
        # n2 = inf used to build a system whose sampled residual read 0.0
        with pytest.raises(DomainError):
            oblique_incidence_fields(0.3, *args)


    @pytest.mark.parametrize(
        "theta_deg, n1, n2, a",
        [
            (30.0, 1.0, 1.5, 1e308),  # t_amp overflows; the residual read 0
            (0.0, 1.0, 1e308, 1.0),  # t_amp and the transmitted k overflow
            (0.0, 1e308, 1e308, 1.0),  # every wavevector overflows
        ],
    )
    def test_overflowed_fields_rejected(self, theta_deg, n1, n2, a):
        with pytest.raises(DomainError, match="overflow"):
            example_system(theta_deg, n1, n2, a)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_nonfinite_residual_raises_without_warning(self, amplitude):
        # a hand-built system whose residual is NaN; fmax used to drop it
        system = example_system()
        tr = system.transmitted
        bad = dataclasses.replace(system, transmitted=dataclasses.replace(tr, E=CVec3(0j, complex(amplitude), 0j)))
        with pytest.raises(DomainError, match="NaN"):
            max_boundary_residual(bad, 5, seed=0)


def reference_max_residual(system, samples, seed):
    """Scalar reference: max component magnitude of `boundary_residual`."""
    side1 = (system.incident, system.reflected)
    worst = 0.0
    for r, t in sample_plane_points(system, samples, seed):
        d_e, d_h = boundary_residual(side1, system.transmitted, system.spec, r, t)
        worst = max(worst, d_e.max_abs(), d_h.max_abs())
    return worst


interface_cases = st.fixed_dictionaries(
    {
        "theta_deg": st.floats(min_value=0.0, max_value=80.0, exclude_max=True),
        "n1": st.floats(min_value=1.0, max_value=2.5),
        "n2": st.floats(min_value=1.0, max_value=3.5),
        "a": st.floats(min_value=1e-3, max_value=1e3),
        # scaling the transmitted wave makes the residual O(1) and complex
        "mismatch": st.none() | st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
    }
)


def build_case(case):
    theta = math.radians(case["theta_deg"])
    assume(case["n1"] * math.sin(theta) / case["n2"] < 1.0)
    system = oblique_incidence_fields(theta, case["n1"], case["n2"], case["a"], TWO_PI, TWO_PI)
    z = case["mismatch"]
    if z is not None:
        tr = system.transmitted
        system = dataclasses.replace(
            system, transmitted=dataclasses.replace(tr, E=tr.E.scale(z), H=tr.H.scale(z))
        )
    return system


class TestResidualKernel:
    """`max_boundary_residual` against the scalar `boundary_residual` path."""

    @settings(max_examples=100, deadline=None)
    @given(case=interface_cases, samples=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_bit_for_bit(self, case, samples, seed):
        system = build_case(case)
        assert max_boundary_residual(system, samples, seed) == reference_max_residual(system, samples, seed)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097])
    @settings(max_examples=3, deadline=None)
    @given(case=interface_cases, seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_across_chunk_edge(self, case, seed, samples):
        system = build_case(case)
        assert max_boundary_residual(system, samples, seed) == reference_max_residual(system, samples, seed)

    def test_non_unit_normal_raises_off_plane(self):
        system = example_system()
        tilted = dataclasses.replace(
            system, spec=dataclasses.replace(system.spec, normal=RVec3(1.0, 1.0, 0.0))
        )
        with pytest.raises(OffPlanePoint) as kernel:
            max_boundary_residual(tilted, 100, seed=0)
        with pytest.raises(OffPlanePoint) as reference:
            reference_max_residual(tilted, 100, seed=0)
        assert str(kernel.value) == str(reference.value)


class TestPlaneOfIncidence:
    def test_constructed_system_is_coplanar(self):
        assert check_plane_of_incidence(example_system())

    def test_normal_incidence_is_coplanar(self):
        assert check_plane_of_incidence(example_system(theta_deg=0.0))

    def test_out_of_plane_perturbation_detected(self):
        system = example_system()
        k_t = system.transmitted.k
        lifted = RVec3(k_t.x, 1e-3 * k_t.norm(), k_t.z)
        perturbed = dataclasses.replace(
            system, transmitted=dataclasses.replace(system.transmitted, k=lifted)
        )
        assert not check_plane_of_incidence(perturbed)


class TestFresnelStandard:
    def test_s_normal_incidence(self):
        r, t = fresnel_standard("s", 1.0, 1.5, 0.0)
        assert math.isclose(r, -0.2, rel_tol=1e-15)
        assert math.isclose(t, 0.8, rel_tol=1e-15)

    def test_p_normal_incidence(self):
        r, t = fresnel_standard("p", 1.0, 1.5, 0.0)
        assert math.isclose(r, 0.2, rel_tol=1e-15)
        assert math.isclose(t, 0.8, rel_tol=1e-15)

    def test_s_continuity_identity(self):
        rng = random.Random(6)
        for _ in range(200):
            n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)
            theta = rng.uniform(0.0, math.radians(85.0))
            if n1 * math.sin(theta) / n2 >= 1.0:
                continue
            r, t = fresnel_standard("s", n1, n2, theta)
            assert abs((1.0 + r) - t) <= 1e-14

    def test_matched_media(self):
        for pol in ("s", "p"):
            r, t = fresnel_standard(pol, 1.4, 1.4, 0.3)
            assert abs(r) <= 1e-15 and math.isclose(t, 1.0, rel_tol=1e-15)

    def test_unknown_polarization(self):
        with pytest.raises(DomainError):
            fresnel_standard("x", 1.0, 1.5, 0.0)


class TestGoalReplaySweep:
    def test_random_tuples_without_tir(self):
        rng = random.Random(7)
        done = 0
        while done < 10:
            n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)
            theta = rng.uniform(0.0, math.radians(85.0))
            if n1 * math.sin(theta) / n2 >= 1.0:
                continue
            a = rng.uniform(0.1, 3.0)
            system = oblique_incidence_fields(theta, n1, n2, a, TWO_PI, TWO_PI)
            report = validate_interface_system(system, samples=200, seed=done)
            assert report.ok
            done += 1
