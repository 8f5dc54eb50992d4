import cmath
import contextlib
import math
import random
import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS, EDGE_INTS, bits, outcome, read_real, replace, vec3_norm, vector_residual
from optikit.core import CVec3, RVec3, coplanar
from optikit.emoptics import (
    _CHUNK,
    EMConstants,
    InterfaceSpec,
    InterfaceSystem,
    PlaneWave,
    boundary_residual,
    check_plane_of_incidence,
    continuity_coefficients,
    eval_plane_wave,
    fresnel_standard,
    h_from_e,
    max_boundary_residual,
    oblique_incidence_fields,
    reference_max_residual,
    reflect_wavevector,
    sample_plane_points,
    snell_angle,
    validate_interface_system,
    wavelength_of,
    _finite_fields,
    _plane_draws,
    _plane,
    _require_on_plane,
)
from optikit.errors import DomainError, OffPlanePoint, OptikitError, TotalInternalReflection
from optikit.rayoptics import ValidationReport
from test_outcome_digest import perturbed, real

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


IMPEDANCE = "H = k x E / (eta0 k0)"


def s_wave(wave, amplitude, consts):
    """The wave with E = amplitude along y and H = h_from_e(k, E)."""
    e = CVec3(0j, complex(amplitude), 0j)
    return replace(wave, E=e, H=h_from_e(wave.k, e, consts))


def maxwell_system(theta_deg=30.0, n1=1.0, n2=1.5, amplitudes=None):
    """The worked geometry with s waves of amplitudes (1, r, t) from
    `fresnel_standard` unless given, and H = h_from_e(k, E): a solution of
    Maxwell's equations, which passes every check of the validator."""
    system = example_system(theta_deg, n1, n2)
    if amplitudes is None:
        amplitudes = (1.0, *fresnel_standard("s", n1, n2, math.radians(theta_deg)))
    waves = (system.incident, system.reflected, system.transmitted)
    return InterfaceSystem(system.spec, *(s_wave(w, a, system.consts) for w, a in zip(waves, amplitudes)),
                           system.consts)


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
            assert abs(vec3_norm(e) - vec3_norm(w.E)) <= 1e-15 * max(1.0, vec3_norm(w.E))
            assert abs(vec3_norm(h) - vec3_norm(w.H)) <= 1e-15 * max(1.0, vec3_norm(w.H))


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
            scale = max(1.0, vec3_norm(h))
            assert abs(k.as_complex().dot(h)) <= 1e-12 * scale * max(1.0, k.norm())
            assert abs(e.dot(h)) <= 1e-12 * scale * max(1.0, vec3_norm(e))


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

    @pytest.mark.parametrize("a", [pytest.param(10**400, id="10**400"), math.inf])
    def test_amplitude_not_finite_is_domain_error(self, a):
        # 10**400 raised OverflowError, and inf returned (inf, inf)
        with pytest.raises(DomainError, match="amplitude must be positive and finite, got inf"):
            continuity_coefficients(1.0, 1.5, 0.3, a)

    @pytest.mark.parametrize("a", [1e308, 1.7e308])
    def test_amplitude_near_the_top_of_the_range_is_domain_error(self, a):
        # t = 1.2 a overflows: these returned (2e+307, inf) and (3.4e+307, inf),
        # where `oblique_incidence_fields` raised DomainError for the same input
        with pytest.raises(DomainError, match=re.escape(f"amplitudes overflow double precision at a = {a!r},")):
            continuity_coefficients(1.0, 1.5, 0.0, a)
        with pytest.raises(DomainError):
            oblique_incidence_fields(0.0, 1.0, 1.5, a, TWO_PI, TWO_PI)

    @given(n1=st.floats(1e-3, 1e3), n2=st.floats(1e-3, 1e3), theta=st.floats(0.0, 1.5),
           a=st.sampled_from([1.0, 1e300, 1e307, 1e308, sys.float_info.max]) | st.floats(0.0, sys.float_info.max))
    @example(n1=1.0, n2=1.5, theta=0.0, a=sys.float_info.max)
    @example(n1=1e3, n2=1e-3, theta=0.0, a=1e300)
    @settings(max_examples=300, deadline=None)
    def test_amplitudes_are_finite_or_domain_error(self, n1, n2, theta, a):
        # amplitudes up to the largest double: finite r and t, or DomainError
        # (or total internal reflection, which is no amplitude's doing)
        try:
            r, t = continuity_coefficients(n1, n2, theta, a)
        except (DomainError, TotalInternalReflection):
            return
        assert math.isfinite(r) and math.isfinite(t)


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
        assert report.ok and report.violations == ()
        assert [(w.index, w.clause) for w in report.warnings] == [
            (name, IMPEDANCE) for name in ("incident", "reflected", "transmitted")
        ]

    def test_tangential_wavevectors_match(self):
        system = example_system(theta_deg=52.0, n1=1.2, n2=1.9)
        kz_i = system.incident.k.z
        assert abs(system.reflected.k.z - kz_i) <= 1e-12 * abs(kz_i)
        assert abs(system.transmitted.k.z - kz_i) <= 1e-12 * abs(kz_i)
        assert system.incident.k.y == 0.0

    def test_flipped_transmitted_direction_fails_clause(self):
        system = example_system()
        flipped = replace(
            system, transmitted=replace(system.transmitted, k=system.transmitted.k.scale(-1.0))
        )
        report = validate_interface_system(flipped, samples=50, seed=0)
        assert ("transmitted", "k . n >= 0") in [(v.index, v.clause) for v in report.violations]
        assert not report.ok

    def test_zeroed_reflected_field_fails_non_null(self):
        system = example_system()
        silenced = replace(
            system, reflected=replace(system.reflected, E=CVec3(0j, 0j, 0j))
        )
        report = validate_interface_system(silenced, samples=50, seed=0)
        assert ("reflected", "E, H nonzero") in [(v.index, v.clause) for v in report.violations]
        assert not report.ok

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
        bad = replace(system, transmitted=replace(tr, E=CVec3(0j, complex(amplitude), 0j)))
        with pytest.raises(DomainError, match="NaN"):
            max_boundary_residual(bad, 5, seed=0)


def forward_reflection():
    # index-matched at normal incidence, a "reflected" wave that runs forward
    # with amplitude 1/2 beside a transmitted one of 3/2 meets every other check
    system = maxwell_system(0.0, 1.5, 1.5, amplitudes=(1.0, 0.5, 1.5))
    forward = replace(system.reflected, k=system.incident.k)
    return replace(system, reflected=s_wave(forward, 0.5, system.consts))


def with_part(system, name, **fields):
    """The system with the given fields of one part (spec, a wave, consts) replaced."""
    return replace(system, **{name: replace(getattr(system, name), **fields)})


# (breaks exactly one check, where the report locates it, the check, advisory)
CHECKS = [
    (lambda s: with_part(s, "spec", normal=RVec3(2.0, 0.0, 0.0)),
     "interface", "n1, n2 > 0 and |normal| = 1", False),
    (lambda s: with_part(s, "consts", eta0=-1.0), "constants", "eta0, k0 > 0", False),
    (lambda s: with_part(s, "transmitted", omega=0.0), "transmitted", "omega, |k| > 0", False),
    # a matched interface at normal incidence reflects nothing: r = 0 exactly
    (lambda s: maxwell_system(0.0, 1.5, 1.5), "reflected", "E, H nonzero", False),
    (lambda s: forward_reflection(), "reflected", "k . n <= 0", False),
    (lambda s: with_part(s, "spec", n2=2.0), "transmitted", "|k| = k0 n", False),
    # a normal component of H leaves the tangential boundary conditions alone
    (lambda s: with_part(s, "reflected", H=s.reflected.H + CVec3(complex(s.reflected.H.max_abs()), 0j, 0j)),
     "reflected", IMPEDANCE, True),
    (lambda s: with_part(s, "transmitted", E=s.transmitted.E.scale(1.01), H=s.transmitted.H.scale(1.01)),
     "interface", "boundary conditions", False),
]
CHECK_IDS = [
    "interface", "constants", "omega_and_k", "null_field", "direction", "k_norm", "impedance", "boundary",
]


def system_floats(system):
    """Every float of a system, in the order `system_from_floats` reads them."""
    def parts(v):
        return [p for c in (v.x, v.y, v.z) for p in ((c,) if isinstance(c, float) else (c.real, c.imag))]

    out = [system.spec.n1, system.spec.n2, *parts(system.spec.point), *parts(system.spec.normal)]
    for w in (system.incident, system.reflected, system.transmitted):
        out += [*parts(w.k), w.omega, *parts(w.E), *parts(w.H)]
    return out + [system.consts.k0, system.consts.eta0]


def system_from_floats(values):
    it = iter(values)

    def real3():
        return RVec3(next(it), next(it), next(it))

    def complex3():
        return CVec3(*(complex(next(it), next(it)) for _ in range(3)))

    def wave():
        return PlaneWave(k=real3(), omega=next(it), E=complex3(), H=complex3())

    spec = InterfaceSpec(next(it), next(it), real3(), real3())
    return InterfaceSystem(spec, wave(), wave(), wave(), EMConstants(next(it), next(it)))


class TestValidateInterfaceSystem:
    def test_maxwell_triple_passes_every_check(self):
        for theta in (0.0, 30.0, 60.0, 80.0):
            report = validate_interface_system(maxwell_system(theta), samples=200, seed=3)
            assert report == ValidationReport((), ())

    @pytest.mark.parametrize("broken, index, clause, advisory", CHECKS, ids=CHECK_IDS)
    def test_each_check_fails_alone(self, broken, index, clause, advisory):
        report = validate_interface_system(broken(maxwell_system()), samples=50, seed=0)
        found = [(v.index, v.clause) for v in report.violations + report.warnings]
        assert found == [(index, clause)]
        assert report.ok is advisory
        assert len(report.warnings) == advisory

    def test_overflowing_field_is_domain_error(self):
        # abs() of this finite amplitude overflowed (was OverflowError)
        big = complex(sys.float_info.max, sys.float_info.max)
        system = with_part(example_system(), "reflected", E=CVec3(0j, big, 0j))
        with pytest.raises(DomainError):
            validate_interface_system(system, samples=50, seed=0)

    def test_underflowing_impedance_scale_is_domain_error(self):
        # eta0 * k0 underflows to 0 (was ZeroDivisionError in h_from_e)
        system = with_part(example_system(), "consts", k0=1e-300, eta0=1e-300)
        with pytest.raises(DomainError):
            validate_interface_system(system, samples=50, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from([maxwell_system(), example_system()]),
        changes=st.lists(
            st.tuples(st.integers(0, 57),
                      st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=6,
        ),
    )
    def test_report_or_optikit_error(self, base, changes):
        values = system_floats(base)
        for i, v in changes:
            values[i] = v
        try:
            report = validate_interface_system(system_from_floats(values), samples=20, seed=0)
        except OptikitError:
            return
        assert isinstance(report, ValidationReport)
        names = {"interface", "constants", "incident", "reflected", "transmitted"}
        assert {v.index for v in report.violations + report.warnings} <= names


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
        system = replace(
            system, transmitted=replace(tr, E=tr.E.scale(z), H=tr.H.scale(z))
        )
    return system


finite = st.floats(min_value=-1e3, max_value=1e3)
amplitudes = st.builds(lambda *p: CVec3(complex(p[0], p[1]), complex(p[2], p[3]), complex(p[4], p[5])),
                       *[finite] * 6)
wavevectors = st.builds(RVec3, finite, finite, finite).filter(lambda k: k.norm() > 1e-3)
general_waves = st.builds(PlaneWave, k=wavevectors, omega=st.floats(1e-2, 1e2), E=amplitudes, H=amplitudes)


@st.composite
def general_systems(draw):
    """Any three waves at a tilted unit normal through a point away from the
    origin, with complex amplitudes: the kernel reads no physics, only geometry."""
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI))
    sin_polar = math.sin(polar)
    normal = RVec3(sin_polar * math.cos(azimuth), sin_polar * math.sin(azimuth), math.cos(polar))
    spec = InterfaceSpec(1.0, 1.5, draw(st.builds(RVec3, finite, finite, finite)), normal)
    return InterfaceSystem(spec, draw(general_waves), draw(general_waves), draw(general_waves), EMConstants(1.0))


signed_zeros = st.sampled_from([0.0, -0.0])
# each amplitude component zero, real, imaginary or complex: the kernel leaves
# out the products of the zero parts
sparse_parts = (st.builds(complex, signed_zeros, signed_zeros) | st.builds(complex, finite, signed_zeros)
                | st.builds(complex, signed_zeros, finite) | st.builds(complex, finite, finite))
sparse_amplitudes = st.builds(CVec3, sparse_parts, sparse_parts, sparse_parts)
AXIS_NORMALS = [RVec3(*(sign if i == axis else 0.0 for i in range(3))) for axis in range(3) for sign in (1.0, -1.0)]


@st.composite
def sparse_systems(draw):
    """Three waves of sparse amplitudes at an axis-aligned or a general unit normal."""
    if draw(st.booleans()):
        normal = draw(st.sampled_from(AXIS_NORMALS))
    else:
        polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI))
        normal = RVec3(math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))
    spec = InterfaceSpec(1.0, 1.5, draw(st.builds(RVec3, finite, finite, finite)), normal)
    waves = [draw(st.builds(PlaneWave, k=wavevectors, omega=st.floats(1e-2, 1e2), E=sparse_amplitudes,
                            H=sparse_amplitudes)) for _ in range(3)]
    return InterfaceSystem(spec, *waves, EMConstants(1.0))


def with_waves(normal=RVec3(1.0, 0.0, 0.0), **parts):
    """The worked triple at the given normal, with parts given as wave_field=value."""
    system = example_system()
    system = replace(system, spec=replace(system.spec, normal=normal))
    for name, value in parts.items():
        wave, field = name.split("_")
        system = replace(system, **{wave: replace(getattr(system, wave), **{field: value})})
    return system


NAN_RESIDUAL = (DomainError, "boundary residual is NaN: the fields overflow double precision")

# a wavevector part that is zero or not
K_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-20.0, 20.0)


@st.composite
def axis_plane_systems(draw, relation):
    """Three waves of sparse amplitudes at an axis-aligned unit normal, through a point whose parts
    are zero or not, the reflected wave related to the incident one by `relation`: "k and omega"
    equal, "k" equal and omega not, or "k off the normal axis" equal, with omega, so that their
    phases differ only through the point's part on that axis, which may be zero."""
    index = draw(st.integers(0, 5))
    normal, axis = AXIS_NORMALS[index], index // 2
    point = RVec3(*(draw(st.sampled_from([0.0, -0.0]) | finite) for _ in range(3)))
    k = draw(st.builds(RVec3, K_PARTS, K_PARTS, K_PARTS).filter(lambda k: k.norm() > 1e-3))
    omega = draw(st.floats(1e-2, 1e2))
    if relation == "k":
        other_k, other_omega = k, draw(st.floats(1e-2, 1e2).filter(lambda w: w != omega))
    else:
        parts = [k.x, k.y, k.z]
        if relation == "k off the normal axis":
            parts[axis] = draw(K_PARTS)
        other_k, other_omega = RVec3(*parts), omega
    incident, reflected = (PlaneWave(kv, w, draw(sparse_amplitudes), draw(sparse_amplitudes))
                           for kv, w in ((k, omega), (other_k, other_omega)))
    transmitted = draw(st.builds(PlaneWave, k=wavevectors | st.just(k), omega=st.floats(1e-2, 1e2) | st.just(omega),
                                 E=sparse_amplitudes, H=sparse_amplitudes))
    return InterfaceSystem(InterfaceSpec(1.0, 1.5, point, normal), incident, reflected, transmitted, EMConstants(1.0))


class TestResidualKernel:
    """`max_boundary_residual`, the kernel, against `reference_max_residual`, the scalar route."""

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

    @settings(max_examples=150, deadline=None)
    @given(system=general_systems(), samples=st.integers(1, 40), seed=st.integers(-2**80, 2**80))
    def test_equals_reference_on_general_geometry(self, system, samples, seed):
        assert max_boundary_residual(system, samples, seed) == reference_max_residual(system, samples, seed)

    # a pinned outcome is that of forming every product in full, which the
    # scalar route gives only by handing the call to the kernel, as
    # `boundary_residual` raises DomainError on fields not finite
    @settings(max_examples=200, deadline=None)
    @given(system=sparse_systems(), samples=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), pinned=st.none())
    # two real parts of 1e308 overflow a sum at a general normal: hypot(inf, NaN) is inf, which
    # raises as a NaN does
    @example(system=with_waves(RVec3(0.48, 0.6, 0.64), incident_E=CVec3(1e308 + 0j, 0j, 0j),
                               reflected_E=CVec3(1e308 + 0j, 0j, 0j)), samples=1, seed=1,
             pinned=(DomainError, "boundary residual is inf: the fields overflow double precision"))
    @example(system=with_waves(incident_E=CVec3(0j, 1e308 + 0j, 0j), reflected_E=CVec3(0j, 1e308 + 0j, 0j)),
             samples=5, seed=0, pinned=NAN_RESIDUAL)
    @example(system=with_waves(incident_E=CVec3(0j, complex(math.nan), 0j)), samples=5, seed=0, pinned=NAN_RESIDUAL)
    # an infinite H x that only zero normal entries multiply: 0 * inf is NaN
    @example(system=with_waves(transmitted_H=CVec3(complex(math.inf), 0j, 0j)), samples=5, seed=0,
             pinned=NAN_RESIDUAL)
    # fields along the normal, which n x d leaves out, and a phase that is not finite: 0 * NaN is NaN
    @example(system=with_waves(**{f"{wave}_{field}": CVec3(1 + 0j, 0j, 0j) if field == "E" else CVec3(0j, 0j, 0j)
                                  for wave in ("incident", "reflected", "transmitted") for field in "EH"},
                               reflected_k=RVec3(-1e308, 0.0, 1e308)), samples=5, seed=0, pinned=NAN_RESIDUAL)
    def test_equals_reference_on_sparse_systems(self, system, samples, seed, pinned):
        want = pinned or outcome(reference_max_residual, system, samples, seed)
        assert outcome(max_boundary_residual, system, samples, seed) == want

    @pytest.mark.parametrize("samples", [4095, 4096, 4097])
    @settings(max_examples=3, deadline=None)
    @given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_on_sparse_systems_across_chunk_edge(self, system, seed, samples):
        assert max_boundary_residual(system, samples, seed) == reference_max_residual(system, samples, seed)

    # waves that share one phase row by phase matching, and waves that must not: each kernel
    # outcome is the scalar route's, bit for bit, or the same error
    @pytest.mark.parametrize("relation", ["k and omega", "k", "k off the normal axis"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), samples=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_at_axis_aligned_planes(self, relation, data, samples, seed):
        system = data.draw(axis_plane_systems(relation))
        assert outcome(max_boundary_residual, system, samples, seed) == outcome(reference_max_residual,
                                                                                system, samples, seed)

    # spans that overflow: 10 wavelengths (k0 = 1e-307), their doubled width (k0 = 5e-307)
    # or 10 periods (omega = 1e-307) pass the double range, so the draws are +-inf or NaN, and
    # a product of a zero with them is NaN; at normal incidence through the origin, the phases
    # have no other term along the normal
    @pytest.mark.parametrize("k0, omega", [(1e-307, 1.0), (5e-307, 1.0), (1.0, 1e-307)])
    @settings(max_examples=20, deadline=None)
    @given(theta=st.sampled_from([0.0]) | st.floats(0.0, 1.2), normal=st.sampled_from(AXIS_NORMALS[:2]),
           point=st.builds(RVec3, st.sampled_from([0.0, -0.0]) | finite, finite, finite),
           samples=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(theta=0.0, normal=AXIS_NORMALS[0], point=RVec3(0.0, 0.0, 0.0), samples=5, seed=0)
    def test_spans_that_overflow(self, k0, omega, theta, normal, point, samples, seed):
        system = oblique_incidence_fields(theta, 1.0, 1.5, 1.0, omega, k0)
        system = replace(system, spec=InterfaceSpec(1.0, 1.5, point, normal))
        assert outcome(max_boundary_residual, system, samples, seed) == NAN_RESIDUAL
        assert outcome(reference_max_residual, system, samples, seed) == NAN_RESIDUAL

    @pytest.mark.parametrize("call", [max_boundary_residual, validate_interface_system,
                                      lambda *args: list(sample_plane_points(*args))])
    def test_samples_and_seed_must_be_ints(self, call):
        # a float count raised a foreign TypeError; None seeded from the OS
        with pytest.raises(DomainError, match="samples and seed must be ints"):
            call(example_system(), 2.5, 1)
        with pytest.raises(DomainError, match="samples and seed must be ints"):
            call(example_system(), 5, None)

    def test_non_unit_normal_raises_off_plane(self):
        system = example_system()
        tilted = replace(
            system, spec=replace(system.spec, normal=RVec3(1.0, 1.0, 0.0))
        )
        with pytest.raises(OffPlanePoint) as kernel:
            max_boundary_residual(tilted, 100, seed=0)
        with pytest.raises(OffPlanePoint) as reference:
            reference_max_residual(tilted, 100, seed=0)
        assert str(kernel.value) == str(reference.value)


def scalar_draws(system, samples, seed):
    """Independent draw oracle: u, v and t per sample, each one `uniform` call."""
    lam = wavelength_of(system.incident.k)
    period = TWO_PI / system.incident.omega
    rng = random.Random(seed)
    return [(rng.uniform(-10.0 * lam, 10.0 * lam), rng.uniform(-10.0 * lam, 10.0 * lam),
             rng.uniform(0.0, 10.0 * period)) for _ in range(samples)]


class TestPlaneDraws:
    """The kernel's bulk draws, and the points of `sample_plane_points`, against
    per-sample `uniform` calls, so that a Python whose `getrandbits` or `random()`
    changes fails here."""

    # a wavelength and a period that are not powers of two, on a tilted plane
    SYSTEM = replace(
        oblique_incidence_fields(0.3, 1.2, 1.7, 1.0, 1.37 * TWO_PI, 0.83 * TWO_PI),
        spec=InterfaceSpec(1.2, 1.7, RVec3(0.5, -2.0, 3.0), RVec3(0.6, 0.0, 0.8)),
    )

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("seed", [0, -12345, 2**32 + 1, 2**70 + 5])
    def test_kernel_blocks_and_points_equal_scalar_draws(self, seed, samples):
        expected = scalar_draws(self.SYSTEM, samples, seed)
        blocks = list(_plane_draws(self.SYSTEM, samples, seed))
        assert [len(b) for b in blocks] == [min(_CHUNK, samples - i) for i in range(0, samples, _CHUNK)]
        assert [tuple(row) for b in blocks for row in b.tolist()] == expected
        point = self.SYSTEM.spec.point
        _, _, t1, t2 = _plane(self.SYSTEM.spec)
        points = [(point + t1.scale(u) + t2.scale(v), t) for u, v, t in expected]
        assert list(sample_plane_points(self.SYSTEM, samples, seed)) == points

    @settings(max_examples=100, deadline=None)
    @given(case=interface_cases, samples=st.integers(1, 30), seed=st.integers(-2**80, 2**80))
    def test_equal_scalar_draws_for_any_seed(self, case, samples, seed):
        system = build_case(case)
        drawn = [tuple(row) for b in _plane_draws(system, samples, seed) for row in b.tolist()]
        assert drawn == scalar_draws(system, samples, seed)


class TestPlaneOfIncidence:
    def test_constructed_system_is_coplanar(self):
        assert check_plane_of_incidence(example_system())

    def test_normal_incidence_is_coplanar(self):
        assert check_plane_of_incidence(example_system(theta_deg=0.0))

    def test_out_of_plane_perturbation_detected(self):
        system = example_system()
        k_t = system.transmitted.k
        lifted = RVec3(k_t.x, 1e-3 * k_t.norm(), k_t.z)
        perturbed = replace(
            system, transmitted=replace(system.transmitted, k=lifted)
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, theta: fresnel_standard("s", n, n, theta),
            lambda n, theta: fresnel_standard("p", n, n, theta),
            lambda n, theta: continuity_coefficients(n, n, theta),
            lambda n, theta: oblique_incidence_fields(theta, n, n, 1.0, 1.0, 1.0),
        ],
    )
    def test_underflowed_denominator_is_a_domain_error(self, call):
        # at 70 degrees both products of the denominator round to 0
        with pytest.raises(DomainError, match="underflows to 0"):
            call(5e-324, math.radians(70.0))
        assert call(5e-324, math.radians(30.0)) is not None  # here they round up to 5e-324

    @pytest.mark.parametrize(
        "call",
        [
            lambda n1, n2, theta: fresnel_standard("s", n1, n2, theta),
            lambda n1, n2, theta: fresnel_standard("p", n1, n2, theta),
            continuity_coefficients,
        ],
    )
    @pytest.mark.parametrize("n1, n2, theta", [(1e308, 1.5e308, 0.5), (1.7e308, 1e308, 0.2), (1e308, 1.2e308, 0.3),
                                               (1e308, 1e-300, 0.0), (1.0, 1.7e308, 1.0)])
    def test_indices_at_the_top_of_the_range(self, call, n1, n2, theta):
        # past half the double range the denominator or 2 n ci can overflow
        # (the first three gave r = ±0.0 and t = NaN); the coefficients
        # depend on n1 / n2 alone, and n / 4 is exact
        assert call(n1, n2, theta) == call(n1 / 4, n2 / 4, theta)
        assert all(map(math.isfinite, call(n1, n2, theta)))


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


# edge floats, ints at and beyond the double range, infinities and NaN, mixed with finite floats
ANY_NUMBER = st.sampled_from(EDGE_FLOATS + EDGE_INTS + [math.inf, -math.inf, math.nan]) | st.floats(
    allow_nan=False, allow_infinity=False)
_ANGLES = ANY_NUMBER | st.floats(0.0, 1.5707963267948966)
ANY_RVEC = st.builds(RVec3, ANY_NUMBER, ANY_NUMBER, ANY_NUMBER)
_ANY_FLOAT = st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan]) | st.floats()
ANY_CVEC = st.builds(CVec3, *[ANY_NUMBER | st.builds(complex, _ANY_FLOAT, _ANY_FLOAT)] * 3)


# signed magnitudes from 1e-100 to 1e100, and relative tilts about the tolerance of `coplanar`
SPANNED = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), st.floats(1e-100, 1e100))
TILTS = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), st.floats(1e-13, 1e-11))


def finite_or_optikit_error(fn, *args):
    """fn(*args) raises an OptikitError, or returns finite fields equal bit for
    bit to those of the unchecked function."""
    try:
        out = fn(*args)
    except OptikitError:
        return
    fields = out if isinstance(out, tuple) else (out,)
    assert all(cmath.isfinite(c) for f in fields for c in (f.x, f.y, f.z))
    assert repr(out) == repr(fn.__wrapped__(*args))


class TestEdgeValues:
    """Each entry point returns finite values or raises an OptikitError."""

    @given(n1=ANY_NUMBER, n2=ANY_NUMBER, theta=_ANGLES)
    @example(n1=1.0, n2=10**400, theta=0.0)
    @settings(max_examples=300, deadline=None)
    def test_snell_angle(self, n1, n2, theta):
        try:
            out = snell_angle(n1, n2, theta)
        except OptikitError:
            return
        assert math.isfinite(out)

    @given(pol=st.sampled_from("sp"), n1=ANY_NUMBER, n2=ANY_NUMBER, theta=_ANGLES)
    @example(pol="s", n1=1.0, n2=10**400, theta=0.0)
    @example(pol="s", n1=1e308, n2=1.5e308, theta=0.5)
    @example(pol="p", n1=1.7e308, n2=1e308, theta=0.2)
    @settings(max_examples=300, deadline=None)
    def test_fresnel_standard(self, pol, n1, n2, theta):
        try:
            out = fresnel_standard(pol, n1, n2, theta)
        except OptikitError:
            return
        assert all(map(math.isfinite, out))

    @given(n1=ANY_NUMBER, n2=ANY_NUMBER, theta=_ANGLES)
    @example(n1=5e-324, n2=2**1024, theta=0.0)
    @example(n1=1e308, n2=1.2e308, theta=0.3)
    @settings(max_examples=300, deadline=None)
    def test_continuity_coefficients(self, n1, n2, theta):
        try:
            out = continuity_coefficients(n1, n2, theta)
        except OptikitError:
            return
        assert all(map(math.isfinite, out))

    @given(n1=ANY_NUMBER, n2=ANY_NUMBER, theta=_ANGLES, a=ANY_NUMBER)
    @settings(max_examples=300, deadline=None)
    def test_continuity_amplitude(self, n1, n2, theta, a):
        # a result or an OptikitError, never an OverflowError; the amplitude is
        # read first, as `oblique_incidence_fields` reads it
        out = outcome(continuity_coefficients, n1, n2, theta, a)
        if not 0 < read_real(a) < math.inf:
            assert out == (DomainError, f"amplitude must be positive and finite, got {read_real(a)!r}")

    @given(x=ANY_NUMBER, y=ANY_NUMBER, z=ANY_NUMBER)
    @example(x=math.nan, y=0.0, z=0.0)
    @example(x=1e200, y=0.0, z=0.0)
    @example(x=10**200, y=math.nan, z=0.0)
    @settings(max_examples=300, deadline=None)
    def test_wavelength_of(self, x, y, z):
        try:
            out = wavelength_of(RVec3(x, y, z))
        except OptikitError:
            return
        assert math.isfinite(out)

    def test_int_amplitude_beyond_double_range(self):
        with pytest.raises(DomainError, match="amplitude must be positive and finite"):
            oblique_incidence_fields(0.3, 1.0, 1.5, 2**1024, TWO_PI, TWO_PI)

    def test_int_products_beyond_double_range(self):
        # a * n1 was an exact int product that float() could not convert
        with pytest.raises(DomainError, match="fields overflow"):
            oblique_incidence_fields(0.3, 2**1023, 2**1023, 2, 1.0, 1.0)

    def test_wavelength_of_a_norm_whose_square_overflows(self):
        # |k| = 1e200 read as inf, as the squares pass the double range
        assert wavelength_of(RVec3(1e200, 0.0, 0.0)) == TWO_PI / 1e200
        assert wavelength_of(RVec3(10**200, 0, 0)) == TWO_PI / 1e200
        assert math.isclose(wavelength_of(RVec3(-1e300, 1e300, 1e300)), TWO_PI / (math.sqrt(3) * 1e300), rel_tol=1e-15)

    def test_wavelength_of_a_norm_whose_square_underflows(self):
        # |k| = 1e-200 read as 0, as the squares underflow
        assert wavelength_of(RVec3(1e-200, 0.0, 0.0)) == TWO_PI / 1e-200
        assert wavelength_of(RVec3(0.0, -3e-170, 4e-170)) == TWO_PI / 5e-170
        with pytest.raises(DomainError, match="overflows double precision"):
            wavelength_of(RVec3(5e-324, 0.0, 0.0))
        with pytest.raises(DomainError, match="zero wavevector"):
            wavelength_of(RVec3(0.0, -0.0, 0.0))

    @given(k=st.builds(RVec3, ANY_NUMBER, ANY_NUMBER, ANY_NUMBER),
           n=st.sampled_from([RVec3(0.0, 0.0, 1.0), RVec3(-1.0, 0.0, 0.0), RVec3(0, 1, 0), RVec3(0.6, 0.0, -0.8),
                              RVec3(math.sqrt(0.5), math.sqrt(0.5), 0.0), RVec3(math.nan, 0.0, 0.0),
                              RVec3(10**200, 0, 0), RVec3(2**1024, 0, 0), RVec3(0.0, math.inf, 0.0)]))
    @example(k=RVec3(math.nan, 0, 1), n=RVec3(0, 0, 1.0))
    @example(k=RVec3(1e308, 0, 1e308), n=RVec3(0, 0, 1.0))
    @example(k=RVec3(-1.7e308, 1e-300, 1.7e308), n=RVec3(0.6, 0.0, -0.8))
    @settings(max_examples=300, deadline=None)
    def test_reflect_wavevector(self, k, n):
        try:
            out = reflect_wavevector(k, n)
        except OptikitError:
            return
        assert all(map(math.isfinite, (out.x, out.y, out.z)))
        plain = k - n.scale(2.0 * k.dot(n))
        if all(map(math.isfinite, (plain.x, plain.y, plain.z))):
            assert [c.hex() for c in (out.x, out.y, out.z)] == [float(c).hex() for c in (plain.x, plain.y, plain.z)]

    def test_reflect_wavevector_reproducers(self):
        with pytest.raises(DomainError, match="wavevector must be finite"):
            reflect_wavevector(RVec3(math.nan, 0, 1), RVec3(0, 0, 1.0))
        with pytest.raises(DomainError, match="normal must be unit length"):
            reflect_wavevector(RVec3(1.0, 0, 1), RVec3(math.nan, 0, 0.0))
        # the plain form gave (nan, nan, -inf); 2 (k . n) overflowed
        assert reflect_wavevector(RVec3(1e308, 0, 1e308), RVec3(0, 0, 1.0)) == RVec3(1e308, 0.0, -1e308)
        with pytest.raises(DomainError, match="reflected wavevector overflows"):
            reflect_wavevector(RVec3(1.7e308, 0, 1.7e308), RVec3(0.6, 0.0, -0.8))

    @given(k=ANY_RVEC, e=ANY_CVEC, k0=ANY_NUMBER)
    @example(k=RVec3(math.inf, 0, 0), e=CVec3(0j, 1 + 0j, 0j), k0=1.0)
    @example(k=RVec3(2**1100, 0, 0), e=CVec3(0j, 1 + 0j, 0j), k0=1.0)
    @example(k=RVec3(1.0, 0, 0), e=CVec3(0j, 1 + 0j, 0j), k0=10**400)
    @settings(max_examples=300, deadline=None)
    def test_h_from_e(self, k, e, k0):
        finite_or_optikit_error(h_from_e, k, e, EMConstants(k0))

    @given(k=ANY_RVEC, e=ANY_CVEC, r=ANY_RVEC, t=ANY_NUMBER)
    @example(k=RVec3(1.0, 0, 0), e=CVec3(0j, 1 + 0j, 0j), r=RVec3(2**1100, 0, 0), t=0.0)
    @settings(max_examples=300, deadline=None)
    def test_eval_plane_wave(self, k, e, r, t):
        finite_or_optikit_error(eval_plane_wave, PlaneWave(k, TWO_PI, e, e), r, t)

    @given(y=ANY_NUMBER, z=ANY_NUMBER, t=ANY_NUMBER, e=st.none() | ANY_CVEC, k=st.none() | ANY_RVEC)
    @example(y=0.1, z=0.2, t=math.nan, e=None, k=None)
    @example(y=0.1, z=0.2, t=0.0, e=CVec3(0j, 1e308 + 0j, 0j), k=None)
    @settings(max_examples=300, deadline=None)
    def test_boundary_residual(self, y, z, t, e, k):
        system = example_system()
        changes = {name: value for name, value in (("E", e), ("k", k)) if value is not None}
        transmitted = replace(system.transmitted, **changes)
        side1 = (system.incident, system.reflected)
        finite_or_optikit_error(boundary_residual, side1, transmitted, system.spec, RVec3(0.0, y, z), t)

    @pytest.mark.parametrize("part", [{"reflected_E": CVec3(0j, 10**400, 0j)}, {"reflected_k": RVec3(10**400, 0, 1)},
                                      {"reflected_omega": -(10**400)}])
    def test_residual_kernel_int_parts_beyond_double_range(self, part):
        # float() of the int raised a foreign OverflowError
        with pytest.raises(DomainError, match="boundary residual is NaN"):
            max_boundary_residual(with_waves(**part), 5, 0)

    @pytest.mark.parametrize("call", [
        lambda system: max_boundary_residual(system, 5, 0),
        lambda system: next(sample_plane_points(system, 5, 0)),
    ], ids=["max_boundary_residual", "sample_plane_points"])
    @pytest.mark.parametrize("normal", [RVec3(10**400, 0, 0), RVec3(0, -(2**1024), 0), RVec3(math.nan, 0, 0),
                                        RVec3(0, 0, math.inf)], ids=["10**400", "-2**1024", "nan", "inf"])
    def test_non_finite_normal(self, call, normal):
        # an int part raised a foreign OverflowError in the tangent basis
        with pytest.raises(DomainError, match="interface normal must be finite"):
            call(with_waves(normal))

    @pytest.mark.parametrize("call", [
        lambda system: max_boundary_residual(system, 5, 0),
        lambda system: reference_max_residual(system, 5, 0),
        lambda system: next(sample_plane_points(system, 5, 0)),
    ], ids=["max_boundary_residual", "reference_max_residual", "sample_plane_points"])
    @pytest.mark.parametrize("omega", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 10**400],
                             ids=["0", "-0", "-1", "nan", "inf", "-inf", "10**400"])
    def test_incident_omega_not_positive_and_finite(self, call, omega):
        # an omega of 0 raised a foreign ZeroDivisionError in the period 2 pi / omega,
        # and a negative one drew its times over a negative duration
        with pytest.raises(DomainError, match="omega must be positive and finite"):
            call(with_waves(incident_omega=omega))

    def test_tangent_basis_of_int_normal_is_that_of_its_floats(self):
        for parts in ((1, 0, 0), (0, -1, 0), (0, 0, 1), (3, 4, 12), (2**60 + 1, 1, 0)):
            spec = example_system().spec
            ints = _plane(replace(spec, normal=RVec3(*parts)))
            floats = _plane(replace(spec, normal=RVec3(*map(float, parts))))
            assert repr(ints) == repr(floats)

    @pytest.mark.parametrize("system", [
        with_waves(reflected_k=RVec3(10**400, 0, 1)), with_waves(RVec3(10**400, 0, 0)),
        with_waves(transmitted_k=RVec3(0, 0, -(10**400))), with_waves(incident_omega=10**400),
        replace(example_system(), spec=replace(example_system().spec, n1=10**400)),
        replace(example_system(), consts=EMConstants(10**400)),
    ], ids=["reflected_k", "normal", "transmitted_k", "incident_omega", "n1", "k0"])
    def test_validator_int_parts_beyond_double_range(self, system):
        # norm(), dot(), k0 * n and the period 2 pi / omega of the int raised a foreign OverflowError
        try:
            report = validate_interface_system(system, 5, 0)
        except DomainError:
            return
        assert not report.ok

    @pytest.mark.parametrize("part", [{"normal": RVec3(math.nan, 0, 0)}, {"normal": RVec3(10**400, 0, 0)},
                                      {"incident_k": RVec3(0, math.inf, 1)}, {"reflected_k": RVec3(10**400, 0, 1)},
                                      {"transmitted_k": RVec3(math.nan, math.nan, math.nan)}],
                             ids=["nan_normal", "int_normal", "inf_incident_k", "int_reflected_k", "nan_transmitted_k"])
    def test_plane_of_incidence_of_non_finite_vectors(self, part):
        # a NaN normal read coplanar
        with pytest.raises(DomainError, match="must be finite"):
            check_plane_of_incidence(with_waves(**part))

    @given(x=ANY_NUMBER, y=ANY_NUMBER, z=ANY_NUMBER, which=st.sampled_from(["normal", "incident_k", "reflected_k"]))
    @settings(max_examples=300, deadline=None)
    def test_plane_of_incidence(self, x, y, z, which):
        try:
            verdict = check_plane_of_incidence(with_waves(**{which: RVec3(x, y, z)}))
        except OptikitError:
            assert not all(abs(c) <= sys.float_info.max for c in (x, y, z))  # NaN, inf or an int past the range
            return
        assert verdict in (True, False)

    @pytest.mark.parametrize("call", [
        lambda system: max_boundary_residual(system, 5, 0),
        lambda system: next(sample_plane_points(system, 5, 0)),
    ], ids=["max_boundary_residual", "sample_plane_points"])
    @pytest.mark.parametrize("point", [RVec3(10**400, 0, 0), RVec3(0, -(2**1024), 0), RVec3(math.nan, 0, 0),
                                       RVec3(0, 0, math.inf)], ids=["10**400", "-2**1024", "nan", "inf"])
    def test_non_finite_interface_point(self, call, point):
        # sample_plane_points yielded NaN points, or raised a foreign OverflowError for an int part
        system = example_system()
        with pytest.raises(DomainError, match="interface point must be finite"):
            call(replace(system, spec=replace(system.spec, point=point)))

    def test_points_of_an_int_interface_point_are_those_of_its_floats(self):
        system = example_system()
        ints, floats = (replace(system, spec=replace(system.spec, point=RVec3(*p))) for p in ((3, 2**60 + 1, -7),
                                                                                               (3.0, 2.0**60, -7.0)))
        assert repr(list(sample_plane_points(ints, 20, 5))) == repr(list(sample_plane_points(floats, 20, 5)))

    def test_plane_of_incidence_of_vectors_whose_products_overflow(self):
        # coplanar's triple product and its scale both overflowed to inf, and inf > 1e-12 * inf is false
        assert not check_plane_of_incidence(with_waves(reflected_k=RVec3(1e300, 1e300, 1e300)))
        assert check_plane_of_incidence(with_waves(reflected_k=RVec3(-1e300, 0.0, 1e300)))
        # at parts of 1e-200 the triple products underflowed to 0, which read coplanar
        tiny = dict(normal=RVec3(1e-200, 0.0, 0.0), incident_k=RVec3(1e-200, 0.0, 1e-200),
                    transmitted_k=RVec3(1e-200, 0.0, -1e-200))
        assert not check_plane_of_incidence(with_waves(reflected_k=RVec3(-1e-200, 1e-200, 1e-200), **tiny))
        assert check_plane_of_incidence(with_waves(reflected_k=RVec3(-1e-200, 0.0, 1e-200), **tiny))

    @given(x=SPANNED, y=st.just(0.0) | SPANNED, z=SPANNED, tilt=st.none() | TILTS,
           which=st.sampled_from(["normal", "incident_k", "reflected_k", "transmitted_k"]))
    @example(x=0.0, y=0.0, z=0.0, tilt=None, which="normal")
    @example(x=0.0, y=0.0, z=0.0, tilt=None, which="reflected_k")
    @settings(max_examples=300, deadline=None)
    def test_plane_of_incidence_verdicts_are_those_of_the_unscaled_vectors(self, x, y, z, tilt, which):
        # parts of magnitude 1e-100 to 1e100, or a zero vector: no triple product of the unscaled
        # vectors overflows or loses bits below the normal range, so the scaling keeps every verdict
        if tilt is not None:  # near the x-z plane, where the verdict turns on the tolerance
            y = x * tilt
        system = with_waves(**{which: RVec3(x, y, z)})
        vectors = [system.incident.k, system.reflected.k, system.transmitted.k, system.spec.normal]
        assert check_plane_of_incidence(system) == coplanar([RVec3(0.0, 0.0, 0.0), *vectors])

    def test_vector_entry_point_reproducers(self):
        wave = PlaneWave(RVec3(1.0, 0.0, 0.0), TWO_PI, CVec3(0j, 1 + 0j, 0j), CVec3(0j, 0j, 1 + 0j))
        with pytest.raises(DomainError, match="h_from_e: not finite"):  # returned NaN fields
            h_from_e(RVec3(math.inf, 0, 0), CVec3(0j, 1 + 0j, 0j), EMConstants(1.0))
        with pytest.raises(DomainError, match="beyond the double range"):  # raised OverflowError
            h_from_e(RVec3(2**1100, 0, 0), CVec3(0j, 1 + 0j, 0j), EMConstants(1.0))
        with pytest.raises(DomainError, match="beyond the double range"):  # raised OverflowError
            eval_plane_wave(wave, RVec3(2**1100, 0, 0), 0.0)
        system = example_system()
        # returned NaN vectors; the waves are evaluated unchecked, so the one check names boundary_residual
        with pytest.raises(DomainError, match="boundary_residual: not finite"):
            boundary_residual((system.incident, system.reflected), system.transmitted, system.spec,
                              RVec3(0.0, 0.1, 0.2), math.nan)


@_finite_fields
def checked_waves_residual(side1, side2, spec, r, t):
    """`boundary_residual` with each wave evaluated through the checked `eval_plane_wave`, the
    former route: a wave not finite raised there, before the sums and the cross with n."""
    _require_on_plane(spec, r)
    n = spec.normal.as_complex()
    e1 = h1 = CVec3(0j, 0j, 0j)
    for wave in side1:
        e, h = eval_plane_wave(wave, r, t)
        e1, h1 = e1 + e, h1 + h
    e2, h2 = eval_plane_wave(side2, r, t)
    return (n.cross(e1 - e2), n.cross(h1 - h2))


def _residual_or_error(fn, *args) -> object:
    """The parts' bits of the residual pair fn(*args), or the type of the OptikitError it raises."""
    try:
        pair = fn(*args)
    except OptikitError as exc:
        return type(exc)
    return [(c.real.hex(), c.imag.hex()) for v in pair for c in (v.x, v.y, v.z)]


class TestOneCheckPerSample:
    @given(seed=st.integers(0, 2**64))
    @settings(max_examples=500, deadline=None)
    def test_unchecked_waves_give_the_checked_outcome(self, seed):
        # worked triples with one part redrawn as the outcome digest redraws it (an edge
        # value, +-inf, NaN or an int past the double range), at plane points and times
        # that are edge values too: the one check of the result gives the bits, or the
        # exception type, of checking each wave first
        rng = random.Random(seed)
        system = oblique_incidence_fields(rng.uniform(0.0, 1.2), 1.0, rng.uniform(1.0, 2.0),
                                          rng.choice((1.0, 1e300, 6e306)), 1.0, 1.0)
        for _ in range(rng.randint(1, 2)):
            system = perturbed(rng, system)
        y, z, t = (rng.uniform(-5.0, 5.0) if rng.random() < 0.8 else real(rng) for _ in range(3))
        args = ((system.incident, system.reflected), system.transmitted, system.spec, RVec3(0.0, y, z), t)
        assert _residual_or_error(boundary_residual, *args) == _residual_or_error(checked_waves_residual, *args)


class TestResidualRoutes:
    """The scalar route against the kernel on worked triples at IEEE edge values, the
    systems the CLI's `interface` builds: the same bits, or the same exception type
    and message."""

    @given(theta=st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.5), n1=ANY_NUMBER, n2=ANY_NUMBER, a=ANY_NUMBER,
           samples=st.sampled_from([1, 5, 17, 1000]), seed=st.integers(-2**70, 2**70))
    @example(theta=0.0, n1=1.0, n2=1.0, a=sys.float_info.max, samples=5, seed=0)
    @example(theta=0.5, n1=1e308, n2=1.5e308, a=1e300, samples=5, seed=0)
    # amplitudes whose sum passes 2**1020, where the kernel forms every product
    @example(theta=0.3, n1=1.0, n2=1.5, a=6e306, samples=5, seed=0)
    # a wavelength near the double range: phases and fields that are not finite, where the
    # scalar route hands the call to the kernel for its NaN-residual DomainError
    @example(theta=0.0, n1=sys.float_info.min, n2=1.0, a=1.0, samples=1, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_worked_triples(self, theta, n1, n2, a, samples, seed):
        try:
            system = oblique_incidence_fields(theta, n1, n2, a, TWO_PI, TWO_PI)
        except OptikitError:
            return
        want = outcome(max_boundary_residual, system, samples, seed)
        assert outcome(reference_max_residual, system, samples, seed) == want


# offsets along the plane and times: moderate floats, edge floats, or ints at and past the double range
EDGE_OFFSETS = finite | _ANY_FLOAT | st.sampled_from(EDGE_INTS)


@st.composite
def tilted_specs(draw):
    """A unit normal at any tilt, or one with edge-value parts, through a moderate or an edge point."""
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI))
    normal = RVec3(math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))
    if draw(st.integers(0, 4)) == 0:
        normal = draw(ANY_RVEC)
    return InterfaceSpec(1.0, 1.5, draw(st.builds(RVec3, *[finite | finite | _ANY_FLOAT] * 3) | ANY_RVEC), normal)


@st.composite
def residual_waves(draw):
    """A wave of the worked triple at a drawn angle, as it is or with one part an edge value,
    a wave of signed zeros and ones, where a product's zero sign shows through the sum and
    the cross with n, a wave of edge-float parts, or any wave, ints past the double range
    among its parts."""
    roll = draw(st.integers(0, 6))
    if roll == 6:
        unit = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        part = st.builds(complex, unit, unit)
        return draw(st.builds(PlaneWave, st.builds(RVec3, unit, unit, unit), unit,
                              st.builds(CVec3, part, part, part), st.builds(CVec3, part, part, part)))
    if roll >= 4:
        number = ANY_NUMBER if roll == 5 else _ANY_FLOAT
        part = number | st.builds(complex, _ANY_FLOAT, _ANY_FLOAT)
        return draw(st.builds(PlaneWave, st.builds(RVec3, number, number, number), number,
                              st.builds(CVec3, part, part, part), st.builds(CVec3, part, part, part)))
    system = example_system(draw(st.floats(0.0, 80.0)), 1.0, draw(st.floats(1.0, 3.0)),
                            draw(st.sampled_from([1.0, 1e-200, 1e300, 6e306])))
    if roll >= 2:
        system = perturbed(random.Random(draw(st.integers(0, 2**32))), system)
    return getattr(system, draw(st.sampled_from(["incident", "reflected", "transmitted"])))


def _repr_or_error(fn, *args) -> object:
    """repr of fn(*args), so that signed zeros count, or the type and text of the OptikitError it raises."""
    try:
        return repr(fn(*args))
    except OptikitError as exc:
        return type(exc), str(exc)


def vector_peak(system: InterfaceSystem, samples: int, seed: int) -> object:
    """The outcome of the largest component modulus of `helpers.vector_residual` over
    `sample_plane_points`, sample by sample; the kernel's where a DomainError or an
    overflowing modulus stops it."""
    worst = 0.0
    try:
        for r, t in sample_plane_points(system, samples, seed):
            for field in vector_residual((system.incident, system.reflected), system.transmitted, system.spec, r, t):
                worst = max(worst, abs(field.x), abs(field.y), abs(field.z))
    except OffPlanePoint as exc:
        return type(exc), str(exc)
    except (DomainError, OverflowError):
        return outcome(max_boundary_residual, system, samples, seed)
    return bits(worst)


class TestVectorForm:
    """`boundary_residual` and the scalar route, which form the residual in complex locals,
    against `helpers.vector_residual`, the same formula in `CVec3` algebra: the same
    bits, signed zeros included, or the same exception type and message."""

    @given(side1=st.lists(residual_waves(), max_size=3), side2=residual_waves(), spec=tilted_specs(),
           u=EDGE_OFFSETS, v=EDGE_OFFSETS, t=EDGE_OFFSETS, off_plane=st.none() | ANY_RVEC)
    @example(side1=[], side2=sample_wave(), spec=InterfaceSpec(1.0, 1.5, RVec3(0.0, 0.0, 0.0), RVec3(1.0, 0.0, 0.0)),
             u=0.0, v=0.0, t=0.0, off_plane=None)
    # at k = -0, r = 0 and t = 0 the phase is 1 + 0j, and the y part (-0 + 1j) of E and H gives a
    # product (-0 + 1j), which the sum from 0j makes +0 in its real part, and the cross with
    # n = (1, 0, 0) keeps in the z part of each residual
    @example(side1=[PlaneWave(RVec3(-0.0, -0.0, -0.0), 1.0, CVec3(0j, complex(-0.0, 1.0), 0j),
                              CVec3(0j, complex(-0.0, 1.0), 0j))],
             side2=PlaneWave(RVec3(-0.0, -0.0, -0.0), 1.0, CVec3(0j, 0j, 0j), CVec3(0j, 0j, 0j)),
             spec=InterfaceSpec(1.0, 1.5, RVec3(0.0, 0.0, 0.0), RVec3(1.0, 0.0, 0.0)), u=0.0, v=0.0, t=0.0,
             off_plane=None)
    @settings(max_examples=400, deadline=None)
    def test_boundary_residual(self, side1, side2, spec, u, v, t, off_plane):
        # a drawn point, or the plane's point moved by u and v along its tangents, which leave
        # the plane where |n| is not 1
        r = spec.point if off_plane is None else off_plane
        with contextlib.suppress(DomainError):  # a point or normal not finite: the plane's point
            if off_plane is None:
                _, _, t1, t2 = _plane(spec)
                r = spec.point + t1.scale(read_real(u)) + t2.scale(read_real(v))
        args = (side1, side2, spec, r, t)
        assert _repr_or_error(boundary_residual, *args) == _repr_or_error(vector_residual, *args)

    @given(theta=st.floats(0.0, 1.5), n2=st.floats(1.0, 3.0), a=st.sampled_from([1.0, 1e-200, 1e300, 6e306]),
           spec=st.none() | tilted_specs(), other=st.none() | residual_waves(), samples=st.integers(1, 20),
           seed=st.integers(0, 2**64))
    @example(theta=0.5, n2=1.5, a=1.0, spec=None, other=None, samples=5, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_reference_max_residual(self, theta, n2, a, spec, other, samples, seed):
        # the worked triple with 0-2 parts redrawn as the outcome digest redraws them, a wave
        # replaced by a drawn one or not, at its own plane or a tilted one
        rng = random.Random(seed)
        system = oblique_incidence_fields(theta, 1.0, n2, a, 1.0, 1.0)
        for _ in range(rng.randint(0, 2)):
            system = perturbed(rng, system)
        if other is not None:
            system = replace(system, **{rng.choice(("incident", "reflected", "transmitted")): other})
        if spec is not None:
            system = replace(system, spec=spec)
        assert outcome(reference_max_residual, system, samples, seed) == vector_peak(system, samples, seed)

    @given(theta=st.floats(0.0, 1.5), n2=st.floats(1.0, 3.0), samples=st.integers(1, 40),
           seed=st.integers(0, 2**32),
           z=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0).filter(lambda z: abs(z - 1.0) > 0.1))
    @settings(max_examples=100, deadline=None)
    def test_worked_triples_at_a_tilted_plane(self, theta, n2, samples, seed, z):
        # the worked triple with its transmitted wave scaled by z != 1, so the residual is O(1),
        # at a plane that the waves do not match: the samples give nonzero parts
        system = oblique_incidence_fields(theta, 1.0, n2, 1.0, TWO_PI, TWO_PI)
        tr = system.transmitted
        system = replace(system, transmitted=replace(tr, E=tr.E.scale(z), H=tr.H.scale(z)),
                         spec=replace(system.spec, point=RVec3(0.5, -1.0, 2.0), normal=RVec3(0.6, 0.0, 0.8)))
        want = vector_peak(system, samples, seed)
        assert outcome(reference_max_residual, system, samples, seed) == want
        assert want[0] is float and float.fromhex(want[1]) > 0
