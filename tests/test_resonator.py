import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mat_close, mat_pow_iterative
from optikit.core import Mat2, mat2_apply, sylvester_power
from optikit.errors import DomainError, InvalidResonator, NonUnimodular, OptikitError
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    Plane,
    RayState,
    Spherical,
    system_composition,
)
from optikit.resonator import (
    Resonator,
    fp_resonator,
    ray_bound_oracle,
    round_trip_matrix,
    stability,
    stability_from_matrix,
    unfold_resonator,
    validate_resonator,
)


class TestFpConstructor:
    def test_valid_cavity(self):
        res = fp_resonator(1.0, 0.5, 1.0)
        assert res.space == FreeSpace(1.0, 0.5)
        assert res.inner == ()
        assert res.left == Spherical(1.0) and res.right == Spherical(1.0)

    def test_zero_radius_rejected(self):
        with pytest.raises(InvalidResonator):
            fp_resonator(0.0, 0.5, 1.0)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidResonator):
            fp_resonator(1.0, 0.5, -1.0)

    @pytest.mark.parametrize("r, d, n", [(math.nan, 0.5, 1.0), (1.0, math.inf, 1.0), (1.0, 0.5, math.inf)])
    def test_nonfinite_parameters_rejected(self, r, d, n):
        with pytest.raises(InvalidResonator, match="finite"):
            fp_resonator(r, d, n)


class TestUnfold:
    def test_single_round_trip_components(self):
        sys = unfold_resonator(fp_resonator(1.0, 0.5, 1.0), 1)
        expected = OpticalComponent(
            FreeSpace(1.0, 0.5), Spherical(1.0), InterfaceKind.REFLECTED
        )
        assert sys.components == (expected, expected)
        assert sys.terminal == FreeSpace(1.0, 0.0)

    def test_two_trips_square_the_matrix(self):
        res = fp_resonator(1.0, 0.5, 1.0)
        m1 = system_composition(unfold_resonator(res, 1))
        m2 = system_composition(unfold_resonator(res, 2))
        assert mat_close(m2, mat_pow_iterative(m1, 2), 1e-12)

    def test_three_trips_match_closed_form_power(self):
        res = fp_resonator(1.0, 0.5, 1.0)
        m1 = system_composition(unfold_resonator(res, 1))
        m3 = system_composition(unfold_resonator(res, 3))
        assert mat_close(m3, sylvester_power(m1, 3), 1e-12)

    def test_needs_at_least_one_trip(self):
        with pytest.raises(InvalidResonator):
            unfold_resonator(fp_resonator(1.0, 0.5, 1.0), 0)

    def test_round_trip_det_is_one_with_mixed_media_inside(self):
        # a transmitted element inside the cavity is crossed once with n0/n1
        # and once with n1/n0, so the determinant telescopes back to 1
        inner = (
            OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.3), InterfaceKind.TRANSMITTED),
            OpticalComponent(FreeSpace(1.7, 0.05), Spherical(-0.8), InterfaceKind.TRANSMITTED),
        )
        res = Resonator(Spherical(1.0), inner, FreeSpace(1.4, 0.2), Spherical(1.0))
        m = round_trip_matrix(res)
        assert math.isclose(m.det(), 1.0, rel_tol=1e-12)


class TestViolationLabels:
    """Each resonator element is named in its violation; none reads "terminal free space"."""

    LENS = OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.5), InterfaceKind.TRANSMITTED)

    @pytest.mark.parametrize(
        "res, index, text",
        [
            (Resonator(Spherical(0.0), (), FreeSpace(1.0, 0.5), Spherical(1.0)),
             "left mirror", "left mirror: violates R != 0 (spherical interface with R = 0)"),
            (Resonator(Spherical(1.0), (), FreeSpace(1.0, 0.5), Spherical(math.inf)),
             "right mirror", "right mirror: violates R finite (R = inf)"),
            (Resonator(Plane(), (), FreeSpace(-1.0, 0.5), Plane()),
             "cavity space", "cavity space: violates 0 < n (n = -1.0)"),
            (Resonator(Plane(), (LENS, OpticalComponent(FreeSpace(1.0, -2.0), Plane(),
                                                        InterfaceKind.TRANSMITTED)),
                       FreeSpace(1.0, 0.5), Plane()),
             1, "component 1: violates 0 <= d (d = -2.0)"),
        ],
    )
    def test_label(self, res, index, text):
        report = validate_resonator(res)
        assert [v.index for v in report.violations] == [index]
        assert str(report) == text
        with pytest.raises(InvalidResonator) as exc:
            stability(res)
        assert str(exc.value) == text

    def test_labels_in_element_order(self):
        res = Resonator(Spherical(0.0), (self.LENS,), FreeSpace(0.0, 0.5), Spherical(0.0))
        assert [v.index for v in validate_resonator(res).violations] == [
            "left mirror", "cavity space", "right mirror"]


class TestStability:
    def test_short_cavity_stable(self):
        v = stability(fp_resonator(1.0, 0.5, 1.0))
        assert math.isclose(v.half_trace, -0.5, abs_tol=1e-15)
        assert v.stable and not v.marginal
        assert v.verdict == "stable"

    def test_long_cavity_unstable(self):
        v = stability(fp_resonator(1.0, 2.5, 1.0))
        assert math.isclose(v.half_trace, 3.5, abs_tol=1e-12)
        assert not v.stable and v.verdict == "unstable"

    def test_boundary_cavity_marginal(self):
        v = stability(fp_resonator(1.0, 1.0, 1.0))
        assert math.isclose(v.half_trace, -1.0, abs_tol=1e-12)
        assert v.marginal and not v.stable
        assert v.verdict == "marginal"

    def test_far_boundary_marginal(self):
        v = stability(fp_resonator(1.0, 2.0, 1.0))
        assert math.isclose(v.half_trace, 1.0, abs_tol=1e-12)
        assert v.marginal and not v.stable

    def test_half_trace_closed_form(self):
        rng = random.Random(6)
        for _ in range(200):
            r = rng.choice([1.0, -1.0]) * rng.uniform(0.05, 5.0)
            d = rng.uniform(0.0, 3.0 * abs(r))
            v = stability(fp_resonator(r, d, rng.uniform(1.0, 2.0)))
            expected = 2.0 * (1.0 - d / r) ** 2 - 1.0
            assert abs(v.half_trace - expected) <= 1e-12 * max(1.0, abs(expected))
            assert abs(v.det - 1.0) <= 1e-12

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            stability_from_matrix(Mat2(2.0, 0.0, 0.0, 1.0))

    def test_nan_determinant_rejected(self):
        with pytest.raises(NonUnimodular):
            stability_from_matrix(Mat2(math.nan, 0.0, 0.0, 1.0))


class TestOracle:
    def test_axis_ray(self):
        out = ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(0.0, 0.0), 100)
        assert out.max_y == 0.0 and out.max_theta == 0.0 and not out.diverged

    def test_stable_cavity_bounded(self):
        out = ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(1e-3, 0.0), 1000)
        assert not out.diverged
        assert out.max_y < 1.0

    def test_unstable_cavity_diverges(self):
        out = ray_bound_oracle(fp_resonator(1.0, 2.5, 1.0), RayState(1e-3, 0.0), 200)
        assert out.diverged

    def test_agrees_with_criterion(self):
        rng = random.Random(8)
        for _ in range(200):
            r = rng.uniform(0.2, 2.0)
            d = rng.uniform(1e-3, 3.0) * r
            res = fp_resonator(r, d, 1.0)
            v = stability(res)
            if abs(abs(v.half_trace) - 1.0) <= 1e-6:
                continue
            out = ray_bound_oracle(res, RayState(1e-3, 0.0), 1000)
            if v.stable:
                assert not out.diverged
            elif v.half_trace > 1.0:
                assert out.diverged

    def test_matrix_power_consistency_while_stable(self):
        rng = random.Random(13)
        for _ in range(50):
            r = rng.uniform(0.2, 2.0)
            d = rng.uniform(0.05, 1.95) * r
            if abs(d - r) < 1e-3 * r:
                continue
            res = fp_resonator(r, d, 1.0)
            m1 = round_trip_matrix(res)
            n = rng.choice([2, 10, 50, 100])
            unfolded = system_composition(unfold_resonator(res, n))
            assert mat_close(unfolded, sylvester_power(m1, n), 1e-9)


class TestOracleFiniteContract:
    """The oracle returns finite maxima or an honest divergence, or raises."""

    @pytest.mark.parametrize(
        "y, theta",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
         (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf)],
    )
    def test_nonfinite_source_rejected(self, y, theta):
        with pytest.raises(DomainError, match="source ray must be finite"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(y, theta), 100)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_divergence_factor_rejected(self, factor):
        with pytest.raises(DomainError, match="divergence limit"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(1e-3, 0.0), 100, factor)

    def test_limit_overflow_rejected(self):
        # 1e9 * (1e300 + 1) is inf, and nothing compares above inf
        with pytest.raises(DomainError, match="divergence limit"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(1e300, 0.0), 100)

    def test_overflow_to_nan_rejected(self):
        # a21*y and a22*theta overflow to +inf and -inf, so theta becomes NaN
        # while both maxima stay at the finite source scale
        res = fp_resonator(1e-10, 1.0, 1.0)
        with pytest.raises(DomainError, match="overflowed"):
            ray_bound_oracle(res, RayState(1e290, -1e290), 5)

    _edges = st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e290,
         -1e290, 1e308, -1e308, 1.7976931348623157e308)
    )
    _coords = st.one_of(_edges, st.floats(allow_nan=False, allow_infinity=False))
    _radii = st.one_of(
        st.sampled_from((1.0, -1.0, 1e-10, -1e-10, 1e10)),
        st.floats(-1e3, 1e3).filter(lambda r: r != 0),
    )

    @given(r=_radii, d=st.floats(0.0, 1e3), y=_coords, theta=_coords, n_max=st.integers(1, 60))
    @settings(max_examples=400, deadline=None)
    def test_finite_or_honest_or_raises(self, r, d, y, theta, n_max):
        try:
            res = fp_resonator(r, d, 1.0)
            out = ray_bound_oracle(res, RayState(y, theta), n_max)
        except OptikitError:
            return
        limit = 1e9 * (max(abs(y), abs(theta)) + 1.0)
        if out.diverged:
            assert max(out.max_y, out.max_theta) > limit
            return
        # "not diverged" must mean every visited state was finite and in bounds
        m = round_trip_matrix(res)
        v = (y, theta)
        for _ in range(n_max):
            v = mat2_apply(m, v)
            assert all(math.isfinite(c) and abs(c) <= limit for c in v), v
        assert math.isfinite(out.max_y) and math.isfinite(out.max_theta)
