import copy
import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    EDGE_FLOATS,
    EDGE_INTS,
    mat_close,
    mat_pow_iterative,
    outcome,
    random_system,
    replace,
    unfold_resonator,
)
from optikit.core import Mat2, mat2_apply, mat2_mul, sylvester_power
from optikit.errors import DomainError, InvalidResonator, InvalidSystem, NonUnimodular, OptikitError
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    RayState,
    Spherical,
    system_composition,
    trace_ray,
    validate_system,
)
from optikit.resonator import (
    OracleResult,
    Resonator,
    StabilityVerdict,
    fp_resonator,
    ray_bound_oracle,
    round_trip_matrix,
    stability,
    stability_from_matrix,
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

    @pytest.mark.parametrize("n_max", [2.5, 3.0, math.nan, "3", None])
    def test_trip_count_must_be_an_integer(self, n_max):
        # 2.5 let TypeError out of range()
        with pytest.raises(InvalidResonator, match="round trips must be an integer count"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(1e-3, 0.0), n_max)

    def test_needs_at_least_one_trip(self):
        with pytest.raises(InvalidResonator, match="need at least one round trip, got 0"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(1e-3, 0.0), 0)

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


class TestReturnLeg:
    """On the way back a transmitted spherical inner interface is seen from behind,
    so the return leg crosses it with radius -R; reflecting ones keep their R."""

    @pytest.mark.parametrize("n", [1.5, 2.4])
    @pytest.mark.parametrize("f", [0.1, 0.35, -0.1, -0.4])
    @pytest.mark.parametrize("d", [0.02, 0.05, 0.15, 0.3, 1.0])
    def test_thin_lens_between_plane_mirrors(self, d, f, n):
        # a thin lens of focal length f, from (n - 1)(1/r + 1/r) = 1/f, a distance d from
        # each plane mirror: the round trip is [[1 - d/f, 2d - d^2/f], [-1/f, 1 - d/f]]^2
        r, t = 2.0 * (n - 1.0) * f, InterfaceKind.TRANSMITTED
        lens = (OpticalComponent(FreeSpace(1.0, d), Spherical(r), t),
                OpticalComponent(FreeSpace(n, 0.0), Spherical(-r), t))
        res = Resonator(Plane(), lens, FreeSpace(1.0, d), Plane())
        half = Mat2(1.0 - d / f, 2.0 * d - d * d / f, -1.0 / f, 1.0 - d / f)
        assert mat_close(round_trip_matrix(res), mat2_mul(half, half), 1e-12)
        assert math.isclose(stability(res).half_trace, 2.0 * (1.0 - d / f) ** 2 - 1.0, abs_tol=1e-12)

    def test_biconvex_lens_cavity_is_stable(self):
        t = InterfaceKind.TRANSMITTED
        lens = (OpticalComponent(FreeSpace(1.0, 0.15), Spherical(0.1), t),
                OpticalComponent(FreeSpace(1.5, 0.0), Spherical(-0.1), t))
        verdict = stability(Resonator(Plane(), lens, FreeSpace(1.0, 0.15), Plane()))
        assert math.isclose(verdict.half_trace, -0.5, abs_tol=1e-12) and verdict.verdict == "stable"

    def test_return_leg_interfaces(self):
        t, r = InterfaceKind.TRANSMITTED, InterfaceKind.REFLECTED
        inner = (OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.3), t),
                 OpticalComponent(FreeSpace(1.7, 0.05), Spherical(-0.8), r),
                 OpticalComponent(FreeSpace(1.2, 0.05), Plane(), t))
        res = Resonator(Spherical(1.0), inner, FreeSpace(1.4, 0.2), Spherical(2.0))
        trip = unfold_resonator(res, 1).components
        assert [(c.iface, c.kind) for c in trip] == [
            (Spherical(0.3), t), (Spherical(-0.8), r), (Plane(), t), (Spherical(2.0), r),
            (Plane(), t), (Spherical(-0.8), r), (Spherical(-0.3), t), (Spherical(1.0), r),
        ]
        assert math.isclose(round_trip_matrix(res).det(), 1.0, rel_tol=1e-12)


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


class TestSlotTypes:
    """An element of another type than its slot takes is a violation of that
    slot, so the entry points raise InvalidSystem or InvalidResonator: a string
    kind is not read as a reflection, and no foreign exception escapes."""

    T = InterfaceKind.TRANSMITTED
    SYSTEM = OpticalSystem((OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.5), T),), FreeSpace(1.5, 0.2))
    RESONATOR = Resonator(Plane(), SYSTEM.components, FreeSpace(1.5, 0.2), Spherical(1.0))
    FOREIGN = ("transmitted", None, 1.0, Plane(), Spherical(1.0), FreeSpace(1.0, 0.1), T, SYSTEM.components[0])

    @pytest.mark.parametrize(
        "value, text",
        [
            (OpticalSystem((OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.5), "transmitted"),), FreeSpace(1.0, 0.0)),
             "component 0: violates type InterfaceKind (got 'transmitted')"),
            (Resonator("mirror", (), FreeSpace(1.0, 0.5), Spherical(1.0)),
             "left mirror: violates type Plane or Spherical (got 'mirror')"),
            (Resonator(Spherical(1.0), (), Plane(), Spherical(1.0)),
             "cavity space: violates type FreeSpace (got Plane())"),
            # a container that is not a tuple or list, and an entry that is not a component
            (OpticalSystem(((FreeSpace(1.0, 0.1), Plane(), T),), FreeSpace(1.0, 0.1)),
             "component 0: violates type OpticalComponent (got (FreeSpace(n=1.0, d=0.1), Plane(), "
             "<InterfaceKind.TRANSMITTED: 'transmitted'>))"),
            (Resonator(Plane(), None, FreeSpace(1.0, 0.5), Spherical(1.0)),
             "inner components: violates type tuple or list (got None)"),
            (OpticalSystem(None, FreeSpace(1.0, 0.1)), "components: violates type tuple or list (got None)"),
            # a field that is not a real number
            (OpticalSystem((), FreeSpace("1.5", 0.0)),
             "terminal free space: violates type real (got FreeSpace(n='1.5', d=0.0))"),
            (OpticalSystem((OpticalComponent(FreeSpace(1.0, 1j), Spherical(0.5), T),), FreeSpace(1.0, 0.1)),
             "component 0: violates type real (got FreeSpace(n=1.0, d=1j))"),
            (Resonator(Spherical(None), (), FreeSpace(1.0, 0.5), Spherical(1.0)),
             "left mirror: violates type real (got Spherical(radius=None))"),
            (Resonator(Plane(), (), FreeSpace(1.0, 0.5), Spherical(Decimal("0.5"))),
             "right mirror: violates type real (got Spherical(radius=Decimal('0.5')))"),
        ],
    )
    def test_wrong_type_is_reported(self, value, text):
        system = isinstance(value, OpticalSystem)
        validate, entry, error = ((validate_system, system_composition, InvalidSystem) if system
                                  else (validate_resonator, stability, InvalidResonator))
        assert str(validate(value)) == text
        with pytest.raises(error) as exc:
            entry(value)
        assert str(exc.value) == text

    def _cases(self):
        """(value with one slot holding a foreign value, the violation's index, the slot's types)."""
        comp, sys_, res = self.SYSTEM.components[0], self.SYSTEM, self.RESONATOR
        space, iface = (FreeSpace,), (Plane, Spherical)
        for x in self.FOREIGN:
            for slot, types in (("space", space), ("iface", iface), ("kind", (InterfaceKind,))):
                if not isinstance(x, types):
                    changed = (replace(comp, **{slot: x}),)
                    yield OpticalSystem(changed, sys_.terminal), 0, types
                    yield Resonator(res.left, changed, res.space, res.right), 0, types
            if not isinstance(x, space):
                yield OpticalSystem(sys_.components, x), None, space
                yield Resonator(res.left, res.inner, x, res.right), "cavity space", space
            if not isinstance(x, iface):
                yield Resonator(x, res.inner, res.space, res.right), "left mirror", iface
                yield Resonator(res.left, res.inner, res.space, x), "right mirror", iface

    NON_REAL = st.sampled_from(["1.5", "inf", 1j, complex(1.5, 0.0), None, Decimal("1.5"), [1.0], b"1", (1.0,)]) \
        | st.text(max_size=3) | st.complex_numbers(max_magnitude=1e3)
    NON_COMPONENT = st.sampled_from([None, "transmitted", 1.0, (), Plane(), FreeSpace(1.0, 0.1), T]) \
        | st.tuples(st.just(FreeSpace(1.0, 0.1)), st.just(Plane()), st.just(T))
    NON_SEQUENCE = st.sampled_from([None, 0, 1.5, "abc", {}, set(), frozenset(), range(2), b""])

    @given(seed=st.integers(0, 2**32), as_resonator=st.booleans(), where=st.integers(0, 10**6),
           what=st.sampled_from(["field", "entry", "container"]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_non_real_field_or_non_component_is_a_violation(self, seed, as_resonator, where, what, data):
        system = random_system(random.Random(seed))
        comps, end = list(system.components), system.terminal
        ends = [Spherical(0.7), end, Plane()] if as_resonator else [end]
        labels = ["left mirror", "cavity space", "right mirror"] if as_resonator else [None]
        if what == "field":
            # one free space or sphere, in a component or at an end, gets a non-real field
            slots = [(i, slot) for i in range(len(comps)) for slot in ("space", "iface")
                     if slot == "space" or isinstance(comps[i].iface, Spherical)]
            slots += [(label, k) for k, label in enumerate(labels) if not isinstance(ends[k], Plane)]
            index, slot = slots[where % len(slots)]
            element = getattr(comps[index], slot) if isinstance(index, int) else ends[slot]
            key = element.__slots__[where % len(element.__slots__)]
            changed = replace(element, **{key: data.draw(self.NON_REAL)})
            if isinstance(index, int):
                comps[index] = replace(comps[index], **{slot: changed})
            else:
                ends[slot] = changed
            clause, text = "type real", f"got {changed!r}"
        elif what == "entry" and comps:
            index = where % len(comps)
            comps[index] = data.draw(self.NON_COMPONENT)
            clause, text = "type OpticalComponent", f"got {comps[index]!r}"
        else:
            index, comps = ("inner components" if as_resonator else "components"), data.draw(self.NON_SEQUENCE)
            clause, text = "type tuple or list", f"got {comps!r}"
        value = Resonator(ends[0], comps, ends[1], ends[2]) if as_resonator else OpticalSystem(comps, ends[0])
        report = (validate_resonator if as_resonator else validate_system)(value)
        assert [(v.index, v.clause, v.detail) for v in report.violations] == [(index, clause, text)]
        calls = _resonator_calls(RayState(1e-3, 0.0), 5) if as_resonator else [
            system_composition, lambda v: trace_ray(v, RayState(0.0, 0.0))]
        for call in calls:
            with pytest.raises(InvalidResonator if as_resonator else InvalidSystem, match=f"violates {clause}"):
                call(value)

    @pytest.mark.parametrize("real", [Fraction(3, 2), 3, True, 10**400])
    def test_real_that_is_not_a_float_keeps_its_clauses(self, real):
        # a `numbers.Real` is read as before; an int past the double range as +inf
        system = OpticalSystem((OpticalComponent(FreeSpace(real, 0.1), Spherical(real), self.T),), FreeSpace(1.0, real))
        report = validate_system(system)
        if real == 10**400:
            assert [v.clause for v in report.violations] == ["n finite", "R finite", "d finite"]
        else:
            assert report.ok and system_composition(system) == system_composition(
                OpticalSystem((OpticalComponent(FreeSpace(float(real), 0.1), Spherical(float(real)), self.T),),
                              FreeSpace(1.0, float(real))))

    def test_every_slot(self):
        cases = list(self._cases())
        # per foreign value of 8: a component's space (7 values), interface (6) and
        # kind (7), in a system and a resonator; the end spaces (7); the mirrors (6, 6)
        assert len(cases) == 2 * (7 + 6 + 7) + 2 * 7 + 2 * 6
        for value, index, types in cases:
            system = isinstance(value, OpticalSystem)
            clause = "type " + " or ".join(t.__name__ for t in types)
            report = (validate_system if system else validate_resonator)(value)
            assert [(v.index, v.clause) for v in report.violations] == [(index, clause)]
            calls = ([system_composition, lambda v: trace_ray(v, RayState(0.0, 0.0))] if system
                     else _resonator_calls(RayState(1e-3, 0.0), 5))
            for call in calls:
                with pytest.raises(InvalidSystem if system else InvalidResonator, match=f"violates {clause}"):
                    call(value)


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

    @pytest.mark.parametrize("m", [Mat2(10**400, 0, 0, 1), Mat2(10**400, 1, 10**400 - 1, 1),
                                   Mat2(2**1023, 0, 0, 2**1023)], ids=["a11", "exact-det-1", "det-2**2046"])
    def test_int_entry_beyond_double_range_rejected(self, m):
        # each raised OverflowError, from abs(det - 1.0) or the half-trace: the
        # second's exact int det is 1, and the third's is 2**2046; the entries
        # are read as floats, an int beyond the double range as an infinity
        with pytest.raises(NonUnimodular):
            stability_from_matrix(m)

    def test_int_entries_give_float_verdicts(self):
        v = stability_from_matrix(Mat2(1, 0, 0, 1))
        assert (type(v.det), type(v.half_trace)) == (float, float) and v.marginal


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

    def test_int_beyond_double_range_rejected(self):
        with pytest.raises(DomainError, match="source ray must be finite"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(10**400, 0.0), 5)
        with pytest.raises(DomainError, match="divergence limit"):
            ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(0.0, 0.0), 5, 10**400)
        with pytest.raises(InvalidResonator, match="R finite"):
            fp_resonator(10**400, 1.0, 1.0)
        with pytest.raises(InvalidResonator, match="R finite"):
            stability(Resonator(Spherical(10**400), (), FreeSpace(1.0, 1.0), Spherical(10**400)))

    def test_int_source_gives_float_maxima(self):
        out = ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(0, 0), 3)
        assert (type(out.max_y), type(out.max_theta)) == (float, float)

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


EDGE_OR_FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = EDGE_OR_FINITE | st.sampled_from((math.inf, -math.inf, math.nan))
ANY_NUMBER = ANY_FLOAT | st.sampled_from(EDGE_INTS)


def reference_oracle(res, source, n_max, divergence_factor=1e9):
    """`ray_bound_oracle` stepped with `mat2_apply` and builtin `max`."""
    if n_max < 1:
        raise InvalidResonator(f"need at least one round trip, got {n_max}")
    # a coordinate beyond the double range, an int, reads as a signed infinity
    v = tuple(float(x) if abs(x) <= sys.float_info.max else math.inf if x > 0 else -math.inf for x in source.as_pair())
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise DomainError(f"source ray must be finite, got y={v[0]!r}, theta={v[1]!r}")
    limit = divergence_factor * (max(abs(v[0]), abs(v[1])) + 1.0)
    if not 0.0 < limit < math.inf:
        raise DomainError(f"divergence limit must be positive and finite, got {limit!r}")
    m = round_trip_matrix(res)
    max_y, max_theta = abs(v[0]), abs(v[1])
    diverged = False
    for _ in range(n_max):
        v = mat2_apply(m, v)
        max_y = max(max_y, abs(v[0]))
        max_theta = max(max_theta, abs(v[1]))
        if max_y > limit or max_theta > limit:
            diverged = True
            break
    if not diverged and not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise DomainError("ray state overflowed double precision within the divergence limit")
    return OracleResult(max_y=max_y, max_theta=max_theta, diverged=diverged)


def _outcome(oracle, *args):
    """Type and bits of each maximum and the flag, or the exception's type and text."""
    try:
        out = oracle(*args)
    except OptikitError as exc:
        return type(exc), str(exc)
    return [(type(x), float(x).hex()) for x in (out.max_y, out.max_theta)], out.diverged


_radius = st.sampled_from((1.0, -1.0, 0.5, 2.0, 1e-10, -1e-10, 1e10)) | st.floats(-1e3, 1e3).filter(bool)
_iface = st.just(Plane()) | _radius.map(Spherical)
_space = st.builds(FreeSpace, st.just(1.0) | st.floats(1.0, 2.0), st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1e3))
_component = st.builds(OpticalComponent, _space, _iface, st.sampled_from(InterfaceKind))
# two mirrors, or 1-4 inner components of either kind
_resonators = st.builds(
    Resonator, _iface, st.just(()) | st.lists(_component, min_size=1, max_size=4).map(tuple), _space, _iface
)
# small integers make a source whose maxima are float copies of ints unless a
# step exceeds them; ints beyond the double range make no float at all
_ints = st.integers(-3, 3) | st.sampled_from(EDGE_INTS)
_sources = st.builds(RayState, EDGE_OR_FINITE | _ints, EDGE_OR_FINITE | _ints)
_factors = st.sampled_from((1e9, 1e-3, 0.5, 1.0, 2.0)) | st.floats(1e-6, 1e12)


def _plane_cavity(d: float) -> Resonator:
    """Two plane mirrors d apart: the round trip is [[1, 2d], [0, 1]]."""
    return Resonator(Plane(), (), FreeSpace(1.0, d), Plane())


_T, _R = InterfaceKind.TRANSMITTED, InterfaceKind.REFLECTED
# a biconvex lens in air between plane mirrors, and inner interfaces of every
# kind between unequal indices
_BICONVEX = Resonator(Plane(), (OpticalComponent(FreeSpace(1.0, 0.15), Spherical(0.1), _T),
                                OpticalComponent(FreeSpace(1.5, 0.0), Spherical(-0.1), _T)), FreeSpace(1.0, 0.15), Plane())
_MIXED = Resonator(Spherical(1.0), (OpticalComponent(FreeSpace(1.0, 0.1), Spherical(0.3), _T),
                                    OpticalComponent(FreeSpace(1.7, 0.05), Spherical(-0.8), _R),
                                    OpticalComponent(FreeSpace(1.2, 0.05), Plane(), _T)),
                   FreeSpace(1.4, 0.2), Spherical(2.0))


# valid resonators with edge values: int indices and radii within the double
# range, matched indices (a signed-zero C on the way back), and tiny indices and
# radii whose product n1 * R underflows to 0 and takes the two-step division
_edge_radius = st.sampled_from((1, -2, 10**300, -(10**300), 0.3, 1e-170, -1e-170, 1e-304, -1e-304))
_edge_iface = st.just(Plane()) | _edge_radius.map(Spherical)
_edge_space = st.builds(FreeSpace, st.sampled_from((1, 2, 10**300, 1.5, 1e-170, 1e-20, 1e-19)), st.sampled_from((0, 0.1, 2)))
_edge_valued = st.builds(
    Resonator, _edge_iface,
    st.lists(st.builds(OpticalComponent, _edge_space, _edge_iface, st.sampled_from(InterfaceKind)), max_size=4).map(tuple),
    _edge_space, _edge_iface,
)


class TestIndependentRoundTrip:
    """`round_trip_matrix` is the composition of one round trip unfolded by
    `helpers.unfold_resonator`, written from the rule in `resonator`'s
    docstring, bit for bit, or the same error."""

    @given(res=_resonators)
    @example(res=_BICONVEX)
    @example(res=_MIXED)
    @example(res=Resonator(Plane(), (OpticalComponent(FreeSpace(1.0, 0.1), Plane(), _T),), FreeSpace(1.5, 0.2), Plane()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_unfolded_composition(self, res):
        assert outcome(round_trip_matrix, res) == outcome(lambda res: system_composition(unfold_resonator(res, 1)), res)

    @given(res=_edge_valued)
    # int indices and radii within the double range; 10**300 * 10**300 makes no float
    @example(res=Resonator(Spherical(3), (OpticalComponent(FreeSpace(1, 0), Spherical(2), _T),
                                          OpticalComponent(FreeSpace(2, 1), Spherical(-2), _T),
                                          OpticalComponent(FreeSpace(3, 0), Spherical(10**300), _T)),
                           FreeSpace(10**300, 3), Spherical(-(10**300))))
    # matched indices: the return leg's C is -0.0 where the way in's is 0.0
    @example(res=Resonator(Plane(), (OpticalComponent(FreeSpace(1.5, 0.1), Spherical(0.3), _T),), FreeSpace(1.5, 0.2),
                           Spherical(1.0)))
    # n1 * R is 1e-323 on the way in and underflows to 0 on the way back only
    @example(res=Resonator(Plane(), (OpticalComponent(FreeSpace(1e-20, 0.0), Spherical(1e-304), _T),
                                     OpticalComponent(FreeSpace(1e-19, 0.0), Plane(), _T)), FreeSpace(1e-19, 0.0), Plane()))
    @settings(max_examples=300, deadline=None)
    def test_edge_values_equal_the_unfolded_composition(self, res):
        assert outcome(round_trip_matrix, res) == outcome(lambda res: system_composition(unfold_resonator(res, 1)), res)


class TestOracleDifferential:
    """The oracle equals `mat2_apply` stepping with builtin `max`, bit for bit."""

    @given(res=_resonators, source=_sources, n_max=st.integers(1, 2000), factor=_factors)
    @example(res=fp_resonator(1.0, 0.5, 1.0), source=RayState(0, 0), n_max=3, factor=1e9)
    @example(res=fp_resonator(1e-10, 1.0, 1.0), source=RayState(1e290, -1e290), n_max=5, factor=1e9)
    @example(res=fp_resonator(1.0, 2.5, 1.0), source=RayState(1e-3, 0.0), n_max=200, factor=1e9)
    @example(res=fp_resonator(1.0, 0.5, 1.0), source=RayState(2.0, -1.0), n_max=10, factor=1e-3)
    # a source already beyond the limit diverges on the first trip, which moves no extreme
    @example(res=_plane_cavity(0.0), source=RayState(0.0, 1e308), n_max=1, factor=0.5)
    # y moves only negative, within the limit and then across it
    @example(res=_plane_cavity(0.5), source=RayState(0.0, -1e-3), n_max=50, factor=1e9)
    @example(res=_plane_cavity(0.5), source=RayState(0.0, -1e-3), n_max=50, factor=1e-2)
    # a NaN state moves no extreme and ends in the overflow error
    @example(res=fp_resonator(1e-10, 1.0, 1.0), source=RayState(1e290, -1e290), n_max=3, factor=1.0)
    # y crosses the limit on the trip where theta overflows to inf - inf
    @example(res=fp_resonator(1e-10, 1.0, 1.0), source=RayState(-1e290, 1e290 / 3), n_max=4, factor=1.0)
    @settings(max_examples=300, deadline=None)
    def test_equals_mat2_apply_stepping(self, res, source, n_max, factor):
        args = (res, source, n_max, factor)
        assert _outcome(ray_bound_oracle, *args) == _outcome(reference_oracle, *args)


class TestEdgeValues:
    """Every entry point returns finite fields or raises an OptikitError."""

    @given(a11=ANY_NUMBER, a12=ANY_NUMBER, a21=ANY_NUMBER, a22=ANY_NUMBER)
    @settings(max_examples=300, deadline=None)
    def test_stability_from_matrix(self, a11, a12, a21, a22):
        try:
            v = stability_from_matrix(Mat2(a11, a12, a21, a22))
        except OptikitError:
            return
        assert math.isfinite(v.det) and math.isfinite(v.half_trace)
        assert not (v.stable and v.marginal)

    @given(r=ANY_NUMBER, d=ANY_NUMBER, n=ANY_NUMBER, trips=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_fp_resonator_entry_points(self, r, d, n, trips):
        try:
            res = fp_resonator(r, d, n)
        except OptikitError:
            return
        entries = (
            stability, round_trip_matrix, lambda res: unfold_resonator(res, trips),
            lambda res: ray_bound_oracle(res, RayState(1e-3, 0.0), trips),
        )
        for entry in entries:
            try:
                out = entry(res)
            except OptikitError:
                continue
            if isinstance(out, StabilityVerdict):
                assert math.isfinite(out.det) and math.isfinite(out.half_trace)
            elif isinstance(out, Mat2):
                assert all(map(math.isfinite, (out.a11, out.a12, out.a21, out.a22)))
            elif isinstance(out, OracleResult):
                assert out.diverged or (math.isfinite(out.max_y) and math.isfinite(out.max_theta))
            else:
                assert isinstance(out, OpticalSystem) and len(out.components) == 2 * trips
                spaces = [c.space for c in out.components] + [out.terminal]
                assert all(math.isfinite(s.n) and math.isfinite(s.d) for s in spaces)
                assert all(math.isfinite(c.iface.radius) for c in out.components)


# resonators with edge values, ints beyond the double range among them, in
# their mirrors and cavity space, so that some are invalid
_edge_resonators = st.builds(
    Resonator,
    _iface | ANY_NUMBER.map(Spherical),
    st.just(()) | st.lists(_component, min_size=1, max_size=2).map(tuple),
    st.builds(FreeSpace, ANY_NUMBER, ANY_NUMBER),
    _iface | ANY_NUMBER.map(Spherical),
)


def _resonator_calls(source, n_max):
    """round_trip_matrix, stability and ray_bound_oracle, as functions of a resonator."""
    return [round_trip_matrix, stability, lambda res: ray_bound_oracle(res, source, n_max)]


class TestRoundTripMemo:
    """Calls that reuse the round trip of the last resonator give what a fresh
    round trip gives, bit for bit."""

    @given(res=_resonators | _edge_resonators, source=_sources, n_max=st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_checked_value_equals_fresh_copy(self, res, source, n_max):
        calls = _resonator_calls(source, n_max)
        fresh = [outcome(call, copy.copy(res)) for call in calls]
        outcome(round_trip_matrix, res)
        assert [outcome(call, res) for call in calls] == fresh

    @given(
        a=_resonators | _edge_resonators,
        b=_resonators,
        source=_sources,
        order=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_alternating_resonators(self, a, b, source, order):
        calls = _resonator_calls(source, 50)
        fresh = [[outcome(call, copy.copy(res)) for call in calls] for res in (a, b)]
        for which, i in order:
            assert outcome(calls[i], (a, b)[which]) == fresh[which][i]

    @given(res=_resonators, extra=_component, source=_sources)
    @settings(max_examples=200, deadline=None)
    def test_list_built_resonator_sees_mutation(self, res, extra, source):
        calls = _resonator_calls(source, 50)
        inner = list(res.inner)
        listed = Resonator(res.left, inner, res.space, res.right)
        before = [outcome(call, res) for call in calls]
        assert [outcome(call, listed) for call in calls] == before
        inner.insert(0, extra)
        after = [outcome(call, listed) for call in calls]
        assert after == [outcome(call, Resonator(res.left, tuple(inner), res.space, res.right)) for call in calls]

    def test_invalid_resonator_raises_on_every_call(self):
        res = Resonator(Spherical(0.0), (), FreeSpace(1.0, 0.5), Spherical(1.0))
        for _ in range(3):
            assert not validate_resonator(res).ok
            for call in _resonator_calls(RayState(1e-3, 0.0), 10):
                with pytest.raises(InvalidResonator, match="R != 0"):
                    call(res)

    def test_threads_get_the_results_of_their_own_values(self):
        """Four threads on two cores share both caches; each call must see one
        whole entry, of its own value, never a mix of two."""
        rng = random.Random(16)
        systems = [random_system(rng) for _ in range(4)]
        resonators = [fp_resonator(1.0 + i, 0.5, 1.0) for i in range(4)]
        source = RayState(1e-3, 1e-4)

        def results(system, res):
            return [outcome(system_composition, system), outcome(trace_ray, system, source), outcome(stability, res)]

        expected = [results(copy.copy(s), copy.copy(r)) for s, r in zip(systems, resonators)]
        wrong = []

        def work(i):
            for _ in range(300):
                got = results(systems[i], resonators[i])
                if got != expected[i]:
                    wrong.append(i)
                    return

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
