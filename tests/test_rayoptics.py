import copy
import math
import pickle
import random
import struct
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    EDGE_FLOATS,
    EDGE_INTS,
    element_matrices,
    free_space_matrix,
    interface_matrix,
    mat_close,
    outcome,
    random_system,
)
from optikit.core import IDENTITY2, Mat2, mat2_apply, mat2_mul
from optikit import rayoptics
from optikit.errors import DomainError, InvalidSystem
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    RayState,
    RayTrace,
    Spherical,
    element_violations,
    system_composition,
    trace_ray,
    validate_system,
)

T = InterfaceKind.TRANSMITTED
R = InterfaceKind.REFLECTED


def single_space_system(n: float, d: float) -> OpticalSystem:
    return OpticalSystem((), FreeSpace(n, d))


def one_component_system(iface, kind: InterfaceKind, n0: float, n1: float, d: float = 0.0) -> OpticalSystem:
    """A free space (n0, d) and the interface, then a terminal free space of index n1 and width 0."""
    return OpticalSystem((OpticalComponent(FreeSpace(n0, d), iface, kind),), FreeSpace(n1, 0.0))


class TestValidation:
    def test_single_free_space_valid(self):
        assert validate_system(single_space_system(1.0, 0.5)).ok

    def test_negative_index_flagged_with_position(self):
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(-1.0, 0.5), Plane(), T),),
            FreeSpace(1.0, 0.0),
        )
        report = validate_system(sys)
        assert not report.ok
        assert report.violations[0].clause == "0 < n"
        assert report.violations[0].index == 0

    def test_zero_radius_sphere_flagged(self):
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(1.0, 0.5), Spherical(0.0), T),),
            FreeSpace(1.0, 0.0),
        )
        report = validate_system(sys)
        assert [v.clause for v in report.violations] == ["R != 0"]

    def test_negative_width_flagged(self):
        report = validate_system(single_space_system(1.0, -0.1))
        assert [v.clause for v in report.violations] == ["0 <= d"]
        assert report.violations[0].index is None

    @pytest.mark.parametrize(
        "space, clause",
        [
            (FreeSpace(math.inf, 0.1), "n finite"),
            (FreeSpace(math.nan, 0.1), "0 < n"),
            (FreeSpace(1.0, math.inf), "d finite"),
            (FreeSpace(1.0, math.nan), "0 <= d"),
        ],
    )
    def test_nonfinite_free_space_flagged(self, space, clause):
        report = validate_system(OpticalSystem((OpticalComponent(space, Plane(), T),), space))
        assert [(v.index, v.clause) for v in report.violations] == [(0, clause), (None, clause)]

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_nonfinite_radius_flagged(self, radius):
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(1.0, 0.5), Spherical(radius), T),),
            FreeSpace(1.0, 0.0),
        )
        assert [v.clause for v in validate_system(sys).violations] == ["R finite"]

    @pytest.mark.parametrize(
        "element, clause",
        [
            (FreeSpace(10**400, 0.1), "n finite"),
            (FreeSpace(-(10**400), 0.1), "0 < n"),
            (FreeSpace(1.0, 2**1024), "d finite"),
            (FreeSpace(1.0, -(10**400)), "0 <= d"),
            (Spherical(10**400), "R finite"),
            (Spherical(-(2**1024)), "R finite"),
        ],
    )
    def test_int_beyond_double_range_flagged(self, element, clause):
        assert [v.clause for v in element_violations(element, 0)] == [clause]

    def test_int_source_beyond_double_range_rejected(self):
        # the source reads as an infinity: the source is at fault, not the system
        with pytest.raises(DomainError, match="source ray must be finite"):
            trace_ray(OpticalSystem((), FreeSpace(1.0, 1.0)), RayState(10**400, 0.0))

    @pytest.mark.parametrize("source", [RayState(math.nan, 0.0), RayState(math.inf, 0.0), RayState(0.0, -math.inf)])
    def test_non_finite_source_rejected(self, source):
        # the check `ray_bound_oracle` makes, after the system's report
        with pytest.raises(DomainError, match="source ray must be finite"):
            trace_ray(OpticalSystem((), FreeSpace(1.0, 1.0)), source)
        with pytest.raises(InvalidSystem, match="0 < n"):
            trace_ray(OpticalSystem((), FreeSpace(-1.0, 1.0)), source)

    def test_int_power_beyond_double_range_is_finite(self):
        # n1 * R is an int product of 1e400; the two-step division gives the power
        comp = OpticalComponent(FreeSpace(1.0, 0.0), Spherical(10**200), T)
        m = system_composition(OpticalSystem((comp,), FreeSpace(10**200, 1.0)))
        assert (m.a21, m.a22) == (-1e-200, 1e-200)

    def test_plane_has_no_clauses(self):
        assert element_violations(Plane(), 3) == []

    def test_appending_invalid_component_keeps_system_invalid(self):
        rng = random.Random(2)
        good = random_system(rng)
        bad = OpticalComponent(FreeSpace(0.0, 0.1), Plane(), T)
        extended = OpticalSystem(good.components + (bad,), good.terminal)
        assert validate_system(good).ok
        assert not validate_system(extended).ok


class TestElementMatrices:
    """The reference matrices of `helpers` against hand values; an invalid
    element fails the system that holds it."""

    def test_zero_width_space_is_identity(self):
        assert free_space_matrix(FreeSpace(1.0, 0.0)) == IDENTITY2

    def test_translation_matrix(self):
        assert free_space_matrix(FreeSpace(1.0, 2.0)) == Mat2(1.0, 2.0, 0.0, 1.0)

    def test_invalid_space_rejected(self):
        with pytest.raises(InvalidSystem, match="0 < n"):
            system_composition(one_component_system(Plane(), T, -1.0, 1.0, 1.0))

    def test_spherical_transmission_hand_values(self):
        m = interface_matrix(Spherical(0.1), T, 1.0, 1.5)
        assert math.isclose(m.a21, (1.0 - 1.5) / (1.5 * 0.1), rel_tol=1e-15)
        assert math.isclose(m.a21, -3.3333333333333335, rel_tol=1e-12)
        assert math.isclose(m.a22, 2.0 / 3.0, rel_tol=1e-15)
        assert m.a11 == 1.0 and m.a12 == 0.0

    def test_spherical_transmission_underflowing_denominator(self):
        # n1 * R underflows to zero: matched indices still give power 0,
        # mismatched ones an infinite power rather than ZeroDivisionError
        assert interface_matrix(Spherical(5e-324), T, 0.25, 0.25) == IDENTITY2
        assert interface_matrix(Spherical(-5e-324), T, 1.0, 0.25).a21 == -math.inf

    def test_plane_transmission_equal_indices_is_identity(self):
        assert interface_matrix(Plane(), T, 1.33, 1.33) == IDENTITY2

    def test_plane_mirror_is_identity(self):
        assert interface_matrix(Plane(), R, 1.0, 1.0) == IDENTITY2

    def test_spherical_mirror(self):
        assert interface_matrix(Spherical(0.5), R, 1.0, 1.0) == Mat2(1.0, 0.0, -4.0, 1.0)

    def test_interface_determinants(self):
        rng = random.Random(9)
        for _ in range(100):
            n0, n1 = rng.uniform(1, 2), rng.uniform(1, 2)
            mt = interface_matrix(Spherical(rng.uniform(0.05, 5)), T, n0, n1)
            mr = interface_matrix(Spherical(rng.uniform(0.05, 5)), R, n0, n1)
            assert math.isclose(mt.det(), n0 / n1, rel_tol=1e-12)
            assert math.isclose(mr.det(), 1.0, rel_tol=1e-12)

    def test_invalid_indices_rejected(self):
        with pytest.raises(InvalidSystem, match="component 0: violates 0 < n"):
            system_composition(one_component_system(Plane(), T, -1.0, 1.0))
        with pytest.raises(InvalidSystem, match="terminal free space: violates n finite"):
            system_composition(one_component_system(Plane(), T, 1.0, math.inf))
        with pytest.raises(InvalidSystem, match="violates R != 0"):
            system_composition(one_component_system(Spherical(0.0), T, 1.0, 1.0))
        with pytest.raises(InvalidSystem, match="violates R finite"):
            system_composition(one_component_system(Spherical(math.nan), R, 1.0, 1.0))

    @pytest.mark.parametrize("iface, n0, n1, clause", [
        (Spherical(1.0), 10**400, 1.0, r"component 0: violates n finite \(n = inf\)"),
        (Plane(), 1.0, 10**400, r"terminal free space: violates n finite \(n = inf\)"),
        (Plane(), -(10**400), 1.0, r"component 0: violates 0 < n \(n = -inf\)"),
    ], ids=["n0", "n1", "negative"])
    def test_int_index_beyond_double_range_rejected(self, iface, n0, n1, clause):
        # an int beyond the double range reads as an infinity, so it fails the
        # clause its infinity fails, with no OverflowError from n0 - n1 or n0 / n1
        # and no message of all its 401 digits
        with pytest.raises(InvalidSystem, match=clause):
            system_composition(one_component_system(iface, T, n0, n1))


class TestSystemComposition:
    def test_empty_system_zero_terminal(self):
        assert system_composition(single_space_system(1.0, 0.0)) == IDENTITY2

    def test_two_spaces_with_neutral_interface(self):
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(1.0, 0.7), Plane(), T),),
            FreeSpace(1.0, 1.3),
        )
        assert mat_close(system_composition(sys), Mat2(1.0, 2.0, 0.0, 1.0), 1e-15)

    def test_invalid_system_raises(self):
        with pytest.raises(InvalidSystem):
            system_composition(single_space_system(-1.0, 0.0))

    @pytest.mark.parametrize("space", [FreeSpace(math.inf, 0.1), FreeSpace(1.0, math.inf)])
    def test_nonfinite_parameters_raise(self, space):
        sys = OpticalSystem((OpticalComponent(space, Plane(), T),), FreeSpace(1.5, 0.1))
        with pytest.raises(InvalidSystem, match="finite"):
            system_composition(sys)

    def test_overflowing_subnormal_radius_raises(self):
        # R = 1e-320 is valid and finite, but its power 1/R overflows to inf
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(1.0, 0.1), Spherical(1e-320), T),),
            FreeSpace(1.5, 0.1),
        )
        with pytest.raises(InvalidSystem, match="overflows"):
            system_composition(sys)
        with pytest.raises(InvalidSystem, match="overflows"):
            trace_ray(sys, RayState(1e-3, 0.0))

    def test_underflowing_power_denominator_raises(self):
        # at n1 = 0.5, R = 5e-324 the denominator n1 * R underflows to zero
        sys = OpticalSystem(
            (OpticalComponent(FreeSpace(1.0, 0.1), Spherical(5e-324), T),),
            FreeSpace(0.5, 0.1),
        )
        with pytest.raises(InvalidSystem, match="overflows"):
            system_composition(sys)
        with pytest.raises(InvalidSystem, match="overflows"):
            trace_ray(sys, RayState(1e-3, 0.0))

    def test_det_telescopes_for_all_transmitted(self):
        rng = random.Random(17)
        for _ in range(200):
            base = random_system(rng)
            comps = tuple(
                OpticalComponent(c.space, c.iface, T) for c in base.components
            )
            sys = OpticalSystem(comps, base.terminal)
            n_first = comps[0].space.n if comps else sys.terminal.n
            expected = n_first / sys.terminal.n
            assert math.isclose(system_composition(sys).det(), expected, rel_tol=1e-12)


class TestTraceRay:
    def test_single_space_hand_values(self):
        trace = trace_ray(single_space_system(1.0, 2.0), RayState(1.0, 0.1))
        assert trace.final == RayState(1.2, 0.1)
        assert len(trace.states) == 2

    def test_axis_ray_stays_zero(self):
        rng = random.Random(23)
        for _ in range(50):
            sys = random_system(rng)
            trace = trace_ray(sys, RayState(0.0, 0.0))
            assert all(s.y == 0.0 and s.theta == 0.0 for s in trace.states)

    def test_state_count(self):
        rng = random.Random(29)
        for _ in range(50):
            sys = random_system(rng)
            trace = trace_ray(sys, RayState(1e-3, 1e-4))
            assert len(trace.states) == len(sys.components) + 2

    def test_matches_composed_matrix(self):
        # the stepper and the composed product are independent code paths
        rng = random.Random(31)
        for _ in range(300):
            sys = random_system(rng)
            src = RayState(rng.uniform(-1, 1), rng.uniform(-1, 1))
            stepped = trace_ray(sys, src).final
            direct = mat2_apply(system_composition(sys), src.as_pair())
            scale = max(abs(direct[0]), abs(direct[1]), 1.0)
            assert abs(stepped.y - direct[0]) <= 1e-12 * scale
            assert abs(stepped.theta - direct[1]) <= 1e-12 * scale


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


# Mixed plane/spherical, transmitted/reflected components with extreme
# (subnormal, huge) magnitudes, so that some systems overflow, and with
# repeated indices, -0.0 widths and zero rays, so that signed zeros arise.
_indices = st.one_of(st.sampled_from((1.0, 1.5)), st.floats(1e-3, 1e3))
_widths = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 1e3))
_interfaces = st.one_of(
    st.just(Plane()),
    st.builds(Spherical, st.floats(-1e3, 1e3).filter(lambda r: r != 0)),
)
_components = st.builds(
    OpticalComponent,
    st.builds(FreeSpace, _indices, _widths),
    _interfaces,
    st.sampled_from(InterfaceKind),
)
_systems = st.builds(
    OpticalSystem,
    st.lists(_components, max_size=12).map(tuple),
    st.builds(FreeSpace, _indices, _widths),
)
_coords = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))
# plane interfaces of both kinds between unequal indices, and a spherical one
_PLANES = OpticalSystem((
    OpticalComponent(FreeSpace(1.0, 0.5), Plane(), InterfaceKind.TRANSMITTED),
    OpticalComponent(FreeSpace(1.5, 0.25), Plane(), InterfaceKind.REFLECTED),
    OpticalComponent(FreeSpace(1.3, 0.1), Spherical(-2.0), InterfaceKind.TRANSMITTED),
), FreeSpace(1.7, 0.3))


class TestReferenceForm:
    """The scalar fold and stepper equal the `mat2_mul` fold and `mat2_apply`
    stepping over `helpers.element_matrices` bit for bit, or raise where that
    reference overflows."""

    @given(system=_systems)
    @example(system=_PLANES)
    @settings(max_examples=300, deadline=None)
    def test_composition_is_the_mat2_mul_fold(self, system):
        ref = reduce(lambda acc, m: mat2_mul(m, acc), element_matrices(system), IDENTITY2)
        entries = (ref.a11, ref.a12, ref.a21, ref.a22)
        if not all(map(math.isfinite, entries)):
            with pytest.raises(InvalidSystem):
                system_composition(system)
            return
        m = system_composition(system)
        assert _bits((m.a11, m.a12, m.a21, m.a22)) == _bits(entries)

    @given(system=_systems, y=_coords, theta=_coords)
    @example(system=_PLANES, y=1e-3, theta=-0.2)
    @settings(max_examples=300, deadline=None)
    def test_trace_is_mat2_apply_stepping(self, system, y, theta):
        mats = element_matrices(system)
        v = (y, theta)
        ref = [v]
        for i in range(len(system.components)):
            v = mat2_apply(mats[2 * i + 1], mat2_apply(mats[2 * i], v))
            ref.append(v)
        ref.append(mat2_apply(mats[-1], v))
        if not all(map(math.isfinite, ref[-1])):
            with pytest.raises(InvalidSystem):
                trace_ray(system, RayState(y, theta))
            return
        states = trace_ray(system, RayState(y, theta)).states
        assert _bits(x for s in states for x in s.as_pair()) == _bits(x for v in ref for x in v)


def _stepped(system: OpticalSystem, y: float, theta: float) -> list[tuple[float, float]]:
    """The source and the ray after each component and the terminal free space,
    by `mat2_apply` over `helpers.element_matrices` (reference)."""
    mats, v = element_matrices(system), (y, theta)
    out = [v]
    for i in range(len(system.components)):
        v = mat2_apply(mats[2 * i + 1], mat2_apply(mats[2 * i], v))
        out.append(v)
    return out + [mat2_apply(mats[-1], v)]


class TestLazyStates:
    """`trace_ray` builds only the final state; `states` is built on its first
    read, and the trace is the value that `RayTrace(states)` built by hand is."""

    @given(system=_systems, y=_coords, theta=_coords, final_first=st.booleans())
    @example(system=_PLANES, y=1e-3, theta=-0.2, final_first=True)
    @settings(max_examples=300, deadline=None)
    def test_final_and_states_are_mat2_apply_stepping(self, system, y, theta, final_first):
        ref = _stepped(system, y, theta)
        if not all(map(math.isfinite, ref[-1])):
            return  # the overflow is `test_trace_is_mat2_apply_stepping`'s
        trace = trace_ray(system, RayState(y, theta))
        final = trace.final if final_first else None
        states = trace.states
        assert _bits(x for s in states for x in s.as_pair()) == _bits(x for v in ref for x in v)
        assert trace.final is states[-1] and (final is None or final is states[-1]) and trace.states is states

    @pytest.mark.parametrize("check", [
        lambda t: t, hash, repr, pickle.dumps, lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy,
        lambda t: t.final,
    ], ids=["eq", "hash", "repr", "pickle", "unpickled", "copy", "deepcopy", "final"])
    def test_traced_is_the_value_built_by_hand(self, check):
        source = RayState(1e-3, -0.2)
        by_hand = RayTrace(tuple(RayState(*v) for v in _stepped(_PLANES, 1e-3, -0.2)))
        assert check(trace_ray(_PLANES, source)) == check(by_hand)  # a fresh trace: its states unread
        assert trace_ray(_PLANES, source) == by_hand and by_hand == trace_ray(_PLANES, source)

    def test_final_builds_no_state(self, monkeypatch):
        built = []
        monkeypatch.setattr(rayoptics, "RayState", lambda y, theta: built.append(y) or RayState(y, theta))
        trace = trace_ray(_PLANES, RayState(1e-3, -0.2))
        assert len(built) == 1  # the final state
        assert trace.final == trace.final and len(built) == 1
        assert len(trace.states) == len(_PLANES.components) + 2 and len(built) == 1 + len(_PLANES.components)
        trace.states
        assert len(built) == 1 + len(_PLANES.components)  # built once

    def test_states_are_those_of_the_system_at_call_time(self):
        comps = list(_PLANES.components)
        listed = OpticalSystem(comps, _PLANES.terminal)  # a list is checked on every call
        trace = trace_ray(listed, RayState(1e-3, -0.2))
        comps.reverse()
        assert trace == trace_ray(_PLANES, RayState(1e-3, -0.2))


# Systems with edge values, ints beyond the double range among them, in any
# field, so that some are invalid, some overflow and some are valid
_edges = st.sampled_from(EDGE_FLOATS + EDGE_INTS + [math.inf, -math.inf, math.nan])
_edge_spaces = st.builds(FreeSpace, _indices | _edges, _widths | _edges)
_edge_components = st.builds(
    OpticalComponent, _edge_spaces, _interfaces | _edges.map(Spherical), st.sampled_from(InterfaceKind)
)
_edge_systems = st.builds(OpticalSystem, st.lists(_edge_components, max_size=6).map(tuple), _edge_spaces)
_rays = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=3)


def _no_nan(*mats: Mat2) -> bool:
    return not any(math.isnan(x) for m in mats for x in (m.a11, m.a12, m.a21, m.a22))


def _composed(system: OpticalSystem) -> Mat2 | None:
    """`system_composition`, or None where it raises InvalidSystem: the text of
    the system's report where that fails, else an overflow."""
    report = validate_system(system)
    try:
        return system_composition(system)
    except InvalidSystem as exc:
        assert str(exc) == str(report) if not report.ok else "overflows double precision" in str(exc)
        return None


class TestEdgeValues:
    """A system of edge values, and the one-element system of a free space or
    of an interface, composes to a matrix of floats with no NaN entry, or
    raises InvalidSystem for the clause its report names, or for an overflow."""

    @given(iface=_interfaces | _edges.map(Spherical), kind=st.sampled_from(InterfaceKind),
           n0=_indices | _edges, n1=_indices | _edges)
    @settings(max_examples=300, deadline=None)
    def test_interface_matrix(self, iface, kind, n0, n1):
        m = _composed(one_component_system(iface, kind, n0, n1))
        assert m is None or _no_nan(m) and all(type(x) is float for x in (m.a11, m.a12, m.a21, m.a22))

    @given(space=_edge_spaces)
    @settings(max_examples=300, deadline=None)
    def test_free_space_matrix(self, space):
        m = _composed(OpticalSystem((), space))
        assert m is None or all(map(math.isfinite, (m.a11, m.a12, m.a21, m.a22)))

    @given(system=_systems | _edge_systems)
    @settings(max_examples=300, deadline=None)
    def test_element_matrices(self, system):
        m = _composed(system)
        assert m is None or _no_nan(m)


def _system_calls(rays):
    """validate_system, system_composition and trace_ray of each ray, as functions of a system."""
    return [validate_system, system_composition] + [
        lambda system, ray=ray: trace_ray(system, RayState(*ray)) for ray in rays
    ]


class TestCheckMemo:
    """Calls that reuse the check of the last system give what a fresh check gives, bit for bit."""

    @given(system=_systems | _edge_systems, rays=_rays)
    @settings(max_examples=300, deadline=None)
    def test_checked_value_equals_fresh_copy(self, system, rays):
        calls = _system_calls(rays)
        fresh = [outcome(call, copy.copy(system)) for call in calls]
        validate_system(system)
        assert [outcome(call, system) for call in calls] == fresh

    @given(
        a=_systems | _edge_systems,
        b=_systems,
        rays=_rays,
        order=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_alternating_systems(self, a, b, rays, order):
        calls = _system_calls(rays)
        fresh = [[outcome(call, copy.copy(system)) for call in calls] for system in (a, b)]
        for which, i in order:
            i %= len(calls)
            assert outcome(calls[i], (a, b)[which]) == fresh[which][i]

    @given(system=_systems, extra=_edge_components, rays=_rays)
    @settings(max_examples=200, deadline=None)
    def test_list_built_system_sees_mutation(self, system, extra, rays):
        calls = _system_calls(rays)
        comps = list(system.components)
        listed = OpticalSystem(comps, system.terminal)
        before = [outcome(call, system) for call in calls]
        assert [outcome(call, listed) for call in calls] == before
        comps.insert(0, extra)
        after = [outcome(call, listed) for call in calls]
        assert after == [outcome(call, OpticalSystem(tuple(comps), system.terminal)) for call in calls]

    def test_invalid_system_raises_on_every_call(self):
        system = OpticalSystem((OpticalComponent(FreeSpace(-1.0, 0.5), Plane(), T),), FreeSpace(1.0, 0.0))
        for _ in range(3):
            assert not validate_system(system).ok
            with pytest.raises(InvalidSystem, match="0 < n"):
                system_composition(system)
            with pytest.raises(InvalidSystem, match="0 < n"):
                trace_ray(system, RayState(1e-3, 0.0))
