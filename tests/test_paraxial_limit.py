"""The element matrices are the paraxial limit of exact ray optics.

Every route of `rayoptics` reads an interface's (C, D) from the same entries,
so a wrong entry formula would pass their comparisons with each other.  Here
`helpers.exact_meridional_trace`, Snell's law and the law of reflection at the
true surfaces, is the independent route.  Its output differs from the action
of `system_composition` on the same ray by a relative O(eps^2), as the exact
map is odd in the ray, so each halving of the ray's scale eps divides that
error, taken per unit eps, by 4; a wrong entry leaves an O(1) error, which no
halving divides.
"""

import importlib.util
import itertools
import math
import pathlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_meridional_trace, unfold_resonator
from optikit import sysdesc
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
)
from optikit.resonator import Resonator

T = InterfaceKind.TRANSMITTED
R = InterfaceKind.REFLECTED

# the largest |y| / |R| or |theta| of the paraxial trace at the first scale
FIRST_SCALE = 1e-2
# the rounding each surface may add to the exact trace, in ulps of the trace's scale
ULPS = 8


def check_paraxial_limit(system: OpticalSystem, y0: float, theta0: float) -> None:
    """Asserts that the error of the exact trace of eps (y0, theta0) against
    the composed matrix's action on it, per unit eps, is divided by 3.5 to
    4.5 by each halving of eps, over three eps.

    The first eps scales the paraxial trace to `FIRST_SCALE`, which keeps
    every ray near the axis, whatever the system's gain.  Each error is the
    O(eps^2) term plus a rounding within `ULPS` ulps a surface of the
    trace's scale, its largest |y| + |y| / |R| + |theta| (a normal tilts by
    y / R), so the ratio is taken up to that rounding: the larger error less
    4 times the smaller is within half the smaller plus 5 roundings.  Where
    the errors are rounding alone, as for a plane mirror, that holds too.
    """
    m = system_composition(system)
    states = trace_ray(system, RayState(y0, theta0)).states
    r_min = min((abs(c.iface.radius) for c in system.components if isinstance(c.iface, Spherical)), default=1.0)
    excursion = max(max(abs(s.y) / r_min, abs(s.theta)) for s in states)
    rounding = ULPS * len(states) * 2**-52 * max(abs(s.y) + abs(s.y) / r_min + abs(s.theta) for s in states)
    errors = []
    for k in range(3):
        eps = FIRST_SCALE / excursion / 2**k
        y, theta = exact_meridional_trace(system, eps * y0, eps * theta0)
        y_m, theta_m = m.a11 * eps * y0 + m.a12 * eps * theta0, m.a21 * eps * y0 + m.a22 * eps * theta0
        errors.append(math.hypot(y - y_m, theta - theta_m) / eps)
    for big, small in zip(errors, errors[1:]):
        assert abs(big - 4 * small) <= 0.5 * small + 5 * rounding, (errors, rounding)


_spaces = st.builds(FreeSpace, st.floats(1.0, 2.0), st.floats(0.0, 0.5))
_interfaces = st.just(Plane()) | st.builds(Spherical, st.floats(0.1, 5.0) | st.floats(-5.0, -0.1))
_components = st.builds(OpticalComponent, _spaces, _interfaces, st.sampled_from(InterfaceKind))
_systems = st.builds(OpticalSystem, st.lists(_components, max_size=8).map(tuple), _spaces)
# a ray of the paraxial scale of perfbench's rays; (0, 0) has no limit to take
_rays = st.tuples(st.integers(-1000, 1000).map(lambda k: k * 1e-6),
                  st.integers(-1000, 1000).map(lambda k: k * 1e-5)).filter(any)


def _one(space: FreeSpace, iface, kind: InterfaceKind, terminal_n: float = 1.0) -> OpticalSystem:
    return OpticalSystem((OpticalComponent(space, iface, kind),), FreeSpace(terminal_n, 0.3))


class TestExactTrace:
    def test_plane_mirrors_and_axial_rays_are_exact(self):
        # a plane mirror is the identity, and an axial ray meets each surface normally
        system = OpticalSystem((OpticalComponent(FreeSpace(1.0, 0.0), Plane(), R),) * 3, FreeSpace(1.0, 0.0))
        assert exact_meridional_trace(system, 1e-3, 0.0) == (1e-3, 0.0)
        lens = _one(FreeSpace(1.0, 0.2), Spherical(0.5), T, 1.5)
        assert exact_meridional_trace(lens, 0.0, 0.0) == (0.0, 0.0)

    def test_normal_incidence_on_a_sphere_goes_straight(self):
        # a ray through the centre meets the surface normally at every height
        for kind, centre in ((T, 0.5), (R, -0.5)):
            theta = math.atan(-1e-3 / centre)  # on the line from (centre, 0) through (0, 1e-3)
            _, out = exact_meridional_trace(_one(FreeSpace(1.0, 0.0), Spherical(0.5), kind, 1.5), 1e-3, theta)
            # transmitted, the direction is kept; reflected, it is reversed, and unfolded
            expect = theta if kind is T else -theta
            assert math.isclose(out, expect, rel_tol=1e-12)

    def test_snell_at_a_plane(self):
        y, theta = exact_meridional_trace(_one(FreeSpace(1.0, 0.0), Plane(), T, 1.5), 0.0, 0.5)
        assert math.isclose(math.sin(theta), math.sin(0.5) / 1.5, rel_tol=1e-14)
        assert math.isclose(y, 0.3 * math.tan(theta), rel_tol=1e-14)


class TestParaxialLimit:
    @given(system=_systems, ray=_rays)
    @example(system=_one(FreeSpace(1.0, 0.4), Plane(), T, 1.5), ray=(1e-3, 1e-2))
    @example(system=_one(FreeSpace(1.0, 0.4), Plane(), R), ray=(1e-3, 1e-2))
    @example(system=_one(FreeSpace(1.2, 0.4), Spherical(0.3), T, 1.7), ray=(1e-3, 0.0))
    @example(system=_one(FreeSpace(1.2, 0.4), Spherical(-0.3), T), ray=(0.0, 1e-2))
    @example(system=_one(FreeSpace(1.0, 0.4), Spherical(0.3), R), ray=(1e-3, 0.0))
    @example(system=_one(FreeSpace(1.0, 0.4), Spherical(-2.0), R), ray=(-1e-3, 1e-2))
    @settings(max_examples=150, deadline=None)
    def test_systems(self, system, ray):
        check_paraxial_limit(system, *ray)

    @given(res=st.builds(Resonator, _interfaces, st.lists(_components, max_size=3).map(tuple), _spaces,
                         _interfaces),
           trips=st.integers(1, 3), ray=_rays)
    @settings(max_examples=60, deadline=None)
    def test_resonators(self, res, trips, ray):
        check_paraxial_limit(unfold_resonator(res, trips), *ray)

    def test_perfbench_ray_design_specs(self):
        # 300 specs of perfbench's generator: systems with their three rays,
        # and resonators, two round trips, with their source ray
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        kinds = set()
        accepted = (op for op in gen.Generator("ray_design", 99) if op["reject"] is None)
        for op in itertools.islice(accepted, 300):
            doc = sysdesc.parse(op["text"])
            if op["kind"] == "system":
                system, rays = sysdesc.document_to_system(doc), op["rays"]
            else:
                system, rays = unfold_resonator(sysdesc.document_to_resonator(doc), 2), [op["source"]]
            for comp in system.components:
                kinds.add((type(comp.iface), comp.kind))
            for ray in rays:
                check_paraxial_limit(system, *ray)
        assert kinds == {(iface, kind) for iface in (Plane, Spherical) for kind in InterfaceKind}
