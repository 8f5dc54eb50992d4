"""Paraxial optical systems and ray-transfer matrices.

An optical system is a sequence of components, each a free space followed by
an interface (plane or spherical, traversed by transmission or reflection),
terminated by a final free space.  Rays are (y, theta) pairs: distance from
the optical axis in meters and inclination in radians.

Matrix conventions (the classical spatial-domain ray matrices):

    free space of width d          [[1, d], [0, 1]]
    spherical transmission         [[1, 0], [(n0 - n1)/(n1 R), n0/n1]]
    plane transmission             [[1, 0], [0, n0/n1]]
    spherical mirror               [[1, 0], [-2/R, 1]]
    plane mirror                   identity (unfolded coordinates)

Free-space translation uses the geometric width d; all refractive-index
dependence sits in the interface matrices.  A spherical mirror with R > 0 is
concave toward the incoming ray, which reproduces the classical confocal
stability window 0 < d < 2R for a two-mirror cavity.  The index pair (n0, n1)
of an interface comes from the component's own free space and the following
component's (or the terminal) free space.

Cost and exactness: `system_composition` and `trace_ray` are O(n) in the number
of components, over the (d, C, D) entries of each component in plain floats,
and bit-identical to the `mat2_mul` fold and the `mat2_apply` stepping over the
table's matrices, which `tests/helpers.py` writes out as the reference.
`trace_ray` builds only the final `RayState`; its `RayTrace` keeps the entries,
source and terminal width and builds `states` on their first read (as
`quantum.Operator` builds `.matrix`) with the same stepping function, so they
are bit-identical; ==, hash, repr and pickle read them, `final` does not.  Both
share one check with `validate_system`, which a system keeps in its `_check`
slot (`core.Checked`) if its components are a tuple (a list can change between
calls).  Clauses read a float as it is, with no helper call.  One pairing
function, `_pair_entries`, forms every interface's (C, D), here and on both
legs of a resonator's round trip.  Parameters must be finite, and so must a
source ray (DomainError); a composed matrix or traced ray that overflows
raises InvalidSystem.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union

from .core import Checked, Mat2, Value, _floats, _real
from .errors import DomainError, InvalidSystem

__all__ = [
    "FreeSpace",
    "Plane",
    "Spherical",
    "OpticalInterface",
    "InterfaceKind",
    "OpticalComponent",
    "OpticalSystem",
    "RayState",
    "RayTrace",
    "Violation",
    "ValidationReport",
    "element_violations",
    "validate_system",
    "system_composition",
    "trace_ray",
]


class FreeSpace(Value):
    """Homogeneous propagation region: refractive index n, width d (meters)."""

    __slots__ = ("n", "d")


class Plane(Value):
    """Flat interface."""

    __slots__ = ()


class Spherical(Value):
    """Spherical interface with radius of curvature R != 0 (meters)."""

    __slots__ = ("radius",)


OpticalInterface = Union[Plane, Spherical]
_SPACE, _IFACE = (FreeSpace,), OpticalInterface.__args__  # the types that a space and an interface slot take


class InterfaceKind(Enum):
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"


class OpticalComponent(Value):
    __slots__ = ("space", "iface", "kind")


class OpticalSystem(Checked):
    __slots__ = ("components", "terminal")


class RayState(Value):
    """Distance from axis y (meters) and inclination theta (radians)."""

    __slots__ = ("y", "theta")

    def as_pair(self) -> tuple[float, float]:
        return (self.y, self.theta)


class RayTrace(Value):
    """Ray states at the source, after each component, and after the terminal
    free space; length = number of components + 2.  A trace that `trace_ray`
    returns builds them on the first read of `states` (module docstring)."""

    __slots__ = ("states",)

    @property
    def final(self) -> RayState:
        return _STATES.__get__(self)[-1]  # a `_Steps` ends on the final state too

    def _built(self) -> tuple[RayState, ...]:
        """The states; where the slot holds a `_Steps`, they are built from it and replace it."""
        states = _STATES.__get__(self)
        if states.__class__ is _Steps:
            entries, source, d, final = states
            states = [source]
            _step(entries, *_source_floats(source), d, states)
            states = (*states, final)
            _STATES.__set__(self, states)
        return states


class _Steps(tuple):
    """(entries, source, terminal width d, final state) of a `trace_ray` call."""


# the slot behind `states`, which `RayTrace` reads through `_built`
_STATES, RayTrace.states = RayTrace.states, property(RayTrace._built)


class Violation(Value):
    """One violated validity clause, located by component index.

    index is the component position, None for a system's terminal free space,
    or a name such as "left mirror" or "reflected"; clause is the violated
    constraint, e.g. "0 < n".
    """

    __slots__ = ("index", "clause", "detail")

    def __str__(self) -> str:
        where = self.index if isinstance(self.index, str) else (
            "terminal free space" if self.index is None else f"component {self.index}")
        return f"{where}: violates {self.clause} ({self.detail})"


class ValidationReport(Value):
    """Violations fail the report; warnings are advisory violations that leave it ok."""

    __slots__ = ("violations", "warnings")
    _defaults = ((),)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)

    def require(self, error: type[Exception]) -> None:
        """Raise error, listing every violation, unless the report is ok."""
        if self.violations:
            raise error(str(self))


def element_violations(element, index: int | str | None, types: tuple = (FreeSpace, Plane, Spherical)) -> list[Violation]:
    """Violated validity clauses of one free space or interface (empty == valid).

    A free space needs a finite n > 0 and a finite d >= 0; a spherical
    interface needs a finite R != 0.  index locates the element in the
    reports built from these clauses; an element that is none of types (those
    its slot takes), or has a field that is not a real number ("type real"),
    violates that clause alone.
    """
    if not isinstance(element, types):
        return [Violation(index, "type " + " or ".join(t.__name__ for t in types), f"got {element!r}")]
    out = []
    if isinstance(element, FreeSpace):
        n = element.n if element.n.__class__ is float else _real(element.n)
        d = element.d if element.d.__class__ is float else _real(element.d)
        if n is None or d is None:
            return [Violation(index, "type real", f"got {element!r}")]
        if not 0 < n < math.inf:
            out.append(Violation(index, "n finite" if n > 0 else "0 < n", f"n = {n!r}"))
        if not 0 <= d < math.inf:
            out.append(Violation(index, "d finite" if d >= 0 else "0 <= d", f"d = {d!r}"))
    elif isinstance(element, Spherical):
        r = element.radius if element.radius.__class__ is float else _real(element.radius)
        if r is None:
            return [Violation(index, "type real", f"got {element!r}")]
        if r == 0:
            out.append(Violation(index, "R != 0", "spherical interface with R = 0"))
        elif not -math.inf < r < math.inf:
            out.append(Violation(index, "R finite", f"R = {r!r}"))
    return out


def _labelled_report(components, before=(), after=(), label: str = "components") -> ValidationReport:
    """The one walk that validates systems and resonators: before, components (labelled label as a whole), after."""
    violations: list[Violation] = []
    for index, element, types in before:  # types: those that the slot takes
        violations += element_violations(element, index, types)
    if not isinstance(components, (tuple, list)):
        violations += element_violations(components, label, (tuple, list))
        components = ()
    for i, comp in enumerate(components):
        if not isinstance(comp, OpticalComponent):
            violations += element_violations(comp, i, (OpticalComponent,))
            continue
        violations += element_violations(comp.space, i, _SPACE)
        violations += element_violations(comp.iface, i, _IFACE)
        if comp.kind.__class__ is not InterfaceKind:  # an Enum with members has no subclass
            violations += element_violations(comp.kind, i, (InterfaceKind,))
    for index, element, types in after:
        violations += element_violations(element, index, types)
    return ValidationReport(tuple(violations))


def _checked(sys: OpticalSystem) -> tuple[ValidationReport, list | None]:
    """The report of a system and, when it is ok, its `_pair_entries`, kept in its `_check` (module docstring)."""
    if (kept := sys._check) is not None:
        return kept
    comps = sys.components
    report = _labelled_report(comps, after=((None, sys.terminal, _SPACE),))
    entries = _pair_entries([c.space for c in comps], [c.iface for c in comps], [c.kind for c in comps],
                            sys.terminal.n) if report.ok else None
    if type(comps) is tuple:
        object.__setattr__(sys, "_check", (report, entries))
    return report, entries


def validate_system(sys: OpticalSystem) -> ValidationReport:
    """Report every violated validity constraint of a system (empty == valid)."""
    return _checked(sys)[0]


def _pair_entries(spaces: list, ifaces, kinds, n_last: float, behind: bool = False) -> list[tuple[float, float, float]]:
    """(d, C, D) of each free space [[1, d], [0, 1]] followed by its interface
    [[1, 0], [C, D]], inputs valid.  The index n0 is the space's, n1 the next
    space's or n_last; behind crosses each transmitted sphere from behind, radius -R."""
    transmitted, entries = InterfaceKind.TRANSMITTED, []
    for space, iface, kind, n1 in zip(spaces, ifaces, kinds, [space.n for space in spaces[1:]] + [n_last]):
        if kind is not transmitted:
            entries.append((space.d, -2.0 / iface.radius if isinstance(iface, Spherical) else 0.0, 1.0))
        elif isinstance(iface, Spherical):
            try:
                c = (space.n - n1) / (n1 * iface.radius)
            except (ZeroDivisionError, OverflowError):
                # n1 * R underflowed to 0 or is an int beyond the double range; two
                # steps give the exact 0 of matched indices, inf where the power overflows
                c = (space.n - n1) / n1 / iface.radius
            entries.append((space.d, -c if behind else c, space.n / n1))
        else:
            entries.append((space.d, 0.0, space.n / n1))
    return entries


def _source_floats(source: RayState) -> tuple[float, float]:
    """(y, theta) of a source ray as floats, or DomainError unless both are finite."""
    y, theta = _floats(source.y, source.theta)
    if not (math.isfinite(y) and math.isfinite(theta)):
        raise DomainError(f"source ray must be finite, got y={y!r}, theta={theta!r}")
    return y, theta


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidSystem(f"{what} overflows double precision: {values!r}")


def system_composition(sys: OpticalSystem) -> Mat2:
    """Ray-transfer matrix of the whole system.

    Product of the per-element matrices in reverse traversal order, so the
    last element sits leftmost and the matrix acts on input (y, theta).  The
    product is folded in four local floats with the operations of `mat2_mul`
    in its order (only the exact products 1.0 * x are left out), so it equals
    the `mat2_mul` fold of the element matrices (`tests/helpers.py`) bit for bit.
    """
    report, entries = _checked(sys)
    report.require(InvalidSystem)
    return _fold(entries, sys.terminal.d)


def _fold(entries: list[tuple[float, float, float]], d: float) -> Mat2:
    """Composed matrix of valid component entries and a terminal width d."""
    a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
    for w, c, e in entries:
        # free space [[1, w], [0, 1]] . acc
        a11, a12, a21, a22 = a11 + w * a21, a12 + w * a22, 0.0 * a11 + a21, 0.0 * a12 + a22
        # interface [[1, 0], [c, e]] . acc
        a11, a12, a21, a22 = a11 + 0.0 * a21, a12 + 0.0 * a22, c * a11 + e * a21, c * a12 + e * a22
    a11, a12, a21, a22 = a11 + d * a21, a12 + d * a22, 0.0 * a11 + a21, 0.0 * a12 + a22
    _require_finite("composed matrix", a11, a12, a21, a22)
    return Mat2(a11, a12, a21, a22)


def _step(entries: list, y: float, theta: float, d: float, states: list | None = None) -> tuple[float, float]:
    """(y, theta) stepped through valid component entries and a terminal width d,
    each step with the operations of `mat2_apply`; given states, the RayState
    after each component is appended to it."""
    for w, c, e in entries:
        y, theta = y + w * theta, 0.0 * y + theta
        y, theta = y + 0.0 * theta, c * y + e * theta
        if states is not None:
            states.append(RayState(y, theta))
    return y + d * theta, 0.0 * y + theta


def trace_ray(sys: OpticalSystem, source: RayState) -> RayTrace:
    """Step a ray through the system element by element.

    The recorded states are the source, the state just after each component
    (free space traversed and interface applied), and the state after the
    terminal free space.  The final state always equals the composed-matrix
    action on the source; `system_composition` and this stepper are
    independent code paths over the same element entries.  Each step repeats
    the operations of `mat2_apply`, so the states equal stepping through the
    element matrices (`tests/helpers.py`) bit for bit.  They are built on their first read.
    """
    report, entries = _checked(sys)
    report.require(InvalidSystem)
    y, theta = _source_floats(source)
    d = sys.terminal.d
    y, theta = _step(entries, y, theta, d)
    _require_finite("traced ray", y, theta)
    return RayTrace(_Steps((entries, source, d, RayState(y, theta))))
