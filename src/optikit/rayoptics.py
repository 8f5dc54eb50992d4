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

Cost and exactness: `system_composition` and `trace_ray` are O(n) in the
number of components.  Each validates the system once (`validate_system`,
one pass of `element_violations`), then runs over the (d, C, D) entries of
each component in plain floats, with no matrix allocated per element; the
private `_fold` skips that pass for a caller that holds a valid system.
Both are bit-identical to the reference form, the `mat2_mul` fold and the
`mat2_apply` stepping over `element_matrices`.  Every parameter must be
finite, and a composed matrix or traced ray that overflows double precision
raises InvalidSystem instead of returning inf or NaN.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union

from .core import Mat2, Value
from .errors import InvalidComponent, InvalidSystem

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
    "free_space_matrix",
    "interface_matrix",
    "system_composition",
    "element_matrices",
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


class InterfaceKind(Enum):
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"


class OpticalComponent(Value):
    __slots__ = ("space", "iface", "kind")


class OpticalSystem(Value):
    __slots__ = ("components", "terminal")


class RayState(Value):
    """Distance from axis y (meters) and inclination theta (radians)."""

    __slots__ = ("y", "theta")

    def as_pair(self) -> tuple[float, float]:
        return (self.y, self.theta)


class RayTrace(Value):
    """Ray states at the source, after each component, and after the terminal
    free space; length = number of components + 2."""

    __slots__ = ("states",)

    @property
    def final(self) -> RayState:
        return self.states[-1]


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


def element_violations(element: FreeSpace | OpticalInterface, index: int | str | None) -> list[Violation]:
    """Violated validity clauses of one free space or interface (empty == valid).

    A free space needs a finite n > 0 and a finite d >= 0; a spherical
    interface needs a finite R != 0.  index locates the element in the
    reports built from these clauses.
    """
    out = []
    if isinstance(element, FreeSpace):
        n, d = element.n, element.d
        if not 0 < n < math.inf:
            out.append(Violation(index, "n finite" if n > 0 else "0 < n", f"n = {n!r}"))
        if not 0 <= d < math.inf:
            out.append(Violation(index, "d finite" if d >= 0 else "0 <= d", f"d = {d!r}"))
    elif isinstance(element, Spherical):
        r = element.radius
        if r == 0:
            out.append(Violation(index, "R != 0", "spherical interface with R = 0"))
        elif not -math.inf < r < math.inf:
            out.append(Violation(index, "R finite", f"R = {r!r}"))
    return out


def _labelled_report(components: tuple[OpticalComponent, ...], before=(), after=()) -> ValidationReport:
    """The one walk that validates systems and resonators: before, components, after."""
    violations: list[Violation] = []
    for index, element in before:
        violations += element_violations(element, index)
    for i, comp in enumerate(components):
        violations += element_violations(comp.space, i)
        violations += element_violations(comp.iface, i)
    for index, element in after:
        violations += element_violations(element, index)
    return ValidationReport(tuple(violations))


def validate_system(sys: OpticalSystem) -> ValidationReport:
    """Report every violated validity constraint of a system (empty == valid)."""
    return _labelled_report(sys.components, after=((None, sys.terminal),))


def _interface_entries(
    iface: OpticalInterface, kind: InterfaceKind, n0: float, n1: float
) -> tuple[float, float]:
    """Lower row (C, D) of the interface matrix [[1, 0], [C, D]]; inputs valid."""
    if isinstance(iface, Spherical):
        if kind is InterfaceKind.TRANSMITTED:
            try:
                return (n0 - n1) / (n1 * iface.radius), n0 / n1
            except ZeroDivisionError:
                # n1 * R underflowed to zero; dividing in two steps gives the
                # exact 0 of matched indices, and inf where the power overflows
                return (n0 - n1) / n1 / iface.radius, n0 / n1
        return -2.0 / iface.radius, 1.0
    if kind is InterfaceKind.TRANSMITTED:
        return 0.0, n0 / n1
    return 0.0, 1.0


def free_space_matrix(fs: FreeSpace) -> Mat2:
    """Translation matrix [[1, d], [0, 1]] of a valid free space."""
    bad = element_violations(fs, "free space")
    if bad:
        raise InvalidComponent(str(bad[0]))
    return Mat2(1.0, fs.d, 0.0, 1.0)


def interface_matrix(
    iface: OpticalInterface, kind: InterfaceKind, n0: float, n1: float
) -> Mat2:
    """Refraction or reflection matrix of an interface between indices n0, n1."""
    if not (0 < n0 < math.inf and 0 < n1 < math.inf):
        raise InvalidComponent(f"indices must be positive and finite, got n0 = {n0!r}, n1 = {n1!r}")
    bad = element_violations(iface, None)
    if bad:
        raise InvalidComponent(bad[0].detail)
    c, e = _interface_entries(iface, kind, n0, n1)
    return Mat2(1.0, 0.0, c, e)


def _next_index(sys: OpticalSystem, i: int) -> float:
    if i + 1 < len(sys.components):
        return sys.components[i + 1].space.n
    return sys.terminal.n


def element_matrices(sys: OpticalSystem) -> list[Mat2]:
    """Per-element matrices in traversal order.

    Each component yields its free-space matrix then its interface matrix;
    the terminal free space yields one final translation matrix.  This is the
    reference form of the system: `system_composition` and `trace_ray` give
    bit for bit what folding and stepping through these matrices gives.
    """
    validate_system(sys).require(InvalidSystem)
    mats: list[Mat2] = []
    for i, comp in enumerate(sys.components):
        mats.append(free_space_matrix(comp.space))
        mats.append(interface_matrix(comp.iface, comp.kind, comp.space.n, _next_index(sys, i)))
    mats.append(free_space_matrix(sys.terminal))
    return mats


def _pair_entries(sys: OpticalSystem) -> list[tuple[float, float, float]]:
    """(d, C, D) of each component of a valid system.

    A component is its free space [[1, d], [0, 1]] followed by its interface
    [[1, 0], [C, D]].
    """
    comps = sys.components
    next_n = [comp.space.n for comp in comps[1:]]
    next_n.append(sys.terminal.n)
    entries = []
    for comp, n1 in zip(comps, next_n):
        c, e = _interface_entries(comp.iface, comp.kind, comp.space.n, n1)
        entries.append((comp.space.d, c, e))
    return entries


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidSystem(f"{what} overflows double precision: {values!r}")


def system_composition(sys: OpticalSystem) -> Mat2:
    """Ray-transfer matrix of the whole system.

    Product of the per-element matrices in reverse traversal order, so the
    last element sits leftmost and the matrix acts on input (y, theta).  The
    product is folded in four local floats with the operations of `mat2_mul`
    in its order (only the exact products 1.0 * x are left out), so it equals
    the `mat2_mul` fold of `element_matrices` bit for bit.
    """
    validate_system(sys).require(InvalidSystem)
    return _fold(sys)


def _fold(sys: OpticalSystem) -> Mat2:
    """`system_composition` of a system the caller has already validated."""
    a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
    for d, c, e in _pair_entries(sys):
        # free space [[1, d], [0, 1]] . acc
        a11, a12, a21, a22 = a11 + d * a21, a12 + d * a22, 0.0 * a11 + a21, 0.0 * a12 + a22
        # interface [[1, 0], [c, e]] . acc
        a11, a12, a21, a22 = a11 + 0.0 * a21, a12 + 0.0 * a22, c * a11 + e * a21, c * a12 + e * a22
    d = sys.terminal.d
    a11, a12, a21, a22 = a11 + d * a21, a12 + d * a22, 0.0 * a11 + a21, 0.0 * a12 + a22
    _require_finite("composed matrix", a11, a12, a21, a22)
    return Mat2(a11, a12, a21, a22)


def trace_ray(sys: OpticalSystem, source: RayState) -> RayTrace:
    """Step a ray through the system element by element.

    The recorded states are the source, the state just after each component
    (free space traversed and interface applied), and the state after the
    terminal free space.  The final state always equals the composed-matrix
    action on the source; `system_composition` and this stepper are
    independent code paths over the same element entries.  Each step repeats
    the operations of `mat2_apply`, so the states equal stepping through
    `element_matrices` bit for bit.
    """
    validate_system(sys).require(InvalidSystem)
    y, theta = float(source.y), float(source.theta)
    states = [source]
    for d, c, e in _pair_entries(sys):
        y, theta = y + d * theta, 0.0 * y + theta
        y, theta = y + 0.0 * theta, c * y + e * theta
        states.append(RayState(y, theta))
    d = sys.terminal.d
    y, theta = y + d * theta, 0.0 * y + theta
    _require_finite("traced ray", y, theta)
    states.append(RayState(y, theta))
    return RayTrace(tuple(states))
