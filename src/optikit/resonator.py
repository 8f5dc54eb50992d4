"""Optical resonators: unfolding, the half-trace stability criterion, and a
brute-force ray-bound oracle.

A resonator is two reflecting end interfaces with optional components in
between.  Stability analysis unfolds N cavity round trips into an ordinary
sequential system; with M the one-round-trip matrix, the resonator is stable
when det M = 1 and -1 < (M11 + M22)/2 < 1 (strictly).  Rays in a stable
cavity stay bounded for any number of round trips; the `ray_bound_oracle`
checks this directly by iteration.

One round trip runs: forward through the inner components, across the cavity
space, reflect on the right interface, back through the inner components in
reverse, reflect on the left interface.  On the way back each transmitted
interface is crossed with its index ratio inverted (n1/n0 instead of n0/n1),
which keeps the round-trip determinant at 1.

Cost: each entry point validates the resonator once.  Its round trip holds
only the resonator's own elements, so `round_trip_matrix` folds it unchecked.
"""

from __future__ import annotations

import math

from .core import Mat2, Value, mat2_apply
from .errors import DomainError, InvalidResonator, NonUnimodular
from .rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    RayState,
    Spherical,
    ValidationReport,
    _fold,
    _labelled_report,
)

__all__ = [
    "Resonator",
    "StabilityVerdict",
    "OracleResult",
    "validate_resonator",
    "unfold_resonator",
    "round_trip_matrix",
    "stability",
    "stability_from_matrix",
    "ray_bound_oracle",
    "fp_resonator",
    "UNIMODULAR_TOL",
    "MARGINAL_TOL",
]

# det must match 1 this closely before the half-trace criterion applies
UNIMODULAR_TOL = 1e-6
# |half-trace| this close to 1 is reported as marginal, never stable
MARGINAL_TOL = 1e-9


class Resonator(Value):
    """Left interface, inner components, cavity free space, right interface."""

    __slots__ = ("left", "inner", "space", "right")


class StabilityVerdict(Value):
    __slots__ = ("det", "half_trace", "stable", "marginal")

    @property
    def verdict(self) -> str:
        if self.marginal:
            return "marginal"
        return "stable" if self.stable else "unstable"


class OracleResult(Value):
    __slots__ = ("max_y", "max_theta", "diverged")


def validate_resonator(res: Resonator) -> ValidationReport:
    """Report every violated validity clause of a resonator (empty == valid)."""
    ends = (("cavity space", res.space), ("right mirror", res.right))
    return _labelled_report(res.inner, (("left mirror", res.left),), ends)


def _round_trip(res: Resonator) -> OpticalSystem:
    """One cavity round trip as a sequential system, unchecked."""
    reflected = InterfaceKind.REFLECTED
    trip = list(res.inner)
    trip.append(OpticalComponent(res.space, res.right, reflected))
    # Return leg: the cavity space now precedes the last inner interface,
    # each earlier interface is preceded by the space that followed it on
    # the way in, and the first inner space (the cavity space when there is
    # none) leads back to the left mirror.  With the n0/n1 pairing rule this
    # inverts every transmitted index ratio on the way back.
    spaces = [res.space] + [c.space for c in reversed(res.inner)]
    for space, comp in zip(spaces, reversed(res.inner)):
        trip.append(OpticalComponent(space, comp.iface, comp.kind))
    trip.append(OpticalComponent(spaces[-1], res.left, reflected))
    return OpticalSystem(tuple(trip), FreeSpace(res.space.n, 0.0))


def unfold_resonator(res: Resonator, n_round_trips: int) -> OpticalSystem:
    """Sequential optical system equivalent to N cavity round trips."""
    validate_resonator(res).require(InvalidResonator)
    if n_round_trips < 1:
        raise InvalidResonator(f"need at least one round trip, got {n_round_trips}")
    trip = _round_trip(res)
    return OpticalSystem(trip.components * n_round_trips, trip.terminal)


def round_trip_matrix(res: Resonator) -> Mat2:
    validate_resonator(res).require(InvalidResonator)
    return _fold(_round_trip(res))


def stability_from_matrix(m: Mat2) -> StabilityVerdict:
    """Half-trace criterion on a round-trip matrix.

    The criterion presumes det M = 1; a determinant off by more than
    UNIMODULAR_TOL raises NonUnimodular instead of guessing.  Half-trace
    exactly on the +-1 boundary (within MARGINAL_TOL) is reported as
    marginal, not stable: boundedness genuinely fails there for defective
    round-trip matrices.
    """
    det = m.det()
    if not abs(det - 1.0) <= UNIMODULAR_TOL:  # fails closed on a NaN det
        raise NonUnimodular(f"round-trip det = {det!r}; criterion needs det = 1")
    ht = m.half_trace()
    marginal = abs(abs(ht) - 1.0) <= MARGINAL_TOL
    stable = (-1.0 < ht < 1.0) and not marginal
    return StabilityVerdict(det=det, half_trace=ht, stable=stable, marginal=marginal)


def stability(res: Resonator) -> StabilityVerdict:
    """Half-trace criterion on the one-round-trip matrix of a resonator."""
    return stability_from_matrix(round_trip_matrix(res))


def ray_bound_oracle(
    res: Resonator, source: RayState, n_max: int, divergence_factor: float = 1e9
) -> OracleResult:
    """Iterate the round-trip matrix and watch the ray bounds directly.

    Checks boundedness only up to n_max round trips, so a "not diverged"
    answer is evidence, not proof; divergence past
    divergence_factor * (initial scale + 1) is decisive.  DomainError is
    raised for a non-finite source and for a limit that is not a positive
    finite float, which a NaN or inf state could never cross, and for a
    state that overflows to NaN before crossing the limit.
    """
    if n_max < 1:
        raise InvalidResonator(f"need at least one round trip, got {n_max}")
    if not (math.isfinite(source.y) and math.isfinite(source.theta)):
        raise DomainError(f"source ray must be finite, got y={source.y!r}, theta={source.theta!r}")
    limit = divergence_factor * (max(abs(source.y), abs(source.theta)) + 1.0)
    if not 0.0 < limit < math.inf:
        raise DomainError(f"divergence limit must be positive and finite, got {limit!r}")
    m = round_trip_matrix(res)
    v = source.as_pair()
    max_y = abs(v[0])
    max_theta = abs(v[1])
    diverged = False
    for _ in range(n_max):
        v = mat2_apply(m, v)
        max_y = max(max_y, abs(v[0]))
        max_theta = max(max_theta, abs(v[1]))
        if max_y > limit or max_theta > limit:
            diverged = True
            break
    if not diverged and not (math.isfinite(v[0]) and math.isfinite(v[1])):
        # opposite products overflowed to inf - inf: NaN never enters the
        # maxima, and the true amplitude is beyond double precision
        raise DomainError("ray state overflowed double precision within the divergence limit")
    return OracleResult(max_y=max_y, max_theta=max_theta, diverged=diverged)


def fp_resonator(R: float, d: float, n: float) -> Resonator:
    """Two-mirror cavity: spherical mirrors of equal radius R a distance d apart.

    Requires R != 0, d >= 0, n > 0.  Stable (per the half-trace criterion)
    exactly when 0 < d < 2R with d != R; the round-trip half-trace is
    2*(1 - d/R)**2 - 1.
    """
    res = Resonator(left=Spherical(R), inner=(), space=FreeSpace(n, d), right=Spherical(R))
    validate_resonator(res).require(InvalidResonator)
    return res
