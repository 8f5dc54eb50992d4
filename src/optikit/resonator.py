"""Optical resonators: the round-trip matrix, the half-trace stability
criterion, and a brute-force ray-bound oracle.

A resonator is two reflecting end interfaces with optional components in
between.  One cavity round trip is folded, element by element, into M; the
resonator is stable when det M = 1 and -1 < (M11 + M22)/2 < 1 (strictly).
Rays in a stable cavity stay bounded for any number of round trips; the
`ray_bound_oracle` checks this directly by iteration.  The reference, N round
trips unfolded by the rule below, is in `tests/helpers.py`.

One round trip runs: forward through the inner components, across the cavity
space, reflect on the right interface, back through the inner components in
reverse, reflect on the left interface.  On the way back each transmitted
interface is crossed with its index ratio inverted (n1/n0 instead of n0/n1),
so det M = 1, and a spherical one, now seen from behind, with radius -R.

Cost: `round_trip_matrix` validates the resonator and folds its round trip
unchecked, building no component or system: `rayoptics`' one pairing function
gives the entries of the way in, and of the way back from the reversed
sequences with its from-behind flag, the one place that applies -R.  A
resonator whose inner components are a tuple keeps the matrix in its `_check`
slot (`core.Checked`), so `stability` and `ray_bound_oracle` check it once.
`ray_bound_oracle` is O(n_max), stepping (y, theta) in local floats with the
operations of `mat2_apply`, so its result equals that stepping bit for bit.
Per trip it compares the state with the running extremes [lo, hi] of y and of
theta, with no call, and tests the limit only on a trip that moves one (or on
the first, when the source is already beyond it); each maximum is max(hi, -lo).
"""

from __future__ import annotations

import math

from .core import Checked, Mat2, Value, _floats, _positive
from .errors import DomainError, InvalidResonator, NonUnimodular
from .rayoptics import (
    FreeSpace,
    InterfaceKind,
    RayState,
    Spherical,
    ValidationReport,
    _IFACE,
    _fold,
    _labelled_report,
    _pair_entries,
    _source_floats,
)

__all__ = [
    "Resonator",
    "StabilityVerdict",
    "OracleResult",
    "validate_resonator",
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


class Resonator(Checked):
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
    ends = (("cavity space", res.space, (FreeSpace,)), ("right mirror", res.right, _IFACE))
    return _labelled_report(res.inner, (("left mirror", res.left, _IFACE),), ends, "inner components")


def round_trip_matrix(res: Resonator) -> Mat2:
    if (m := res._check) is not None:
        return m
    validate_resonator(res).require(InvalidResonator)
    reflected, n = InterfaceKind.REFLECTED, res.space.n
    spaces = [c.space for c in res.inner] + [res.space]
    ifaces, kinds = [c.iface for c in res.inner], [c.kind for c in res.inner]
    # the way back crosses the spaces in reverse: each index ratio inverts
    entries = _pair_entries(spaces, [*ifaces, res.right], [*kinds, reflected], n)
    entries += _pair_entries(spaces[::-1], [*ifaces[::-1], res.left], [*kinds[::-1], reflected], n, True)
    m = _fold(entries, 0.0)
    if type(res.inner) is tuple:
        object.__setattr__(res, "_check", m)
    return m


def stability_from_matrix(m: Mat2) -> StabilityVerdict:
    """Half-trace criterion on a round-trip matrix.

    The criterion presumes det M = 1; a determinant off by more than
    UNIMODULAR_TOL raises NonUnimodular instead of guessing.  Half-trace
    exactly on the +-1 boundary (within MARGINAL_TOL) is reported as
    marginal, not stable: boundedness genuinely fails there for defective
    round-trip matrices.
    """
    a11, a12, a21, a22 = _floats(m.a11, m.a12, m.a21, m.a22)
    det = a11 * a22 - a12 * a21
    if not abs(det - 1.0) <= UNIMODULAR_TOL:  # fails closed on a NaN det
        raise NonUnimodular(f"round-trip det = {det!r}; criterion needs det = 1")
    ht = 0.5 * (a11 + a22)
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
    if not hasattr(n_max, "__index__"):
        raise InvalidResonator(f"round trips must be an integer count, got {n_max!r}")
    if n_max < 1:
        raise InvalidResonator(f"need at least one round trip, got {n_max}")
    y, theta = _source_floats(source)
    (factor,) = _floats(divergence_factor)
    (limit,) = _positive("divergence limit", factor * (max(abs(y), abs(theta)) + 1.0))
    m = round_trip_matrix(res)
    a11, a12, a21, a22 = m.a11, m.a12, m.a21, m.a22
    y_hi, t_hi = abs(y), abs(theta)
    y_lo, t_lo = -y_hi, -t_hi
    # a source beyond the limit diverges on the first trip, whatever it moves
    diverged = y_hi > limit or t_hi > limit
    for _ in range(1 if diverged else n_max):
        y, theta = a11 * y + a12 * theta, a21 * y + a22 * theta
        # strict comparisons keep the extremes on ties and NaN, as `max` does
        if y > y_hi or y < y_lo or theta > t_hi or theta < t_lo:
            if y > y_hi:
                y_hi = y
            elif y < y_lo:
                y_lo = y
            if theta > t_hi:
                t_hi = theta
            elif theta < t_lo:
                t_lo = theta
            if y_hi > limit or t_hi > limit or y_lo < -limit or t_lo < -limit:
                diverged = True
                break
    if not diverged and not (math.isfinite(y) and math.isfinite(theta)):
        # opposite products overflowed to inf - inf: NaN never enters the
        # maxima, and the true amplitude is beyond double precision
        raise DomainError("ray state overflowed double precision within the divergence limit")
    return OracleResult(max_y=max(y_hi, -y_lo), max_theta=max(t_hi, -t_lo), diverged=diverged)


def fp_resonator(R: float, d: float, n: float) -> Resonator:
    """Two-mirror cavity: spherical mirrors of equal radius R a distance d apart.

    Requires R != 0, d >= 0, n > 0.  Stable (per the half-trace criterion)
    exactly when 0 < d < 2R with d != R; the round-trip half-trace is
    2*(1 - d/R)**2 - 1.
    """
    res = Resonator(left=Spherical(R), inner=(), space=FreeSpace(n, d), right=Spherical(R))
    validate_resonator(res).require(InvalidResonator)
    return res
