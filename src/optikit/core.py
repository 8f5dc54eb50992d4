"""Small exact-shape numeric kernel.

2x2 real matrices, real and complex 3-vectors, the closed-form power of a
unimodular 2x2 matrix, coplanarity, and Moebius transforms.  Everything here
is an immutable value and every function is pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, SingularTransform

__all__ = [
    "Mat2",
    "RVec3",
    "CVec3",
    "IDENTITY2",
    "mat2_mul",
    "mat2_apply",
    "sylvester_power",
    "ccross",
    "cdot",
    "coplanar",
    "mobius",
]


@dataclass(frozen=True)
class Mat2:
    """2x2 real matrix, row-major entries."""

    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def half_trace(self) -> float:
        return 0.5 * (self.a11 + self.a22)


IDENTITY2 = Mat2(1.0, 0.0, 0.0, 1.0)


def mat2_mul(a: Mat2, b: Mat2) -> Mat2:
    """Matrix product a . b."""
    return Mat2(
        a.a11 * b.a11 + a.a12 * b.a21,
        a.a11 * b.a12 + a.a12 * b.a22,
        a.a21 * b.a11 + a.a22 * b.a21,
        a.a21 * b.a12 + a.a22 * b.a22,
    )


def mat2_apply(m: Mat2, v: tuple[float, float]) -> tuple[float, float]:
    """Matrix-vector product m . v for a column pair v."""
    return (m.a11 * v[0] + m.a12 * v[1], m.a21 * v[0] + m.a22 * v[1])


def sylvester_power(m: Mat2, n: int) -> Mat2:
    """N-th power of a near-unimodular 2x2 matrix in closed form.

    The eigenvalues of m are r exp(+-j theta) with r = sqrt(det) and
    theta = atan2(sqrt(det - ht**2), ht), ht the half-trace, so by
    Cayley-Hamilton (Siegman, *Lasers*, the ray-matrix chapter)

        m^n = r^(n-1) / sin(theta) * [sin(n theta) m - r sin((n-1) theta) I].

    Keeping r, rather than assuming det = 1, makes this the power of the
    rounded matrix itself: a computed round trip has det = 1 +- O(1e-15),
    and r^n differs from 1 by about n times that.

    Requires det(m) = 1 within 1e-9 and |half-trace| < 1 with ht**2 < det,
    so that theta is well defined with sin(theta) != 0.

    Error bound: with eps = 2**-53, |m| the largest of 1 and the entry
    magnitudes of m, and s the same for the exact m^n, each entry is
    within 8 max(n, 1) eps |m|**2 s / sin(theta) of the exact m^n.  The
    n eps / sin(theta) is the conditioning of sin(n theta) on the rounded
    theta, which no formula for the rounded matrix removes.
    """
    if n < 0:
        raise DomainError("power must be non-negative")
    det = m.det()
    if not abs(det - 1.0) <= 1e-9:  # fails closed on a NaN det
        raise DomainError(f"matrix is not unimodular: det = {det!r}")
    ht = m.half_trace()
    if not (abs(ht) < 1.0 and ht * ht < det):
        raise DomainError(f"|half-trace| must be < min(1, sqrt(det)), got {ht!r}")
    r = math.sqrt(det)
    theta = math.atan2(math.sqrt(det - ht * ht), ht)
    scale = r ** (n - 1) / math.sin(theta)
    sn = scale * math.sin(n * theta)
    snm1 = scale * r * math.sin((n - 1) * theta)
    return Mat2(m.a11 * sn - snm1, m.a12 * sn, m.a21 * sn, m.a22 * sn - snm1)


@dataclass(frozen=True)
class RVec3:
    """Real 3-vector."""

    x: float
    y: float
    z: float

    def __add__(self, other: "RVec3") -> "RVec3":
        return RVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "RVec3") -> "RVec3":
        return RVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, s: float) -> "RVec3":
        return RVec3(s * self.x, s * self.y, s * self.z)

    def dot(self, other: "RVec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "RVec3") -> "RVec3":
        return RVec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_complex(self) -> "CVec3":
        return CVec3(complex(self.x), complex(self.y), complex(self.z))


@dataclass(frozen=True)
class CVec3:
    """Complex 3-vector."""

    x: complex
    y: complex
    z: complex

    def __add__(self, other: "CVec3") -> "CVec3":
        return CVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "CVec3") -> "CVec3":
        return CVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, s: complex) -> "CVec3":
        return CVec3(s * self.x, s * self.y, s * self.z)

    def norm(self) -> float:
        return math.sqrt(abs(self.x) ** 2 + abs(self.y) ** 2 + abs(self.z) ** 2)

    def max_abs(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


def ccross(u: CVec3, v: CVec3) -> CVec3:
    """Component-wise complex cross product u x v."""
    return CVec3(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


def cdot(u: CVec3, v: CVec3) -> complex:
    """Bilinear complex dot product (no conjugation).

    This is the geometric product for which u . (u x v) = 0 holds identically;
    Hermitian pairings belong to the quantum module.
    """
    return u.x * v.x + u.y * v.y + u.z * v.z


def coplanar(points: Sequence[RVec3], tol: float = 1e-12) -> bool:
    """True iff all points lie in one plane.

    Checks every scalar triple product of difference vectors from the first
    point against tol scaled by the magnitudes of the three factors.
    """
    if len(points) == 0:
        raise DomainError("coplanar needs at least one point")
    if len(points) <= 3:
        return True
    origin = points[0]
    diffs = [p - origin for p in points[1:]]
    m = len(diffs)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                triple = diffs[i].dot(diffs[j].cross(diffs[k]))
                scale = diffs[i].norm() * diffs[j].norm() * diffs[k].norm()
                if abs(triple) > tol * scale:
                    return False
    return True


def mobius(m: Mat2, q: complex) -> complex:
    """Moebius action (a11*q + a12) / (a21*q + a22) of a 2x2 matrix: finite, or an OptikitError."""
    den = m.a21 * q + m.a22
    # abs() of a finite complex can overflow, so it sees only tiny components
    if abs(den.real) < 1e-300 and abs(den.imag) < 1e-300 and abs(den) < 1e-300:
        raise SingularTransform(f"denominator {den!r} vanishes for q = {q!r}")
    out = (m.a11 * q + m.a12) / den
    if not cmath.isfinite(out):
        raise DomainError(f"q must be finite, got {out!r}")
    return out
