"""Small exact-shape numeric kernel.

2x2 real matrices, real and complex 3-vectors, the closed-form power of a
unimodular 2x2 matrix, coplanarity, and Moebius transforms.  Everything here
is an immutable value and every function is pure.

Value types: every type on the ray path (here and in `rayoptics`,
`gaussian`, `resonator` and `sysdesc`) derives from `Value`, an immutable
record of the fields its `__slots__` names, in constructor order:

- `==` and `hash` go by the compared fields, all of them unless the type
  says otherwise (the sysdesc directives leave out their source position);
  a value equals only a value of its own class, never a tuple;
- `repr` is `Name(field=value, ...)` over every field;
- assigning or deleting an attribute raises `AttributeError`;
- `pickle`, `copy.copy` and `copy.deepcopy` rebuild a value through its
  constructor, so validation runs again and the copy is equal.

A type that defines no `__init__` gets one generated from its `__slots__`:
one parameter per field, in order, the trailing ones defaulting to the
type's `_defaults` tuple, each field set through its slot's descriptor.  A
type that must validate (`gaussian.QParameter`) writes its own `__init__` and
sets its fields with `object.__setattr__`.  No module on the ray path imports
`dataclasses`: every process would pay for its import, `inspect`'s with it,
and about a millisecond per class.
"""

from __future__ import annotations

import cmath
import math
from types import CodeType, FunctionType
from typing import Sequence

from .errors import DomainError, SingularTransform

__all__ = [
    "Value",
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


class Value:
    """Immutable value, equal, hashed and printed by its fields (module docstring)."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def _key(self) -> tuple:
        """The fields that == and hash compare."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


# code of `__init__(self, _0, ..., _<n-1>)` by field count n: one compile per count
_TEMPLATES: dict[int, CodeType] = {}


def _constructor(cls: type) -> FunctionType:
    """`__init__(self, <cls.__slots__ in order>)`, setting each field through its slot's descriptor.

    The template for the field count is compiled once and renamed, so a class
    costs no compile of its own.
    """
    fields = cls.__slots__
    if len(fields) not in _TEMPLATES:
        params = "".join(f", _{i}" for i in range(len(fields)))
        body = "".join(f"\n    _set{i}(self, _{i})" for i in range(len(fields))) or " pass"
        namespace: dict = {}
        exec(f"def __init__(self{params}):{body}", namespace)
        _TEMPLATES[len(fields)] = namespace["__init__"].__code__
    code = _TEMPLATES[len(fields)].replace(co_varnames=("self",) + fields)
    setters = {f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(fields)}
    init = FunctionType(code, {"__name__": cls.__module__, **setters}, argdefs=cls._defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Mat2(Value):
    """2x2 real matrix, row-major entries."""

    __slots__ = ("a11", "a12", "a21", "a22")

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


class RVec3(Value):
    """Real 3-vector."""

    __slots__ = ("x", "y", "z")

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


class CVec3(Value):
    """Complex 3-vector."""

    __slots__ = ("x", "y", "z")

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


def _scaled_row(a: float, b: float, q: complex) -> tuple[complex, int]:
    """(a*q + b) * 2**-shift, formed from the entries scaled down, and shift >= 0:
    each intermediate stays below 2**1022, so the division's own sums cannot overflow."""
    q_exponent = math.frexp(max(abs(q.real), abs(q.imag)))[1]
    shift = max(math.frexp(a)[1] + q_exponent - 1021, math.frexp(b)[1] - 1021, 0)
    return math.ldexp(a, -shift) * q + math.ldexp(b, -shift), shift


def mobius(m: Mat2, q: complex) -> complex:
    """Moebius action (a11*q + a12) / (a21*q + a22) of a 2x2 matrix: finite, or an OptikitError."""
    num, den = m.a11 * q + m.a12, m.a21 * q + m.a22
    # abs() of a finite complex can overflow, so it sees only tiny components
    if abs(den.real) < 1e-300 and abs(den.imag) < 1e-300 and abs(den) < 1e-300:
        raise SingularTransform(f"denominator {den!r} vanishes for q = {q!r}")
    shift = 0
    if (not (cmath.isfinite(num) and cmath.isfinite(den)) and cmath.isfinite(q)
            and all(map(math.isfinite, (m.a11, m.a12, m.a21, m.a22)))):
        # a row overflowed as it was formed: form the numerator again from its
        # scaled row, and the denominator too when it was the one, and scale
        # the quotient back by the difference of the shifts
        num, shift = _scaled_row(m.a11, m.a12, q)
        if not cmath.isfinite(den):
            den, den_shift = _scaled_row(m.a21, m.a22, q)
            shift -= den_shift
    # complex division overflows internally near the double limit; 1/4 scales exactly
    if max(abs(den.real), abs(den.imag)) >= 2.0**1022:
        num, den = complex(num.real / 4, num.imag / 4), complex(den.real / 4, den.imag / 4)
    out = num / den
    if shift:
        try:
            out = complex(math.ldexp(out.real, shift), math.ldexp(out.imag, shift))
        except OverflowError:
            raise DomainError(f"the quotient leaves the float range for q = {q!r}") from None
    if not cmath.isfinite(out):
        raise DomainError(f"q must be finite, got {out!r}")
    return out
