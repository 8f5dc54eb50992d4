"""Small exact-shape numeric kernel.

2x2 real matrices, real and complex 3-vectors, the closed-form power of a
unimodular 2x2 matrix, coplanarity, and Moebius transforms.  Everything here
is an immutable value and every function is pure.  `RVec3` and `CVec3` share
one `+`, `-`, `scale`, `dot` and `cross`.  Outside reals are read by `_floats`,
`_positive` and, for a vector, `_finite`: as floats, a non-real as a DomainError,
and a Python int past the double range as a signed infinity, which a range clause
then rejects, so no `OverflowError` escapes; `_checkable` reads a number passed on
as is, and a value that is not a `numbers.Number` as a DomainError.

Value types: every record type of the package derives from `Value`, an
immutable record of the fields its `__slots__` names, in constructor order:

- `==` and `hash` go by the fields; a value equals only a value of its own
  class, never a tuple.  `quantum`'s array holders keep `object`'s, by
  identity, as an array has no boolean `==`;
- `repr` is `Name(field=value, ...)` over every field;
- assigning or deleting an attribute raises `AttributeError`;
- `pickle`, `copy.copy` and `copy.deepcopy` rebuild a value through its
  constructor, so validation runs again and the copy has equal fields;
- a `Checked` value keeps what its check found in one more slot, `_check`,
  None from its constructor, which none of the above reads.

A type that defines no `__init__` gets one generated from its `__slots__`:
one parameter per field, in order, the trailing ones defaulting to the
type's `_defaults` tuple, each field set through its slot's descriptor.  A
type that must validate or convert (`gaussian.QParameter`,
`quantum.StateVector`) writes its own `__init__` and sets its fields with
`object.__setattr__`.  No module imports `dataclasses`: every process would
pay for its import, `inspect`'s with it, and about a millisecond per class.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import combinations
from sys import float_info
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


# code of `__init__(self, _0, ..., _<n-1>)` by field count n and whether it starts `_check`: one compile each
_TEMPLATES: dict[tuple[int, bool], CodeType] = {}


def _constructor(cls: type) -> FunctionType:
    """`__init__(self, <cls.__slots__ in order>)`, setting each field through its slot's descriptor.

    The template for the field count, and whether the class is `Checked`, is
    compiled once and renamed, so a class costs no compile of its own.
    """
    fields, key = cls.__slots__, (len(cls.__slots__), hasattr(cls, "_check"))
    if key not in _TEMPLATES:
        params = "".join(f", _{i}" for i in range(len(fields)))
        body = "".join(f"\n    _set{i}(self, _{i})" for i in range(len(fields)))
        if key[1]:  # a `Checked` value starts with no check kept
            body += "\n    object.__setattr__(self, '_check', None)"
        namespace: dict = {}
        exec(f"def __init__(self{params}):{body or ' pass'}", namespace)
        _TEMPLATES[key] = namespace["__init__"].__code__
    code = _TEMPLATES[key].replace(co_varnames=("self",) + fields)
    setters = {f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(fields)}
    init = FunctionType(code, {"__name__": cls.__module__, **setters}, argdefs=cls._defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Checked(Value):
    __slots__ = ("_check",)  # one slot outside the fields, for what a check of the value found (module docstring)


class Mat2(Value):
    """2x2 real matrix, row-major entries."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


IDENTITY2 = Mat2(1.0, 0.0, 0.0, 1.0)


def mat2_mul(a: Mat2, b: Mat2) -> Mat2:
    """Matrix product a . b."""
    a11, a12, a21, a22 = _floats(a.a11, a.a12, a.a21, a.a22)
    b11, b12, b21, b22 = _floats(b.a11, b.a12, b.a21, b.a22)
    return Mat2(
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def mat2_apply(m: Mat2, v: tuple[float, float]) -> tuple[float, float]:
    """Matrix-vector product m . v for a column pair v."""
    a11, a12, a21, a22 = _floats(m.a11, m.a12, m.a21, m.a22)
    y, theta = _floats(*v)
    return (a11 * y + a12 * theta, a21 * y + a22 * theta)


def sylvester_power(m: Mat2, n: int) -> Mat2:
    """N-th power of a near-unimodular 2x2 matrix in closed form.

    The eigenvalues of m are r exp(+-j theta) with r = sqrt(det) and
    theta = atan2(sqrt(det - ht**2), ht), ht the half-trace, so by
    Cayley-Hamilton (Siegman, *Lasers*, the ray-matrix chapter)

        m^n = r^(n-1) / sin(theta) * [sin(n theta) m - r sin((n-1) theta) I].

    Keeping r, rather than assuming det = 1, makes this the power of the
    rounded matrix itself: a computed round trip has det = 1 +- O(1e-15),
    and r^n differs from 1 by about n times that.

    Requires an integer n >= 0, det(m) = 1 within 1e-9 and |half-trace| < 1 with ht**2 < det
    (theta well defined, sin(theta) != 0), and r**(n - 1) and n theta within the double range.

    Error bound: with eps = 2**-53, |m| the largest of 1 and the entry
    magnitudes of m, and s the same for the exact m^n, each entry is
    within 8 max(n, 1) eps |m|**2 s / sin(theta) of the exact m^n.  The
    n eps / sin(theta) is the conditioning of sin(n theta) on the rounded
    theta, which no formula for the rounded matrix removes.
    """
    if not (hasattr(n, "__index__") and (n := operator.index(n)) >= 0):
        raise DomainError("power must be a non-negative integer")
    a11, a12, a21, a22 = _floats(m.a11, m.a12, m.a21, m.a22)
    det = a11 * a22 - a12 * a21
    if not abs(det - 1.0) <= 1e-9:  # fails closed on a NaN det
        raise DomainError(f"matrix is not unimodular: det = {det!r}")
    ht = 0.5 * (a11 + a22)
    if not (abs(ht) < 1.0 and ht * ht < det):
        raise DomainError(f"|half-trace| must be < min(1, sqrt(det)), got {ht!r}")
    r = math.sqrt(det)
    theta = math.atan2(math.sqrt(det - ht * ht), ht)
    try:  # r**(n - 1) or n theta beyond the double range: OverflowError, or ValueError from sin(inf)
        scale = r ** (n - 1) / math.sin(theta)
        sn = scale * math.sin(n * theta)
        snm1 = scale * r * math.sin((n - 1) * theta)
    except (OverflowError, ValueError):
        raise DomainError(f"the power leaves the double range at det = {det!r}, ht = {ht!r}") from None
    return Mat2(a11 * sn - snm1, a12 * sn, a21 * sn, a22 * sn - snm1)


class _Vec3(Value):
    """Parts x, y, z: +, -, scale, the bilinear dot (no conjugation, so u . (u x v) = 0) and cross, of self's class."""

    __slots__ = ()

    def __add__(self, other: _Vec3) -> _Vec3:
        return self.__class__(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: _Vec3) -> _Vec3:
        return self.__class__(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, s: complex) -> _Vec3:
        return self.__class__(s * self.x, s * self.y, s * self.z)

    def dot(self, other: _Vec3) -> complex:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: _Vec3) -> _Vec3:
        return self.__class__(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )


class RVec3(_Vec3):
    """Real 3-vector."""

    __slots__ = ("x", "y", "z")

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_complex(self) -> "CVec3":
        return CVec3(complex(self.x), complex(self.y), complex(self.z))


class CVec3(_Vec3):
    """Complex 3-vector."""

    __slots__ = ("x", "y", "z")

    def max_abs(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


def coplanar(points: Sequence[RVec3]) -> bool:
    """True iff all points lie in one plane.

    Checks every scalar triple product of difference vectors from the first
    point against 1e-12 scaled by the magnitudes of the three factors.  Each
    difference is scaled by a power of two first: that keeps its direction
    exactly, and keeps the triple products from overflowing, or underflowing
    to 0; one that overflows is taken from the halved points, where it is finite.
    DomainError, naming the point, unless each part of each point is finite.
    """
    if len(points) == 0:
        raise DomainError("coplanar needs at least one point")
    points = [_finite(p, f"point {i}") for i, p in enumerate(points)]
    origin, diffs = points[0], []
    for p in points[1:]:
        d = p - origin
        if not math.isfinite(max(abs(d.x), abs(d.y), abs(d.z))):
            d = p.scale(0.5) - origin.scale(0.5)
        e = math.frexp(max(abs(d.x), abs(d.y), abs(d.z)))[1]
        diffs.append(RVec3(math.ldexp(d.x, -e), math.ldexp(d.y, -e), math.ldexp(d.z, -e)))
    for a, b, c in combinations(diffs, 3):
        triple = a.dot(b.cross(c))
        scale = a.norm() * b.norm() * c.norm()
        if abs(triple) > 1e-12 * scale:
            return False
    return True


def _checkable(x: float) -> float:
    """x for the range clauses: a Python int beyond the double range reads as a signed infinity, a non-number raises."""
    if x.__class__ is not float and x.__class__ is not complex:
        import numbers  # here: a process that reads only floats and complexes never imports it
        if not isinstance(x, numbers.Number):
            raise DomainError(f"expected a number, got {x!r}")
        if isinstance(x, int) and not -float_info.max <= x <= float_info.max:
            return math.inf if x > 0 else -math.inf
    return x


def _real(x: object) -> float | None:
    """x as `_checkable` reads it where x is a real number (a `numbers.Real`), else None."""
    import numbers  # here: a process that reads only floats never imports it
    return _checkable(x) if isinstance(x, numbers.Real) else None


def _floats(*xs: float) -> tuple[float, ...]:
    """xs as floats, read as `_real` reads them (DomainError for a non-real); xs itself when each is a float."""
    for x in xs:
        if x.__class__ is not float:
            reals = tuple(map(_real, xs))
            if None in reals:
                raise DomainError(f"expected a real number, got {xs[reals.index(None)]!r}")
            return tuple(map(float, reals))
    return xs


def _positive(what: str, *xs: float) -> tuple[float, ...]:
    """`_floats(*xs)`; DomainError, naming what, unless each is positive and finite."""
    for x in xs:
        if x.__class__ is not float or not 0 < x < math.inf:
            xs = _floats(*xs)
            if not all(0 < x < math.inf for x in xs):
                raise DomainError(f"{what} must be positive and finite, got {', '.join(map(repr, xs))}")
            break
    return xs


def _finite(v: RVec3, name: str) -> RVec3:
    """v with its parts as floats; DomainError, naming v, unless each is finite."""
    v = RVec3(*_floats(v.x, v.y, v.z))
    if not all(map(math.isfinite, (v.x, v.y, v.z))):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def _split(z: complex) -> tuple[complex, int]:
    """(m, e) with z = m * 2**e and the larger part of m in [0.5, 1), or (z, 0) at 0: exact,
    but for the bits of a smaller part that lie below 2**(e - 1074), which round away."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _scaled_row(a: float, b: float, q: complex) -> tuple[complex, int]:
    """(a*q + b) * 2**-shift, formed from the entries scaled down, and shift >= 0:
    each intermediate stays below 2**1022, so the division's own sums cannot overflow."""
    shift = max(math.frexp(a)[1] + _split(q)[1] - 1021, math.frexp(b)[1] - 1021, 0)
    return math.ldexp(a, -shift) * q + math.ldexp(b, -shift), shift


def mobius(m: Mat2, q: complex) -> complex:
    """Moebius action (a11*q + a12) / (a21*q + a22) of a 2x2 matrix: finite, or an OptikitError.
    num / den as formed where both rows are finite; an overflowing row is formed again, scaled down,
    by `_scaled_row`, and the quotient scaled back; a den part >= 2**1022 divides both rows by 4."""
    a11, a12, a21, a22 = _floats(m.a11, m.a12, m.a21, m.a22)
    q = _checkable(q)
    num, den = a11 * q + a12, a21 * q + a22
    # abs() of a finite complex can overflow, so it sees only tiny components
    if abs(den.real) < 1e-300 and abs(den.imag) < 1e-300 and abs(den) < 1e-300:
        raise SingularTransform(f"denominator {den!r} vanishes for q = {q!r}")
    shift = 0
    if (not (cmath.isfinite(num) and cmath.isfinite(den)) and cmath.isfinite(q)
            and all(map(math.isfinite, (a11, a12, a21, a22)))):
        num, shift = _scaled_row(a11, a12, q)
        if not cmath.isfinite(den):
            den, den_shift = _scaled_row(a21, a22, q)
            shift -= den_shift
    if max(abs(den.real), abs(den.imag)) >= 2.0**1022:  # division overflows inside; 1/4 is exact
        num, den = complex(num.real / 4, num.imag / 4), complex(den.real / 4, den.imag / 4)
    out = num / den
    if not cmath.isfinite(out) and cmath.isfinite(num) and cmath.isfinite(den):
        # Smith's method overflowed inside, in num.real + num.imag * ratio; 1/4 of num cannot
        out, shift = complex(num.real / 4, num.imag / 4) / den, shift + 2
    if shift:
        try:
            out = complex(math.ldexp(out.real, shift), math.ldexp(out.imag, shift))
        except OverflowError:
            raise DomainError(f"the quotient leaves the float range for q = {q!r}") from None
    if not cmath.isfinite(out):
        raise DomainError(f"q must be finite, got {out!r}")
    return out
