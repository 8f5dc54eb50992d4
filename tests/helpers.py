"""Shared generators, comparison helpers and references for the test suite.

The references (`free_space_matrix`, `interface_matrix`, `element_matrices`,
`unfold_resonator`, `annihilator`, `basis`, `vector_residual`) are written from
the formulas in the library's docstrings and use only its public names, so that
a wrong formula in the library shows as a difference from them.
"""

from __future__ import annotations

import cmath
import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np

from optikit.core import CVec3, Mat2, Value, mat2_mul
from optikit.errors import DomainError, OffPlanePoint, OptikitError
from optikit.quantum import Operator, StateVector
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    Spherical,
)
from optikit.resonator import Resonator

# IEEE edge values for float-range properties: signed zeros, subnormals, the
# smallest normal, and magnitudes up to the largest double
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, -1e-300, 1.0, -1.0,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max,
]
# Python ints at and beyond the double range: 2**1023 converts to a float,
# the others overflow a float() conversion
EDGE_INTS = [2**1023, 2**1024, -(2**1024), 10**400, -(10**400)]


def read_real(x: object) -> float:
    """x as the library reads a real from outside: a float, with an int beyond
    the double range as a signed infinity (reference, independent of `core`)."""
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        return math.inf if x > 0 else -math.inf
    return float(x)


def bits(x: object) -> object:
    """x with every float, inside values and tuples too, as its type and hex form,
    so that == compares bit for bit."""
    if isinstance(x, float):
        return float, x.hex()
    if isinstance(x, Value):
        return type(x), tuple(bits(getattr(x, name)) for name in x.__slots__)
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x


def replace(value: Value, **changes: object) -> Value:
    """value rebuilt through its constructor with the named fields changed, as
    `dataclasses.replace` does for a dataclass; an unknown name is a TypeError."""
    return type(value)(**{**{name: getattr(value, name) for name in value.__slots__}, **changes})


def outcome(fn, *args) -> object:
    """bits of fn(*args), or the type and text of the OptikitError it raises."""
    try:
        return bits(fn(*args))
    except OptikitError as exc:
        return type(exc), str(exc)


def vec3_dot(u, v) -> complex:
    """u . v with no conjugation: the x, y and z products summed left to
    right (reference, written apart from `core`)."""
    return u.x * v.x + u.y * v.y + u.z * v.z


def vec3_cross(u, v) -> tuple:
    """The parts (x, y, z) of u x v, each a difference of two products
    (reference, written apart from `core`)."""
    return (u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z, u.x * v.y - u.y * v.x)


def vec3_add(u, v) -> tuple:
    """The parts of u + v, each a sum of two parts (reference, written apart from `core`)."""
    return (u.x + v.x, u.y + v.y, u.z + v.z)


def vec3_sub(u, v) -> tuple:
    """The parts of u - v, each a difference of two parts (reference, written apart from `core`)."""
    return (u.x - v.x, u.y - v.y, u.z - v.z)


def vec3_scale(u, s) -> tuple:
    """The parts of u scaled by s, each s times a part, s on the left (reference, written apart from `core`)."""
    return (s * u.x, s * u.y, s * u.z)


def vec3_norm(u) -> float:
    """Euclidean length of a real or complex 3-vector, from the squared moduli of its parts."""
    return math.sqrt(abs(u.x) ** 2 + abs(u.y) ** 2 + abs(u.z) ** 2)


def half_trace(m: Mat2) -> float:
    """(a11 + a22) / 2, the stability criterion's half-trace of a round-trip matrix."""
    return 0.5 * (m.a11 + m.a22)


def band_bytes(band) -> bytes:
    """The complex entries of an operator band as (re, im) doubles in native
    order, packed by `struct`: what numpy's `tobytes` gives for a complex128 band."""
    return struct.pack(f"{2 * len(band)}d", *(part for z in band for part in (z.real, z.imag)))


def mat_close(a: Mat2, b: Mat2, rtol: float) -> bool:
    """Entrywise comparison relative to the larger matrix magnitude."""
    scale = max(
        abs(a.a11), abs(a.a12), abs(a.a21), abs(a.a22),
        abs(b.a11), abs(b.a12), abs(b.a21), abs(b.a22),
        1.0,
    )
    return (
        abs(a.a11 - b.a11) <= rtol * scale
        and abs(a.a12 - b.a12) <= rtol * scale
        and abs(a.a21 - b.a21) <= rtol * scale
        and abs(a.a22 - b.a22) <= rtol * scale
    )


def mat_pow_iterative(m: Mat2, n: int) -> Mat2:
    """Brute-force matrix power by repeated multiplication (oracle)."""
    acc = Mat2(1.0, 0.0, 0.0, 1.0)
    for _ in range(n):
        acc = mat2_mul(m, acc)
    return acc


def exact_power(m: Mat2, n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact n-th power of m's float entries, by binary powering over Fraction
    (oracle): row-major (a11, a12, a21, a22)."""

    def mul(a, b):
        return (
            a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3],
        )

    base = tuple(Fraction(x) for x in (m.a11, m.a12, m.a21, m.a22))
    acc = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    while n:
        if n & 1:
            acc = mul(acc, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return acc


def exact_mobius(m: Mat2, q: complex) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts of (a11 q + a12) / (a21 q + a22), exactly over
    Fraction from m's float entries and q (oracle)."""
    a11, a12, a21, a22, x, y = (Fraction(v) for v in (m.a11, m.a12, m.a21, m.a22, q.real, q.imag))
    nr, ni, dr, di = a11 * x + a12, a11 * y, a21 * x + a22, a21 * y
    d2 = dr * dr + di * di
    return ((nr * dr + ni * di) / d2, (ni * dr - nr * di) / d2)


def quotient_close(out: complex, num: complex, den: complex, shift: int = 0) -> bool:
    """Whether out is within 4 ulps of |2**shift num/den|, taken exactly over
    Fraction from the finite doubles num and den, plus 16 subnormal spacings,
    which a subnormal numerator carries through the division scaled by 1/|den|
    and which rounding the scaled quotient into the subnormals adds (oracle)."""
    nr, ni, dr, di = (Fraction(x) for x in (num.real, num.imag, den.real, den.imag))
    d2 = dr * dr + di * di
    scale = Fraction(2) ** shift
    er, ei = scale * (nr * dr + ni * di) / d2, scale * (ni * dr - nr * di) / d2
    err2 = (Fraction(out.real) - er) ** 2 + (Fraction(out.imag) - ei) ** 2
    return err2 <= (er * er + ei * ei) / 2**100 + (1 + 1 / d2) / 2**2140


def random_unimodular(rng: random.Random, ht_limit: float = 0.99) -> Mat2:
    """Random det-1 matrix with |half-trace| <= ht_limit.

    Conjugates a rotation (trace 2 cos theta, det 1) by a well-conditioned
    random matrix; both invariants survive the similarity transform.
    """
    while True:
        s = Mat2(
            rng.uniform(-1, 1), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-1, 1),
        )
        if abs(s.det()) > 0.2:
            break
    ht = rng.uniform(-ht_limit, ht_limit)
    theta = math.acos(ht)
    rot = Mat2(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))
    det = s.det()
    s_inv = Mat2(s.a22 / det, -s.a12 / det, -s.a21 / det, s.a11 / det)
    return mat2_mul(s, mat2_mul(rot, s_inv))


def free_space_matrix(space: FreeSpace) -> Mat2:
    """[[1, d], [0, 1]] of a free space of width d (reference)."""
    return Mat2(1.0, space.d, 0.0, 1.0)


def interface_matrix(iface, kind: InterfaceKind, n0: float, n1: float) -> Mat2:
    """[[1, 0], [C, D]] of an interface from index n0 to index n1, from the
    table in `rayoptics`' docstring (reference, for float parameters):

        spherical transmission   C = (n0 - n1) / (n1 R)   D = n0 / n1
        plane transmission       C = 0                    D = n0 / n1
        spherical mirror         C = -2 / R               D = 1
        plane mirror             C = 0                    D = 1

    Where n1 R underflows to 0, C is (n0 - n1) / n1 / R: 0 for matched
    indices, else the power, which then overflows to an infinity.
    """
    spherical = isinstance(iface, Spherical)
    if kind is InterfaceKind.REFLECTED:
        return Mat2(1.0, 0.0, -2.0 / iface.radius if spherical else 0.0, 1.0)
    power = 0.0
    if spherical:
        n1_r = n1 * iface.radius
        power = (n0 - n1) / n1_r if n1_r != 0 else (n0 - n1) / n1 / iface.radius
    return Mat2(1.0, 0.0, power, n0 / n1)


def element_matrices(system: OpticalSystem) -> list[Mat2]:
    """The matrices of a valid system's elements in traversal order (reference):
    each component's free space, then its interface from that space's index
    to the next one's, the terminal's after the last; then the terminal."""
    spaces = [comp.space for comp in system.components] + [system.terminal]
    mats = []
    for comp, after in zip(system.components, spaces[1:]):
        mats += [free_space_matrix(comp.space), interface_matrix(comp.iface, comp.kind, comp.space.n, after.n)]
    return mats + [free_space_matrix(system.terminal)]


def unfold_resonator(res: Resonator, n_round_trips: int) -> OpticalSystem:
    """N round trips of a resonator as one sequential system, by the rule in
    `resonator`'s docstring (reference).

    A round trip walks the inner spaces and the cavity space, then the same
    spaces back; after each space it meets an interface: on the way in the
    inner ones and the right mirror, on the way back the inner ones in
    reverse and the left mirror.  A component pairs a space with the
    interface met after it, so each interface on the way back lies between
    the space behind it and the one it leads into, which inverts its index
    ratio; a transmitted spherical one is seen from behind there, radius -R.
    """
    reflected = InterfaceKind.REFLECTED
    spaces = [comp.space for comp in res.inner] + [res.space]
    way_in = [(comp.iface, comp.kind) for comp in res.inner] + [(res.right, reflected)]
    way_back = [_from_behind(comp) for comp in reversed(res.inner)] + [(res.left, reflected)]
    trip = tuple(OpticalComponent(space, iface, kind)
                 for space, (iface, kind) in zip(spaces + spaces[::-1], way_in + way_back))
    return OpticalSystem(trip * n_round_trips, FreeSpace(res.space.n, 0.0))


def _from_behind(comp: OpticalComponent) -> tuple:
    """(interface, kind) of an inner component met on the way back."""
    if comp.kind is InterfaceKind.TRANSMITTED and isinstance(comp.iface, Spherical):
        return Spherical(-comp.iface.radius), comp.kind
    return comp.iface, comp.kind


def annihilator(dim: int) -> Operator:
    """The lowering operator, a |n> = sqrt(n) |n-1> on |0> .. |dim-1>, built
    as a dense matrix through `Operator` (reference)."""
    a = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return Operator(a)


def basis(dim: int, n: int) -> StateVector:
    """The number state |n> of a dim-dimensional truncation (reference)."""
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[n] = 1.0
    return StateVector(amplitudes)


def vector_residual(side1, side2, spec, r, t) -> tuple[CVec3, CVec3]:
    """`boundary_residual` in `CVec3` algebra, from the formula in `emoptics`' docstring
    (reference): each wave's E and H scaled by exp(-j(k.r - omega t)), side 1 summed from
    a zero vector, side 2 subtracted, and n x of each difference, n as a complex vector.

    OffPlanePoint for a point off the plane, by the inequality |(r - p) . n| >
    1e-12 (1 + |r - p|); DomainError where an int part overflows a float, in that
    test too, or a part of the result is not finite, with `boundary_residual`'s messages."""
    try:
        offset = r - spec.point
        if abs(offset.dot(spec.normal)) > 1e-12 * (1.0 + offset.norm()):
            raise OffPlanePoint(f"point {r} is off the interface plane")
        n = spec.normal.as_complex()
        e1 = h1 = CVec3(0j, 0j, 0j)
        for wave in side1:
            phase = cmath.exp(-1j * (wave.k.dot(r) - wave.omega * t))
            e1, h1 = e1 + wave.E.scale(phase), h1 + wave.H.scale(phase)
        phase = cmath.exp(-1j * (side2.k.dot(r) - side2.omega * t))
        out = (n.cross(e1 - side2.E.scale(phase)), n.cross(h1 - side2.H.scale(phase)))
    except OverflowError:
        raise DomainError("boundary_residual: an int part is beyond the double range") from None
    if not all(cmath.isfinite(c) for v in out for c in (v.x, v.y, v.z)):
        raise DomainError(f"boundary_residual: not finite, {out!r}")
    return out


def random_interface(rng: random.Random):
    if rng.random() < 0.5:
        return Plane()
    r = rng.uniform(0.05, 5.0)
    return Spherical(r if rng.random() < 0.5 else -r)


def random_system(rng: random.Random, max_components: int = 8) -> OpticalSystem:
    """Random valid system: n in [1, 2], d in [0, 1], |R| in [0.05, 5]."""
    comps = []
    for _ in range(rng.randint(0, max_components)):
        kind = InterfaceKind.TRANSMITTED if rng.random() < 0.5 else InterfaceKind.REFLECTED
        comps.append(
            OpticalComponent(
                FreeSpace(rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0)),
                random_interface(rng),
                kind,
            )
        )
    terminal = FreeSpace(rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0))
    return OpticalSystem(tuple(comps), terminal)


def exact_meridional_trace(system: OpticalSystem, y: float, theta: float) -> tuple[float, float]:
    """(y, theta) after a valid system, traced exactly in the meridional plane
    by Snell's law and the law of reflection at each true surface (oracle,
    independent of `rayoptics`' matrix entries, whose paraxial limit it has).

    The ray's direction is carried as a unit vector (dz, dy), theta being
    atan2(dy, dz).  A free space of width d steps y += d tan(theta).  At an
    interface the ray leaves the vertex plane for the circle of radius |R| (a
    plane is its own vertex plane), is refracted by vector Snell or reflected
    there, and goes back to the vertex plane along its new direction.  A
    reflection is unfolded by mirroring z, so that every direction is taken
    along the travel.  Sign senses, those of the `rayoptics` matrices: a
    transmitted R > 0 has its centre R after the vertex, and a mirror with
    R > 0 is concave toward the incoming ray, its centre R before the vertex.
    """
    comps = system.components
    next_n = [comp.space.n for comp in comps[1:]] + [system.terminal.n]
    dz, dy = math.cos(theta), math.sin(theta)
    for comp, n1 in zip(comps, next_n):
        y += comp.space.d * dy / dz
        reflected = comp.kind is InterfaceKind.REFLECTED
        pz, py, nz, ny = 0.0, y, 1.0, 0.0  # the hit point and the unit normal, (z, y)
        if isinstance(comp.iface, Spherical):
            c = -comp.iface.radius if reflected else comp.iface.radius  # the centre is (c, 0)
            # the nearer root of t^2 - 2 b t + y^2 = 0, the ray (t dz, y + t dy) on the circle
            b = c * dz - y * dy
            t = y * y / (b + math.copysign(math.sqrt(b * b - y * y), b))
            pz, py = t * dz, y + t * dy
            nz, ny = (c - pz) / c, -py / c
            length = math.hypot(nz, ny)
            nz, ny = nz / length, ny / length
        # the direction along the normal and across it, (nz, ny) turned by +90 degrees
        along, across = dz * nz + dy * ny, dy * nz - dz * ny
        if reflected:
            along = -along
        else:  # Snell: n0 sin(i) = n1 sin(t), the sine being the part across
            across *= comp.space.n / n1
            along = math.sqrt(1.0 - across * across)
        dz, dy = along * nz - across * ny, along * ny + across * nz
        if reflected:
            dz, pz = -dz, -pz
        y = py - pz * dy / dz
    return y + system.terminal.d * dy / dz, math.atan2(dy, dz)
