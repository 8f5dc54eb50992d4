"""Shared generators and comparison helpers for the test suite."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from optikit.core import Mat2, mat2_mul
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    Spherical,
)

# IEEE edge values for float-range properties: signed zeros, subnormals, the
# smallest normal, and magnitudes up to the largest double
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, -1e-300, 1.0, -1.0,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max,
]


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
