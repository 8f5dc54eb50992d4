"""Gaussian-beam q parameter and the ABCD propagation law.

The complex beam parameter bundles wavefront curvature R and spot radius w:

    1/q = 1/R - j * wavelength / (pi * w**2)

with wavelength measured in the local medium (lambda_medium =
lambda_vacuum / n).  A ray-transfer matrix [[A, B], [C, D]] acts on q by the
Moebius law q_out = (A q + B) / (C q + D).

On-axis geometry of a beam with waist w0 follows from q(z) = z + j*zR with
zR = pi w0**2 / wavelength:

    w(z) = w0 * sqrt(1 + (z/zR)**2)
    R(z) = z * (1 + (zR/z)**2),  flat (infinite R) at z = 0

These forms are forced by the q parameter itself: `beam_at` is cross-checked
in the tests against free-space Moebius propagation of the waist q.  A flat
wavefront is represented by an infinite radius (math.inf), printed as
"R=inf" by the CLI.
"""

from __future__ import annotations

import cmath
import math

from .core import Mat2, Value, mobius
from .errors import DomainError, UnphysicalBeam

__all__ = [
    "FLAT",
    "QParameter",
    "BeamGeometry",
    "q_from_geometry",
    "geometry_from_q",
    "propagate_q",
    "beam_at",
]

# Wavefront radius of a flat (waist) wavefront.
FLAT = math.inf


class QParameter(Value):
    """Complex beam parameter q (meters) with its in-medium wavelength."""

    __slots__ = ("q", "wavelength")

    def __init__(self, q: complex, wavelength: float) -> None:
        if not 0 < wavelength < math.inf:
            raise DomainError(f"wavelength must be positive and finite, got {wavelength!r}")
        if not cmath.isfinite(q):
            raise DomainError(f"q must be finite, got {q!r}")
        if not q.imag > 0:
            raise UnphysicalBeam(f"Im(q) must be positive, got q = {q!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "wavelength", wavelength)


class BeamGeometry(Value):
    """On-axis beam geometry at distance z from the waist.

    R: wavefront radius of curvature (FLAT at the waist)
    w: spot radius, w0: waist radius, zR: Rayleigh range, z: axial position.
    """

    __slots__ = ("R", "w", "w0", "zR", "z")


def q_from_geometry(R: float, w: float, wavelength: float) -> QParameter:
    """Build q from wavefront radius R (may be FLAT/inf) and spot radius w."""
    if not w > 0:
        raise DomainError(f"spot radius must be positive, got {w!r}")
    if not 0 < wavelength < math.inf:
        raise DomainError(f"wavelength must be positive and finite, got {wavelength!r}")
    if R == 0:
        raise DomainError("wavefront radius must be nonzero (use FLAT for a flat front)")
    inv_r = 0.0 if math.isinf(R) else 1.0 / R
    area = math.pi * w * w
    # pi w**2 underflows to 0 at w = 1e-300 and overflows at w = 1e308
    if not (area > 0 and 0 < wavelength / area < math.inf):
        raise DomainError(f"wavelength / (pi w**2) leaves the float range for w = {w!r}")
    inv_q = complex(inv_r, -wavelength / area)
    return QParameter(1.0 / inv_q, wavelength)


def geometry_from_q(qp: QParameter) -> tuple[float, float]:
    """Recover (R, w) from q; R is FLAT when the wavefront is flat."""
    inv_q, shift = 1.0 / qp.q, 0
    # pi |1/q| overflows as |q| nears 1/max: invert 2**600 q, and scale R back
    if not math.pi * math.hypot(inv_q.real, inv_q.imag) < math.inf:
        inv_q, shift = 1.0 / (qp.q * 2.0**600), 600
    # Im(1/q) = -Im(q) / |q|**2 underflows to 0 as |q| nears the float range
    if not inv_q.imag < 0:
        raise DomainError(f"1/q underflows for q = {qp.q!r}")
    # a radius beyond the float range, of either sign, is flat at any physical scale
    if abs(inv_q.real) < 1e-15 * abs(inv_q) or math.isinf(1.0 / inv_q.real):
        r = FLAT
    else:
        r = math.ldexp(1.0 / inv_q.real, -shift)
    ratio = qp.wavelength / (math.pi * -inv_q.imag)
    # the closed form where Im q and each of its steps is a normal float, else from q itself
    closed = not shift and 2.0**-1022 <= min(qp.q.imag, -inv_q.imag, ratio) and ratio < math.inf
    w = math.sqrt(ratio) if closed else _spot_radius(qp.q, qp.wavelength)
    if not 0 < w < math.inf:
        raise DomainError(f"spot radius {w!r} leaves the float range for q = {qp.q!r}")
    return (r, w)


def _spot_radius(q: complex, wavelength: float) -> float:
    """w = sqrt(wavelength |q|**2 / (pi Im q)), inf where it overflows.

    The binary exponents of |q| and Im q are split off exactly, so no step
    leaves the normal floats and w**2 is within a few ulps wherever w is normal.
    """
    mantissa, exponent = math.frexp(q.imag)
    shift = math.frexp(max(abs(q.real), q.imag))[1]
    modulus = math.hypot(math.ldexp(q.real, -shift), math.ldexp(q.imag, -shift))
    half, odd = divmod(exponent, 2)  # sqrt(Im q) = sqrt(mantissa 2**odd) 2**half
    root = modulus * math.sqrt(wavelength) / math.sqrt(math.pi * math.ldexp(mantissa, odd))
    try:
        return math.ldexp(root, shift - half)
    except OverflowError:
        return math.inf


def propagate_q(qp: QParameter, m: Mat2) -> QParameter:
    """ABCD law: q -> (A q + B) / (C q + D); wavelength is unchanged.

    Any real matrix with positive determinant keeps Im(q) positive, so the
    result is again a physical beam.
    """
    return QParameter(mobius(m, qp.q), qp.wavelength)


def beam_at(w0: float, wavelength: float, z: float) -> BeamGeometry:
    """Geometry of a beam with waist radius w0 at axial distance z from it.

    Every field is finite except R, which is FLAT at the waist and wherever
    it leaves the float range.  That includes (zR/z)**2 overflowing, where
    |Re(1/q)| < 1e-15 |1/q| and `geometry_from_q` reads the front as flat
    too.  Raises DomainError when zR or w leaves the float range.
    """
    if not 0 < w0 < math.inf:
        raise DomainError(f"waist radius must be positive and finite, got {w0!r}")
    if not 0 < wavelength < math.inf:
        raise DomainError(f"wavelength must be positive and finite, got {wavelength!r}")
    if not math.isfinite(z):
        raise DomainError(f"axial distance must be finite, got {z!r}")
    z_r = math.pi * w0 * w0 / wavelength
    if not 0 < z_r < math.inf:
        raise DomainError(f"Rayleigh range {z_r!r} leaves the float range for w0 = {w0!r}")
    try:
        w = w0 * math.sqrt(1.0 + (z / z_r) ** 2)
    except OverflowError:  # the square root is |z / zR| to the last bit here
        w = w0 * abs(z / z_r)
    if w == math.inf:
        raise DomainError(f"spot radius leaves the float range at z = {z!r}")
    try:
        r = FLAT if z == 0 else z * (1.0 + (z_r / z) ** 2)
    except OverflowError:
        r = FLAT
    return BeamGeometry(R=r if math.isfinite(r) else FLAT, w=w, w0=w0, zR=z_r, z=z)
