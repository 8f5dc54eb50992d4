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

from .core import Mat2, Value, _checkable, _floats, _positive, _split, mobius
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
        (wavelength,) = _positive("wavelength", wavelength)
        q = _checkable(q)
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
    R, w = _floats(R, w)
    if not w > 0:
        raise DomainError(f"spot radius must be positive, got {w!r}")
    (wavelength,) = _positive("wavelength", wavelength)
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
    """Recover (R, w) from q; R is FLAT when the wavefront is flat or beyond the float range.

    Where pi |1/q| is finite and Im(1/q) < 0, R = 1 / Re(1/q), else Re q + Im q (Im q / Re q).
    w = sqrt(wavelength / (pi (-Im 1/q))) where Im q and its steps are normal floats, else it
    comes from q's exponent split, and w >= sqrt(wavelength Im q / pi) never rounds to 0.
    """
    q, inv_q, ratio = qp.q, 1.0 / qp.q, 0.0
    if math.pi * math.hypot(inv_q.real, inv_q.imag) < math.inf and inv_q.imag < 0:
        r = FLAT if abs(inv_q.real) < 1e-15 * abs(inv_q) else 1.0 / inv_q.real
        ratio = qp.wavelength / (math.pi * -inv_q.imag)
    else:  # 1e-15 |q| may round in the subnormals or |q| overflow: q's mantissa m tests it
        m = _split(q)[0]
        r = FLAT if abs(m.real) <= 1e-15 * abs(m) else q.real + q.imag * (q.imag / q.real)
    r = FLAT if math.isinf(r) else r
    if 2.0**-1022 <= min(q.imag, -inv_q.imag, ratio) and ratio < math.inf:
        return (r, math.sqrt(ratio))
    # w**2 = wavelength |m|**2 2**(2e - k) / (pi y), for q = m 2**e and Im q = y 2**k
    (m, e), (y, k) = _split(q), math.frexp(q.imag)
    half, odd = divmod(2 * e - k, 2)
    root = math.hypot(m.real, m.imag) * math.sqrt(qp.wavelength) / math.sqrt(math.pi * math.ldexp(y, -odd))
    try:
        return (r, math.ldexp(root, half))
    except OverflowError:
        raise DomainError(f"spot radius inf leaves the float range for q = {q!r}") from None


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
    (w0,) = _positive("waist radius", w0)
    (wavelength,) = _positive("wavelength", wavelength)
    (z,) = _floats(z)
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
