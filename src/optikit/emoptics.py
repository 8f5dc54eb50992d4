"""Monochromatic plane waves at a plane interface between two media.

A plane wave is stored as an amplitude record (k, omega, E, H), a `core.Value`
like every record here; the field at (r, t) is the amplitude scaled by
exp(-j(k.r - omega t)).  The tangential components of E and H must match
across an interface: with n the unit normal,

    n x E_1(r, t) = n x E_2(r, t)   and   n x H_1(r, t) = n x H_2(r, t)

at every point r of the plane and all times t.  `boundary_residual` returns
the two mismatch vectors, and `validate_interface_system` checks a full
incident/reflected/transmitted triple: interface geometry, the constants,
omega and |k| > 0, non-null fields, propagation directions relative to the
normal, wavevector norms k0*n, the impedance relation H = (1/(eta0 k0)) k x E,
and the boundary conditions sampled at seeded pseudo-random plane points.

`oblique_incidence_fields` builds the worked s-oriented field triple whose
amplitudes satisfy the tangential continuity identity a + r = t exactly.
Note its H amplitudes are tangential-continuity companions of the E fields,
not (1/(eta0 k0)) k x E of them; the validator lists that mismatch in the
report's `warnings`, which leave it ok (see `rayoptics.ValidationReport`).
`fresnel_standard` gives the standard-convention s/p coefficients for
comparison.

Cost and exactness: `reference_max_residual`, the scalar route, checks each
`uniform` draw of `sample_plane_points` as `boundary_residual` does, in complex
locals, about 6 us a sample with no numpy, up to one block in the CLI.
The kernel, `max_boundary_residual`, imports numpy and forms the same draws from
one `random.Random(seed)` in blocks of at most `_CHUNK` samples: one
`getrandbits` call returns the block's 32-bit generator outputs in order, least
significant word first; `random()` is ((a >> 5) * 2**26 + (b >> 6)) * 2**-53 of
two of them; and `uniform(lo, hi)` is lo + (hi - lo) * random(), rounded once
per operation in numpy as in Python.  The rest is float64 array work over the
same blocks: memory O(_CHUNK), about 0.1 ms + 0.4 us a sample on a 2-vCPU Xeon.

The kernel returns the scalar route's residual bit for bit whenever the fields
are finite.  It repeats CPython's complex arithmetic on split real/imaginary
arrays: products (ar*br - ai*bi, ar*bi + ai*br), the phase exp(-j x) as
(cos(-x), sin(-x)) and magnitudes hypot(re, im), as `cmath.exp` and `abs` take
them.  It leaves out products with 1, and with a zero factor where the other is
finite: an exact +-0 changes only the sign of a zero sum, which hypot ignores,
but 0 * inf is NaN.  Once a call, `_plane_forms` plans the points, their offsets
along the normal and the phases by that rule, and waves with equal phase terms
share a cos/sin row: at an axis-aligned plane through a point with a zero part
on its axis, no offset is formed, and the phase-matched incident and reflected
waves share one.  Blocks leave out amplitude and normal products where the
phases are finite and the amplitudes too small for a sum to overflow.  numpy's
complex128 multiply and `np.abs` may take fused multiply-add or SIMD paths that
differ from CPython in the last bit, so the kernel avoids them; it needs
`np.cos`, `np.sin` and `np.hypot` to round as the C library does.  The tests
check the bulk draws against per-sample `uniform` calls and the kernel against
the scalar route.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from typing import Iterable, Iterator, Sequence

from .core import CVec3, RVec3, Value, _checkable, _finite, _floats, _positive, coplanar
from .errors import DomainError, OffPlanePoint, TotalInternalReflection

__all__ = [
    "PlaneWave",
    "InterfaceSpec",
    "EMConstants",
    "InterfaceSystem",
    "eval_plane_wave",
    "wavelength_of",
    "h_from_e",
    "boundary_residual",
    "snell_angle",
    "reflect_wavevector",
    "continuity_coefficients",
    "oblique_incidence_fields",
    "sample_plane_points",
    "max_boundary_residual",
    "reference_max_residual",
    "validate_interface_system",
    "check_plane_of_incidence",
    "fresnel_standard",
]

# impedance of vacuum, ohms
ETA0 = 376.730313668

# samples per array block in `max_boundary_residual`; bounds its memory
_CHUNK = 4096


class PlaneWave(Value):
    """Amplitude record of a monochromatic plane wave.

    k: wavevector (rad/m), omega: angular frequency (rad/s),
    E, H: electric and magnetic amplitudes (V/m, A/m).
    """

    __slots__ = ("k", "omega", "E", "H")


class InterfaceSpec(Value):
    """Plane interface: indices n1, n2, a point on the plane, and the unit
    normal pointing from medium 1 into medium 2."""

    __slots__ = ("n1", "n2", "point", "normal")


class EMConstants(Value):
    """Vacuum wavenumber k0 (rad/m) and vacuum impedance eta0 (ohms)."""

    __slots__ = ("k0", "eta0")
    _defaults = (ETA0,)


class InterfaceSystem(Value):
    __slots__ = ("spec", "incident", "reflected", "transmitted", "consts")


def _finite_fields(fn):
    """fn, raising DomainError for a field result not finite or an int past the double range."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except OverflowError:
            raise DomainError(f"{fn.__name__}: an int part is beyond the double range") from None
        if not all(cmath.isfinite(c) for f in (out if isinstance(out, tuple) else (out,)) for c in (f.x, f.y, f.z)):
            raise DomainError(f"{fn.__name__}: not finite, {out!r}")
        return out
    return checked


@_finite_fields
def eval_plane_wave(wave: PlaneWave, r: RVec3, t: float) -> tuple[CVec3, CVec3]:
    """Field amplitudes at (r, t): both scaled by exp(-j(k.r - omega t))."""
    phase = cmath.exp(-1j * (wave.k.dot(r) - wave.omega * t))
    return (wave.E.scale(phase), wave.H.scale(phase))


def wavelength_of(k: RVec3) -> float:
    """Wavelength 2*pi/|k| of a wavevector; DomainError unless its parts are finite."""
    k = _finite(k, "wavevector")
    norm = k.norm()
    if not 2.0**-511 <= norm < math.inf:  # the squares overflow or are subnormal: scale by the largest component
        top = max(abs(k.x), abs(k.y), abs(k.z))
        norm = top * RVec3(k.x / top, k.y / top, k.z / top).norm() if top else top
    if norm == 0:
        raise DomainError("zero wavevector has no wavelength")
    if not norm < math.inf:
        raise DomainError(f"wavevector norm must be finite, got {norm!r}")
    if not 2.0 * math.pi / norm < math.inf:  # only a scaled norm is this small
        raise DomainError(f"wavelength 2 pi / |k| overflows double precision at |k| = {norm!r}")
    return 2.0 * math.pi / norm


@_finite_fields
def h_from_e(k: RVec3, E: CVec3, consts: EMConstants) -> CVec3:
    """Magnetic amplitude (1/(eta0 k0)) * (k x E) of a plane wave in a medium."""
    product = consts.eta0 * consts.k0
    if not (consts.eta0 > 0 and consts.k0 > 0 and product > 0):
        raise DomainError(f"eta0, k0 and their product must be positive, got {consts.eta0!r}, {consts.k0!r}")
    return k.as_complex().cross(E).scale(1.0 / product)


def _require_on_plane(spec: InterfaceSpec, r: RVec3) -> None:
    offset = r - spec.point
    if abs(offset.dot(spec.normal)) > 1e-12 * (1.0 + offset.norm()):
        raise OffPlanePoint(f"point {r} is off the interface plane")


@_finite_fields
def boundary_residual(
    side1: Sequence[PlaneWave],
    side2: PlaneWave,
    spec: InterfaceSpec,
    r: RVec3,
    t: float,
) -> tuple[CVec3, CVec3]:
    """Tangential mismatch (n x E1 - n x E2, n x H1 - n x H2) at a plane point.

    side1 is summed (e.g. incident plus reflected); both residual vectors are
    zero exactly when the boundary conditions hold at (r, t).
    """
    _require_on_plane(spec, r)
    e, h = _mismatch(map(_wave_parts, side1), _wave_parts(side2), spec.normal.as_complex(), r, t)
    return (CVec3(*e), CVec3(*h))


def _wave_parts(wave: PlaneWave) -> tuple:
    return (wave.k.x, wave.k.y, wave.k.z, wave.omega, wave.E.x, wave.E.y, wave.E.z, wave.H.x, wave.H.y, wave.H.z)


def _mismatch(side1: Iterable[tuple], side2: tuple, n: CVec3, r: RVec3, t: float) -> tuple[tuple, tuple]:
    """The parts of n x (E1 - E2) and n x (H1 - H2) at (r, t) from `_wave_parts`: the operations of
    `eval_plane_wave`, the `CVec3` sum from 0j, difference and `cross`, in order, on complex locals."""
    rx, ry, rz = r.x, r.y, r.z
    ex = ey = ez = hx = hy = hz = 0j
    for kx, ky, kz, omega, Ex, Ey, Ez, Hx, Hy, Hz in side1:
        p = cmath.exp(-1j * ((kx * rx + ky * ry + kz * rz) - omega * t))  # the phase factor
        ex, ey, ez, hx, hy, hz = ex + p * Ex, ey + p * Ey, ez + p * Ez, hx + p * Hx, hy + p * Hy, hz + p * Hz
    kx, ky, kz, omega, Ex, Ey, Ez, Hx, Hy, Hz = side2
    p = cmath.exp(-1j * ((kx * rx + ky * ry + kz * rz) - omega * t))
    ex, ey, ez, hx, hy, hz = ex - p * Ex, ey - p * Ey, ez - p * Ez, hx - p * Hx, hy - p * Hy, hz - p * Hz
    nx, ny, nz = n.x, n.y, n.z
    return ((ny * ez - nz * ey, nz * ex - nx * ez, nx * ey - ny * ex),
            (ny * hz - nz * hy, nz * hx - nx * hz, nx * hy - ny * hx))


def snell_angle(n1: float, n2: float, theta_i: float) -> float:
    """Transmitted angle arcsin(n1 sin(theta_i) / n2), radians."""
    n1, n2, theta = *_positive("indices", n1, n2), *_floats(theta_i)
    if not 0 <= theta < math.pi / 2:
        raise DomainError(f"incidence angle must be in [0, pi/2), got {theta_i!r}")
    s = n1 * math.sin(theta) / n2
    if s > 1.0:
        raise TotalInternalReflection(
            f"total internal reflection: n1 sin(theta_i)/n2 = {s!r} > 1"
        )
    return math.asin(s)


def reflect_wavevector(k_i: RVec3, normal: RVec3) -> RVec3:
    """Reflected wavevector k_i - 2 (k_i . n) n for a unit normal n.

    The form is linear in k_i: where it overflows, it is taken at k_i / 4 and
    scaled back.  DomainError for a non-finite k_i, a normal off unit length,
    or a reflected vector beyond the double range.
    """
    k_i = _finite(k_i, "wavevector")
    norm = RVec3(*_floats(normal.x, normal.y, normal.z)).norm()
    if not abs(norm - 1.0) <= 1e-9:
        raise DomainError(f"normal must be unit length, got |n| = {norm!r}")
    for s in (1.0, 0.25):  # x * 1.0 is x: the first pass is the unscaled form
        k = k_i.scale(s)
        k_r = (k - normal.scale(2.0 * k.dot(normal))).scale(1.0 / s)
        if all(map(math.isfinite, (k_r.x, k_r.y, k_r.z))):
            return k_r
    raise DomainError(f"reflected wavevector overflows double precision: {k_r!r}")


def continuity_coefficients(n1: float, n2: float, theta_i: float, a: float = 1.0) -> tuple[float, float]:
    """Reflected/transmitted amplitudes (r, t) with a + r = t identically.

    r = a (n2 cos(theta_i) - n1 cos(theta_t)) / (n2 cos(theta_i) + n1 cos(theta_t))
    t = a (2 n2 cos(theta_i)) / (n2 cos(theta_i) + n1 cos(theta_t))
    """
    (a,) = _positive("amplitude", a)
    theta_t = snell_angle(n1, n2, theta_i)
    r, t = _continuity(n1, n2, math.cos(theta_i), math.cos(theta_t), a)
    if not (math.isfinite(r) and math.isfinite(t)):
        raise DomainError(f"amplitudes overflow double precision at a = {a!r}, n1 = {n1!r}, n2 = {n2!r}")
    return r, t


def _continuity(n1: float, n2: float, ci: float, ct: float, a: float) -> tuple[float, float]:
    return _ratios(lambda n1, n2: (a * (n2 * ci - n1 * ct), a * (2.0 * n2 * ci), n2 * ci + n1 * ct), n1, n2)


def _ratios(form, n1: float, n2: float) -> tuple[float, float]:
    """(r_num / den, t_num / den) of (r_num, t_num, den) = form(n1, n2), homogeneous
    of degree 0 in (n1, n2): where an index passes half the double range, so that
    den or 2 n ci can overflow, the triple is formed from the exact n1 / 4 and n2 / 4."""
    r_num, t_num, den = form(n1, n2) if 2.0 * max(n1, n2) < math.inf else form(n1 / 4, n2 / 4)
    # den is a sum of positive products, so it is 0 only when both underflow
    if den == 0:
        raise DomainError(f"the amplitude denominator underflows to 0 at n1 = {n1!r}, n2 = {n2!r}")
    return r_num / den, t_num / den


def oblique_incidence_fields(theta_i: float, n1: float, n2: float, a: float, omega: float,
                             k0: float) -> InterfaceSystem:
    """Worked interface example: s-oriented E fields on the y-z plane.

    The interface is the y-z plane with normal (1, 0, 0); wavevectors are
    k0*n1*(+-cos, 0, sin) and k0*n2*(cos theta_t, 0, sin theta_t); E points
    along y with amplitudes (a, r, t) from `continuity_coefficients`, so the
    tangential sums match on the plane and the boundary residual vanishes
    identically.  The H amplitudes are the matching in-plane companions
    (+-cos, 0, -sin) scaled by n/eta0 -- deliberately not recomputed through
    `h_from_e` (see module docstring).
    """
    (a,) = _positive("amplitude", a)
    omega, k0 = _positive("omega and k0", omega, k0)
    n1, n2 = _floats(n1, n2)
    theta_t = snell_angle(n1, n2, theta_i)
    ci, si = math.cos(theta_i), math.sin(theta_i)
    ct, st = math.cos(theta_t), math.sin(theta_t)
    r_amp, t_amp = _continuity(n1, n2, ci, ct, a)

    spec = InterfaceSpec(n1=n1, n2=n2, point=RVec3(0.0, 0.0, 0.0), normal=RVec3(1.0, 0.0, 0.0))
    # k, E's y part and H's x and z parts of the incident, reflected and transmitted waves
    parts = ((RVec3(k0 * n1 * ci, 0.0, k0 * n1 * si), a, a * n1 / ETA0 * ci, -a * n1 / ETA0 * si),
             (RVec3(-k0 * n1 * ci, 0.0, k0 * n1 * si), r_amp, -r_amp * n1 / ETA0 * ci, -r_amp * n1 / ETA0 * si),
             (RVec3(k0 * n2 * ct, 0.0, k0 * n2 * st), t_amp, t_amp * n2 / ETA0 * ct, -t_amp * n2 / ETA0 * st))
    waves = tuple(PlaneWave(k, omega, CVec3(0j, complex(e), 0j), CVec3(complex(hx), 0j, complex(hz)))
                  for k, e, hx, hz in parts)
    if not all(cmath.isfinite(c) for w in waves for v in (w.k, w.E, w.H) for c in (v.x, v.y, v.z)):
        raise DomainError(f"fields overflow double precision at a = {a!r}, n1 = {n1!r}, n2 = {n2!r}")
    return InterfaceSystem(spec, *waves, EMConstants(k0))


def _plane(spec: InterfaceSpec) -> tuple[RVec3, RVec3, RVec3, RVec3]:
    """The point and the normal of an interface, with their parts as floats, a unit tangent t1
    and normal x t1; DomainError unless the point and the normal are finite."""
    point = _finite(spec.point, "interface point")
    normal = _finite(spec.normal, "interface normal")
    seed = RVec3(1.0, 0.0, 0.0) if abs(normal.x) < 0.9 else RVec3(0.0, 1.0, 0.0)
    raw = seed - normal.scale(seed.dot(normal))
    t1 = raw.scale(1.0 / raw.norm())
    return (point, normal, t1, normal.cross(t1))


def _check_sampling(samples: int, seed: int) -> None:
    """DomainError unless both are ints and samples >= 1: a seed of None seeds from the OS."""
    if not (isinstance(samples, int) and isinstance(seed, int)):
        raise DomainError(f"samples and seed must be ints, got {samples!r}, {seed!r}")
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")


def _spans(sys_i: InterfaceSystem, samples: int, seed: int) -> tuple[float, float]:
    _check_sampling(samples, seed)
    (omega,) = _positive("omega", sys_i.incident.omega)
    return 10.0 * wavelength_of(sys_i.incident.k), 10.0 * (2.0 * math.pi / omega)


def _plane_draws(sys_i: InterfaceSystem, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded offsets u, v and times t, in blocks of at most `_CHUNK` rows (u, v, t):
    exactly the per-sample `uniform` draws of `sample_plane_points` (module docstring)."""
    import numpy as np
    width, duration = _spans(sys_i, samples, seed)
    lo, hi = np.array([[-width, -width, 0.0], [width, width, duration]])
    rng = random.Random(seed)
    for start in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - start)
        # random() is (a >> 5, b >> 6) of two 32-bit outputs, and getrandbits
        # returns the outputs in order, least significant word first
        w = np.frombuffer(rng.getrandbits(192 * n).to_bytes(24 * n, "little"), "<u4")
        x = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * 2.0**-53
        with np.errstate(over="ignore", invalid="ignore"):  # an inf span draws inf or NaN, as uniform does
            block = lo + (hi - lo) * x.reshape(n, 3)  # uniform(lo, hi)
        yield block


def sample_plane_points(
    sys_i: InterfaceSystem, samples: int, seed: int
) -> Iterator[tuple[RVec3, float]]:
    """Seeded (point, time) samples on the interface plane.

    Tangential offsets span +-10 wavelengths of the incident wave and times
    span ten periods, so the check covers many phase cycles.  DomainError
    unless the interface point and normal are finite.
    """
    point, _, t1, t2 = _plane(sys_i.spec)
    width, duration = _spans(sys_i, samples, seed)
    rng = random.Random(seed)
    for _ in range(samples):
        u, v, t = rng.uniform(-width, width), rng.uniform(-width, width), rng.uniform(0.0, duration)
        yield (RVec3(point.x + u * t1.x + v * t2.x, point.y + u * t1.y + v * t2.y, point.z + u * t1.z + v * t2.z), t)


def reference_max_residual(sys_i: InterfaceSystem, samples: int, seed: int) -> float:
    """The scalar route to `max_boundary_residual` (module docstring): the max over
    `sample_plane_points` of the component magnitudes of `boundary_residual`.  Where
    that raises DomainError, as for a field not finite, the outcome is the kernel's."""
    *side1, side2 = map(_wave_parts, (sys_i.incident, sys_i.reflected, sys_i.transmitted))
    try:  # an OverflowError here is one that `boundary_residual` or `_peak` raises as DomainError
        n, worst = sys_i.spec.normal.as_complex(), 0.0
        plan = _plane_forms([(v.x, v.y, v.z) for v in _plane(sys_i.spec)], [], True)[0]
        check = _require_on_plane if plan["n"] else lambda spec, r: None  # where points can leave the plane
        for r, t in sample_plane_points(sys_i, samples, seed):
            check(sys_i.spec, r)
            e, h = _mismatch(side1, side2, n, r, t)
            if not all(map(cmath.isfinite, (*e, *h))):
                raise DomainError("boundary residual not finite")
            worst = max(worst, *map(abs, e), *map(abs, h))
    except (DomainError, OverflowError):
        return max_boundary_residual(sys_i, samples, seed)
    return worst


def _sum(terms: tuple, env: dict):
    """The terms added left to right, each its coefficient times env[name], 1 x as x; 0.0 for none."""
    parts = [c if x is None else env[x] if c == 1 else c * env[x] for c, x in terms]
    return sum(parts[1:], parts[0]) if parts else 0.0


def _plane_forms(plane: list, ks: list, exact: bool) -> tuple[dict, list, list]:
    """The kernel's plan (module docstring): terms (coefficient, name or None) of a sample's point r =
    (p + u t1) + v t2, of d = r - p and d . n, and of each wave's phase (-k) . r + omega t, (-k, omega)
    in ks.  Where d . n has no term, it is +-0 or NaN, so |d . n| > 1e-12 (1 + |d|) cannot hold."""
    forms, (point, normal, t1, t2) = {}, plane
    keep = lambda *terms: tuple([(c, x) for c, x in terms if not exact or c and forms.get(x, True)])
    for i, p, a, b in zip("012", point, t1, t2):
        forms["r" + i] = keep((p, None), (a, "u"), (b, "v"))
        forms["d" + i] = keep((1.0, "r" + i), (-p, None)) if not exact or a or b else ()
    forms["n"] = keep(*zip(normal, ("d0", "d1", "d2")))
    rows = [keep(*zip(k, ("r0", "r1", "r2"))) + ((k[3], "t"),) for k in ks]
    phases = list(dict.fromkeys(rows))  # each row once, and each wave's index among them
    return forms, phases, [phases.index(row) for row in rows]


def _side_difference(c, s, ar, ai):
    """Side 1 minus side 2, (re, im) of shape (row, n): phases (c, s), shape (wave, n), times amplitude
    parts, shape (wave, row, 1), as CPython's complex products summed by wave; a part None is left out."""
    c, s = c[:, None], s[:, None]
    terms = [c * fc if fs is None else s * fs if fc is None else c * fc + s * fs
             for fc, fs in ((ar, None if ai is None else -ai), (ai, ar))]
    return [t[0] + t[1] + t[2] for t in terms]


def max_boundary_residual(sys_i: InterfaceSystem, samples: int, seed: int) -> float:
    """Largest tangential-mismatch component over seeded plane samples: bit for bit the scalar
    route's, `reference_max_residual`, wherever the fields are finite (module docstring).  Raises
    `OffPlanePoint` at the first sample off the plane, DomainError where the residual is not finite."""
    import numpy as np

    point, nrm, t1, t2 = plane = [(v.x, v.y, v.z) for v in _plane(sys_i.spec)]
    waves = (sys_i.incident, sys_i.reflected, sys_i.transmitted)
    ks = [(-x, -y, -z, omega) for x, y, z, omega in (_floats(w.k.x, w.k.y, w.k.z, w.omega) for w in waves)]
    # the plan's factors are finite where k, omega, the tangents and the spans are, and |r| < 2**1020
    exact = (all(map(math.isfinite, sum(ks, ())))
             and (1.0 + 2.0 * sum(_spans(sys_i, samples, seed))) * sum(map(abs, sum(plane, ()))) < 2.0**1020)
    forms, phases, index = _plane_forms(plane, ks, exact)
    # amplitudes by wave and row (E x, y, z, then H), the transmitted wave's negated: -(x - y) is -x + y
    amps = [[complex(_checkable(c)) for f in (w.E, w.H) for c in (f.x, f.y, f.z)] for w in waves]
    amps[2] = [-z for z in amps[2]]
    amp = np.array(amps)[..., None]
    # component i of n x d is n[i + 1] d[i + 2] - n[i + 2] d[i + 1]: its terms
    # (n entry, row of d) without a zero factor; a lone term keeps its magnitude
    plan = [[(a, f + j) for a, j in ((nrm[i - 2], (i + 2) % 3), (-nrm[i - 1], (i + 1) % 3))
             if a and any(zs[f + j] for zs in amps)] for f in (0, 3) for i in range(3)]
    plan = [[(abs(t[0][0]), t[0][1])] if len(t) == 1 else t for t in plan if t]
    live = sorted({row for terms in plan for _, row in terms})
    ar, ai = (x if x.any() else None for x in (amp.real[:, live], amp.imag[:, live]))
    # with |cos|, |sin| <= 1, amplitudes this small keep every sum finite
    bounded = sum(abs(z.real) + abs(z.imag) for zs in amps for z in zs) < 2.0**1020
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a residual not finite is raised below
        for block in _plane_draws(sys_i, samples, seed):
            env = dict(zip("uvt", block.T))
            for name in forms if forms["n"] else ("r0", "r1", "r2"):  # the offsets only for the test
                env[name] = _sum(forms[name], env)
            if forms["n"]:  # the inequality of `_require_on_plane`, which then raises for the first hit
                ds = [env[d] for d in ("d0", "d1", "d2") if forms[d]]
                off_plane = np.abs(env["n"]) > 1e-12 * (1.0 + np.sqrt(sum((d * d for d in ds[1:]), ds[0] * ds[0])))
                if off_plane.any():
                    u, v, _ = block[int(np.argmax(off_plane))].tolist()
                    _require_on_plane(sys_i.spec, RVec3(*(p + u * a + v * b for p, a, b in zip(point, t1, t2))))
            arg = np.array([_sum(terms, env) for terms in phases])
            c, s = (x[index] if len(phases) < len(index) else x for x in (np.cos(arg), np.sin(arg)))
            if bounded and np.isfinite(arg).all():
                re, im = (dict(zip(live, x)) for x in (_side_difference(c, s, ar, ai) if live else ((), ())))
                mags = [np.hypot(_sum(terms, re), _sum(terms, im)) for terms in plan]
            else:
                # every product, as `boundary_residual` forms them, n complex with zero imaginary parts
                d_r, d_i = (x.reshape(2, 3, -1) for x in _side_difference(c, s, amp.real, amp.imag))
                (p_r, p_i), (q_r, q_i) = ((d_r[:, rows], d_i[:, rows]) for rows in ([2, 0, 1], [1, 2, 0]))
                a, b = (np.array(nrm)[i, None] for i in ([1, 2, 0], [2, 0, 1]))  # n[i + 1] and n[i + 2]
                re = (a * p_r - 0.0 * p_i) - (b * q_r - 0.0 * q_i)
                mags = [np.hypot(re, (a * p_i + 0.0 * p_r) - (b * q_i + 0.0 * q_r))]
            peak = float(np.max([0.0, *(np.max(m) for m in mags)]))
            if not math.isfinite(peak):  # overflowed fields; the reference's max() would drop a NaN
                shown = "NaN" if math.isnan(peak) else peak
                raise DomainError(f"boundary residual is {shown}: the fields overflow double precision")
            worst = max(worst, peak)
    return worst


def _peak(field: CVec3) -> float:
    """Largest component modulus of a field; DomainError where abs() overflows."""
    try:
        return field.max_abs()
    except OverflowError:
        raise DomainError(f"field {field} overflows double precision") from None


def validate_interface_system(sys_i: InterfaceSystem, samples: int, seed: int) -> ValidationReport:
    """Check the full plane-wave-at-interface constraint (module docstring).

    Violations are located at "interface", "constants" or the wave's name.  A
    failed impedance relation is a warning, which leaves the report ok.  A
    check whose prerequisites failed is skipped: the failed prerequisite
    already fails the report.  Raises DomainError where a field overflows.
    """
    from .rayoptics import ValidationReport, Violation

    _check_sampling(samples, seed)
    spec, consts = sys_i.spec, sys_i.consts
    violations: list[Violation] = []
    warnings: list[Violation] = []
    normal = RVec3(*_floats(spec.normal.x, spec.normal.y, spec.normal.z))
    norm_err = abs(normal.norm() - 1.0)
    # sampling the boundary needs a real plane, nonzero wavevectors and periods
    sampled = spec.n1 > 0 and spec.n2 > 0 and norm_err <= 1e-12
    if not sampled:
        detail = f"n1 = {spec.n1!r}, n2 = {spec.n2!r}, | |normal| - 1 | = {norm_err:.3e}"
        violations.append(Violation("interface", "n1, n2 > 0 and |normal| = 1", detail))
    consts_ok = consts.eta0 > 0 and consts.k0 > 0
    if not consts_ok:
        violations.append(Violation("constants", "eta0, k0 > 0", f"eta0 = {consts.eta0!r}, k0 = {consts.k0!r}"))
    scale = 0.0
    for name, wave, side, n in (("incident", sys_i.incident, 1.0, spec.n1),
                                ("reflected", sys_i.reflected, -1.0, spec.n1),
                                ("transmitted", sys_i.transmitted, 1.0, spec.n2)):
        k = RVec3(*_floats(wave.k.x, wave.k.y, wave.k.z))
        norm, along = k.norm(), k.dot(normal)
        if not (wave.omega > 0 and norm > 0):
            sampled = False
            violations.append(Violation(name, "omega, |k| > 0", f"omega = {wave.omega!r}, |k| = {norm!r}"))
        e_peak, h_peak = _peak(wave.E), _peak(wave.H)
        scale = max(scale, e_peak, h_peak)
        if not (e_peak > 0 and h_peak > 0):
            violations.append(Violation(name, "E, H nonzero", f"max |E| = {e_peak!r}, max |H| = {h_peak!r}"))
        if not side * along >= 0:
            clause = "k . n >= 0" if side > 0 else "k . n <= 0"
            violations.append(Violation(name, clause, f"k . n = {along:.6g}"))
        if not consts_ok:
            continue
        expect = math.prod(_floats(consts.k0, n))
        if not abs(norm - expect) / max(abs(expect), 1e-300) <= 1e-9:
            violations.append(Violation(name, "|k| = k0 n", f"|k| = {norm!r}, k0 n = {expect!r}"))
        # advisory: the worked triple's H amplitudes differ from this on purpose
        # (module docstring), yet satisfy the boundary conditions
        h = h_from_e(wave.k, wave.E, consts)
        mismatch = _peak(wave.H - h) / max(_peak(h), h_peak, 1e-300)
        if not mismatch <= 1e-9:
            warnings.append(Violation(name, "H = k x E / (eta0 k0)", f"relative mismatch {mismatch:.3e}"))
    if sampled:
        residual = max_boundary_residual(sys_i, samples, seed)
        if not residual <= 1e-9 * max(scale, 1e-300):
            detail = f"max residual over {samples} samples = {residual:.3e} (field scale {scale:.3g})"
            violations.append(Violation("interface", "boundary conditions", detail))
    return ValidationReport(tuple(violations), tuple(warnings))


def check_plane_of_incidence(sys_i: InterfaceSystem) -> bool:
    """All wavevectors and the normal lie in one plane through the origin
    (`coplanar` with the origin); DomainError unless each of them is finite."""
    vectors = [_finite(v, "the wavevectors and the normal")
               for v in (sys_i.incident.k, sys_i.reflected.k, sys_i.transmitted.k, sys_i.spec.normal)]
    return coplanar([RVec3(0.0, 0.0, 0.0), *vectors])


def fresnel_standard(pol: str, n1: float, n2: float, theta_i: float) -> tuple[float, float]:
    """Standard-convention Fresnel amplitude coefficients (r, t).

    s: r = (n1 ci - n2 ct)/(n1 ci + n2 ct),  t = 2 n1 ci/(n1 ci + n2 ct)
    p: r = (n2 ci - n1 ct)/(n2 ci + n1 ct),  t = 2 n1 ci/(n2 ci + n1 ct)

    with ci = cos(theta_i), ct = cos(theta_t).
    """
    if pol not in ("s", "p"):
        raise DomainError(f"polarization must be 's' or 'p', got {pol!r}")
    theta_t = snell_angle(n1, n2, theta_i)
    ci = math.cos(theta_i)
    ct = math.cos(theta_t)
    if pol == "s":
        return _ratios(lambda n1, n2: (n1 * ci - n2 * ct, 2.0 * n1 * ci, n1 * ci + n2 * ct), n1, n2)
    return _ratios(lambda n1, n2: (n2 * ci - n1 * ct, 2.0 * n1 * ci, n2 * ci + n1 * ct), n1, n2)
