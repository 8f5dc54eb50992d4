"""Monochromatic plane waves at a plane interface between two media.

A plane wave is stored as an amplitude record (k, omega, E, H); the field at
(r, t) is the amplitude scaled by exp(-j(k.r - omega t)).  The tangential
components of E and H must match across an interface: with n the unit normal,

    n x E_1(r, t) = n x E_2(r, t)   and   n x H_1(r, t) = n x H_2(r, t)

at every point r of the plane and all times t.  `boundary_residual` returns
the two mismatch vectors, and `validate_interface_system` checks a full
incident/reflected/transmitted triple clause by clause: interface geometry,
non-null fields, propagation directions relative to the normal, wavevector
norms k0*n, the impedance relation H = (1/(eta0 k0)) k x E, and the boundary
conditions sampled at seeded pseudo-random plane points.

`oblique_incidence_fields` builds the worked s-oriented field triple whose
amplitudes satisfy the tangential continuity identity a + r = t exactly.
Note its H amplitudes are tangential-continuity companions of the E fields,
not (1/(eta0 k0)) k x E of them; the validator reports that mismatch as an
advisory clause instead of failing (see `Clause.required`).
`fresnel_standard` gives the standard-convention s/p coefficients for
comparison.

Cost and exactness of `max_boundary_residual`: the seeded (u, v, t) draws stay
a per-sample `random.Random` loop, and one private generator owns their order
for both the kernel and `sample_plane_points`.  Everything after the draws is
float64 array work over blocks of at most `_CHUNK` samples, so time is
O(samples) at a few microseconds per sample and memory is O(_CHUNK).

The kernel returns exactly (bit for bit) the max over `sample_plane_points`
of the component magnitudes of `boundary_residual`, the scalar reference
path, whenever the fields involved are finite.  It repeats CPython's complex
arithmetic on split real/imaginary arrays:

- products are (ar*br - ai*bi, ar*bi + ai*br);
- the phase exp(-j x) is (cos(-x), sin(-x)), which is what `cmath.exp`
  computes for the purely imaginary argument;
- magnitudes are hypot(re, im), which is what `abs` computes.

numpy's complex128 multiply and `np.abs` may take fused multiply-add or SIMD
paths that differ from CPython in the last bit, so the kernel avoids them.
The contract also needs `np.cos`, `np.sin` and `np.hypot` to round as the C
library does; the test suite checks the kernel against the reference path.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import CVec3, RVec3, ccross, coplanar
from .errors import DomainError, OffPlanePoint, TotalInternalReflection

__all__ = [
    "PlaneWave",
    "InterfaceSpec",
    "EMConstants",
    "InterfaceSystem",
    "Clause",
    "InterfaceReport",
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
    "validate_interface_system",
    "check_plane_of_incidence",
    "fresnel_standard",
]

# impedance of vacuum, ohms
ETA0 = 376.730313668

# samples per array block in `max_boundary_residual`; bounds its memory
_CHUNK = 4096


@dataclass(frozen=True)
class PlaneWave:
    """Amplitude record of a monochromatic plane wave.

    k: wavevector (rad/m), omega: angular frequency (rad/s),
    E, H: electric and magnetic amplitudes (V/m, A/m).
    """

    k: RVec3
    omega: float
    E: CVec3
    H: CVec3


@dataclass(frozen=True)
class InterfaceSpec:
    """Plane interface: indices n1, n2, a point on the plane, and the unit
    normal pointing from medium 1 into medium 2."""

    n1: float
    n2: float
    point: RVec3
    normal: RVec3


@dataclass(frozen=True)
class EMConstants:
    """Vacuum wavenumber k0 (rad/m) and vacuum impedance eta0 (ohms)."""

    k0: float
    eta0: float = ETA0


@dataclass(frozen=True)
class InterfaceSystem:
    spec: InterfaceSpec
    incident: PlaneWave
    reflected: PlaneWave
    transmitted: PlaneWave
    consts: EMConstants


@dataclass(frozen=True)
class Clause:
    """One checked condition.  Advisory clauses (required=False) are surfaced
    but do not fail the report."""

    key: str
    ok: bool
    required: bool
    detail: str


@dataclass(frozen=True)
class InterfaceReport:
    clauses: tuple[Clause, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses if c.required)

    @property
    def warnings(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if not c.ok and not c.required)

    def clause(self, key: str) -> Clause:
        for c in self.clauses:
            if c.key == key:
                return c
        raise KeyError(key)

    def __str__(self) -> str:
        parts = []
        for c in self.clauses:
            status = "ok" if c.ok else ("WARN" if not c.required else "FAIL")
            parts.append(f"{c.key}: {status} ({c.detail})")
        return "\n".join(parts)


def eval_plane_wave(wave: PlaneWave, r: RVec3, t: float) -> tuple[CVec3, CVec3]:
    """Field amplitudes at (r, t): both scaled by exp(-j(k.r - omega t))."""
    phase = cmath.exp(-1j * (wave.k.dot(r) - wave.omega * t))
    return (wave.E.scale(phase), wave.H.scale(phase))


def wavelength_of(k: RVec3) -> float:
    """Wavelength 2*pi/|k| of a wavevector."""
    norm = k.norm()
    if norm == 0:
        raise DomainError("zero wavevector has no wavelength")
    return 2.0 * math.pi / norm


def h_from_e(k: RVec3, E: CVec3, consts: EMConstants) -> CVec3:
    """Magnetic amplitude (1/(eta0 k0)) * (k x E) of a plane wave in a medium."""
    if not (consts.eta0 > 0 and consts.k0 > 0):
        raise DomainError("eta0 and k0 must be positive")
    return ccross(k.as_complex(), E).scale(1.0 / (consts.eta0 * consts.k0))


def _require_on_plane(spec: InterfaceSpec, r: RVec3) -> None:
    offset = r - spec.point
    if abs(offset.dot(spec.normal)) > 1e-12 * (1.0 + offset.norm()):
        raise OffPlanePoint(f"point {r} is off the interface plane")


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
    n = spec.normal.as_complex()
    e1 = CVec3(0j, 0j, 0j)
    h1 = CVec3(0j, 0j, 0j)
    for wave in side1:
        e, h = eval_plane_wave(wave, r, t)
        e1 = e1 + e
        h1 = h1 + h
    e2, h2 = eval_plane_wave(side2, r, t)
    return (ccross(n, e1 - e2), ccross(n, h1 - h2))


def snell_angle(n1: float, n2: float, theta_i: float) -> float:
    """Transmitted angle arcsin(n1 sin(theta_i) / n2), radians."""
    if not (0 < n1 < math.inf and 0 < n2 < math.inf):
        raise DomainError(f"indices must be positive and finite, got {n1!r}, {n2!r}")
    if not 0 <= theta_i < math.pi / 2:
        raise DomainError(f"incidence angle must be in [0, pi/2), got {theta_i!r}")
    s = n1 * math.sin(theta_i) / n2
    if s > 1.0:
        raise TotalInternalReflection(
            f"total internal reflection: n1 sin(theta_i)/n2 = {s!r} > 1"
        )
    return math.asin(s)


def reflect_wavevector(k_i: RVec3, normal: RVec3) -> RVec3:
    """Reflected wavevector k_i - 2 (k_i . n) n for a unit normal n."""
    if abs(normal.norm() - 1.0) > 1e-9:
        raise DomainError(f"normal must be unit length, got |n| = {normal.norm()!r}")
    return k_i - normal.scale(2.0 * k_i.dot(normal))


def continuity_coefficients(n1: float, n2: float, theta_i: float, a: float = 1.0) -> tuple[float, float]:
    """Reflected/transmitted amplitudes (r, t) with a + r = t identically.

    r = a (n2 cos(theta_i) - n1 cos(theta_t)) / (n2 cos(theta_i) + n1 cos(theta_t))
    t = a (2 n2 cos(theta_i)) / (n2 cos(theta_i) + n1 cos(theta_t))
    """
    theta_t = snell_angle(n1, n2, theta_i)
    ci = math.cos(theta_i)
    ct = math.cos(theta_t)
    den = n2 * ci + n1 * ct
    return (a * (n2 * ci - n1 * ct) / den, a * (2.0 * n2 * ci) / den)


def oblique_incidence_fields(
    theta_i: float,
    n1: float,
    n2: float,
    a: float,
    omega: float,
    k0: float,
) -> InterfaceSystem:
    """Worked interface example: s-oriented E fields on the y-z plane.

    The interface is the y-z plane with normal (1, 0, 0); wavevectors are
    k0*n1*(+-cos, 0, sin) and k0*n2*(cos theta_t, 0, sin theta_t); E points
    along y with amplitudes (a, r, t) from `continuity_coefficients`, so the
    tangential sums match on the plane and the boundary residual vanishes
    identically.  The H amplitudes are the matching in-plane companions
    (+-cos, 0, -sin) scaled by n/eta0 -- deliberately not recomputed through
    `h_from_e` (see module docstring).
    """
    if not 0 < a < math.inf:
        raise DomainError(f"amplitude must be positive and finite, got {a!r}")
    if not (0 < omega < math.inf and 0 < k0 < math.inf):
        raise DomainError(f"omega and k0 must be positive and finite, got {omega!r}, {k0!r}")
    theta_t = snell_angle(n1, n2, theta_i)
    r_amp, t_amp = continuity_coefficients(n1, n2, theta_i, a)
    ci, si = math.cos(theta_i), math.sin(theta_i)
    ct, st = math.cos(theta_t), math.sin(theta_t)

    spec = InterfaceSpec(n1=n1, n2=n2, point=RVec3(0.0, 0.0, 0.0), normal=RVec3(1.0, 0.0, 0.0))
    consts = EMConstants(k0=k0)
    eta0 = consts.eta0

    k_i = RVec3(k0 * n1 * ci, 0.0, k0 * n1 * si)
    k_r = RVec3(-k0 * n1 * ci, 0.0, k0 * n1 * si)
    k_t = RVec3(k0 * n2 * ct, 0.0, k0 * n2 * st)

    incident = PlaneWave(
        k=k_i,
        omega=omega,
        E=CVec3(0j, complex(a), 0j),
        H=CVec3(complex(a * n1 / eta0 * ci), 0j, complex(-a * n1 / eta0 * si)),
    )
    reflected = PlaneWave(
        k=k_r,
        omega=omega,
        E=CVec3(0j, complex(r_amp), 0j),
        H=CVec3(complex(-r_amp * n1 / eta0 * ci), 0j, complex(-r_amp * n1 / eta0 * si)),
    )
    transmitted = PlaneWave(
        k=k_t,
        omega=omega,
        E=CVec3(0j, complex(t_amp), 0j),
        H=CVec3(complex(t_amp * n2 / eta0 * ct), 0j, complex(-t_amp * n2 / eta0 * st)),
    )
    waves = (incident, reflected, transmitted)
    if not all(cmath.isfinite(c) for w in waves for v in (w.k, w.E, w.H) for c in (v.x, v.y, v.z)):
        raise DomainError(f"fields overflow double precision at a = {a!r}, n1 = {n1!r}, n2 = {n2!r}")
    return InterfaceSystem(spec, *waves, consts)


def _tangent_basis(normal: RVec3) -> tuple[RVec3, RVec3]:
    seed = RVec3(1.0, 0.0, 0.0) if abs(normal.x) < 0.9 else RVec3(0.0, 1.0, 0.0)
    raw = seed - normal.scale(seed.dot(normal))
    t1 = raw.scale(1.0 / raw.norm())
    t2 = normal.cross(t1)
    return (t1, t2)


def _plane_draws(
    sys_i: InterfaceSystem, samples: int, seed: int
) -> Iterator[tuple[float, float, float]]:
    """Seeded tangential offsets (u, v) and times t, one triple per sample.

    The single owner of the draw order: u, v, t per sample from
    `random.Random(seed)`, so seeded outputs never change.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    lam = wavelength_of(sys_i.incident.k)
    period = 2.0 * math.pi / sys_i.incident.omega
    rng = random.Random(seed)
    for _ in range(samples):
        u = rng.uniform(-10.0 * lam, 10.0 * lam)
        v = rng.uniform(-10.0 * lam, 10.0 * lam)
        t = rng.uniform(0.0, 10.0 * period)
        yield (u, v, t)


def sample_plane_points(
    sys_i: InterfaceSystem, samples: int, seed: int
) -> Iterator[tuple[RVec3, float]]:
    """Seeded (point, time) samples on the interface plane.

    Tangential offsets span +-10 wavelengths of the incident wave and times
    span ten periods, so the check covers many phase cycles.
    """
    point = sys_i.spec.point
    t1, t2 = _tangent_basis(sys_i.spec.normal)
    for u, v, t in _plane_draws(sys_i, samples, seed):
        yield (point + t1.scale(u) + t2.scale(v), t)


def _field_scale(sys_i: InterfaceSystem) -> float:
    waves = (sys_i.incident, sys_i.reflected, sys_i.transmitted)
    return max(max(w.E.max_abs(), w.H.max_abs()) for w in waves)


def _column(v: RVec3) -> np.ndarray:
    return np.array([[float(v.x)], [float(v.y)], [float(v.z)]])


def _dot3(a, b):
    # left to right, as RVec3.dot sums
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cmul(ar, ai, br, bi):
    """CPython's complex product on split parts (no fused multiply-add)."""
    return (ar * br - ai * bi, ar * bi + ai * br)


def _amplitudes(wave: PlaneWave) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (E, H), shape (2, 3, 1)."""
    parts = np.array(
        [[complex(c) for c in (f.x, f.y, f.z)] for f in (wave.E, wave.H)]
    )[:, :, None]
    return (parts.real, parts.imag)


def _block_fields(wave: PlaneWave, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split (E, H) of `eval_plane_wave` at n points, shape (2, 3, n)."""
    # -1j * x is (0.0, -x) and cmath.exp of it is (cos(-x), sin(-x))
    arg = -(_dot3(_column(wave.k), r) - float(wave.omega) * t)
    ar, ai = _amplitudes(wave)
    return _cmul(np.cos(arg), np.sin(arg), ar, ai)


# component i of u x v is u[_NEXT[i]] v[_PREV[i]] - u[_PREV[i]] v[_NEXT[i]]
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


@np.errstate(over="ignore", invalid="ignore")  # a NaN residual is raised below
def max_boundary_residual(sys_i: InterfaceSystem, samples: int, seed: int) -> float:
    """Largest tangential-mismatch component over seeded plane samples.

    Equal bit for bit to the max over `sample_plane_points` of the
    `boundary_residual` component magnitudes (see the module docstring).
    Raises `OffPlanePoint` at the first sample off the plane.
    """
    spec = sys_i.spec
    point = _column(spec.point)
    t1, t2 = (_column(b) for b in _tangent_basis(spec.normal))
    normal = _column(spec.normal)
    n_im = np.zeros_like(normal)
    draws = _plane_draws(sys_i, samples, seed)
    worst = 0.0
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(draws, _CHUNK)), float)
        if block.size == 0:
            return worst
        u, v, t = block.reshape(-1, 3).T
        r = point + t1 * u + t2 * v
        # the inequality of `_require_on_plane`, which then raises for the first hit
        offset = r - point
        off_plane = np.abs(_dot3(offset, normal)) > 1e-12 * (1.0 + np.sqrt(_dot3(offset, offset)))
        if off_plane.any():
            i = int(np.argmax(off_plane))
            _require_on_plane(spec, RVec3(*r[:, i].tolist()))
        inc_r, inc_i = _block_fields(sys_i.incident, r, t)
        ref_r, ref_i = _block_fields(sys_i.reflected, r, t)
        tra_r, tra_i = _block_fields(sys_i.transmitted, r, t)
        # side 1 summed from CVec3(0j, 0j, 0j), then crossed with the normal as
        # a complex vector, exactly as `boundary_residual` does
        d_r = (0.0 + inc_r + ref_r) - tra_r
        d_i = (0.0 + inc_i + ref_i) - tra_i
        a_r, a_i = _cmul(normal[_NEXT], n_im, d_r[:, _PREV], d_i[:, _PREV])
        b_r, b_i = _cmul(normal[_PREV], n_im, d_r[:, _NEXT], d_i[:, _NEXT])
        magnitude = np.hypot(a_r - b_r, a_i - b_i)
        peak = float(np.max(magnitude))
        if math.isnan(peak):  # overflowed fields; the reference's max() would drop it
            raise DomainError("boundary residual is NaN: the fields overflow double precision")
        worst = max(worst, peak)


def validate_interface_system(sys_i: InterfaceSystem, samples: int, seed: int) -> InterfaceReport:
    """Check the full plane-wave-at-interface constraint, clause by clause."""
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    clauses: list[Clause] = []
    spec = sys_i.spec
    consts = sys_i.consts
    waves = {
        "incident": sys_i.incident,
        "reflected": sys_i.reflected,
        "transmitted": sys_i.transmitted,
    }

    norm_err = abs(spec.normal.norm() - 1.0)
    iface_ok = spec.n1 > 0 and spec.n2 > 0 and norm_err <= 1e-12
    clauses.append(
        Clause(
            "interface_valid",
            iface_ok,
            True,
            f"n1 = {spec.n1!r}, n2 = {spec.n2!r}, | |normal| - 1 | = {norm_err:.3e}",
        )
    )

    consts_ok = consts.eta0 > 0 and consts.k0 > 0
    clauses.append(
        Clause("constants_valid", consts_ok, True, f"eta0 = {consts.eta0!r}, k0 = {consts.k0!r}")
    )

    wellformed = all(w.omega > 0 and w.k.norm() > 0 for w in waves.values())
    clauses.append(Clause("waves_wellformed", wellformed, True, "omega > 0 and |k| > 0 for all waves"))

    for name, wave in waves.items():
        nonnull = wave.E.max_abs() > 0 and wave.H.max_abs() > 0
        clauses.append(Clause(f"non_null_{name}", nonnull, True, "E and H amplitudes nonzero"))

    signs = {
        "incident": sys_i.incident.k.dot(spec.normal) >= 0,
        "reflected": sys_i.reflected.k.dot(spec.normal) <= 0,
        "transmitted": sys_i.transmitted.k.dot(spec.normal) >= 0,
    }
    for name, ok in signs.items():
        clauses.append(
            Clause(
                f"direction_{name}",
                ok,
                True,
                f"k . n = {waves[name].k.dot(spec.normal):.6g}",
            )
        )

    expected_norms = {
        "incident": consts.k0 * spec.n1,
        "reflected": consts.k0 * spec.n1,
        "transmitted": consts.k0 * spec.n2,
    }
    worst_norm = 0.0
    for name, wave in waves.items():
        expect = expected_norms[name]
        worst_norm = max(
            worst_norm, abs(wave.k.norm() - expect) / max(abs(expect), 1e-300)
        )
    clauses.append(
        Clause(
            "wavevector_norms",
            worst_norm <= 1e-9,
            True,
            f"max relative deviation from k0*n = {worst_norm:.3e}",
        )
    )

    # Impedance relation H = (1/(eta0 k0)) k x E.  Advisory: the worked
    # example's H amplitudes intentionally differ from it (module docstring),
    # yet still satisfy the boundary conditions checked below.
    if consts_ok:
        worst_h = 0.0
        for wave in waves.values():
            expect = h_from_e(wave.k, wave.E, consts)
            scale = max(expect.max_abs(), wave.H.max_abs(), 1e-300)
            worst_h = max(worst_h, (wave.H - expect).max_abs() / scale)
        clauses.append(
            Clause(
                "h_field_consistency",
                worst_h <= 1e-9,
                False,
                f"max relative mismatch against (1/(eta0 k0)) k x E = {worst_h:.3e}",
            )
        )
    else:
        clauses.append(
            Clause("h_field_consistency", False, False, "skipped: invalid constants")
        )

    if iface_ok and wellformed:
        scale = _field_scale(sys_i)
        worst_residual = max_boundary_residual(sys_i, samples, seed)
        clauses.append(
            Clause(
                "boundary_conditions",
                worst_residual <= 1e-9 * max(scale, 1e-300),
                True,
                f"max residual over {samples} samples = {worst_residual:.3e} (field scale {scale:.3g})",
            )
        )
    else:
        # sampling needs a real plane and nonzero wavevectors
        clauses.append(
            Clause("boundary_conditions", False, True, "skipped: prerequisites failed")
        )

    return InterfaceReport(tuple(clauses))


def check_plane_of_incidence(sys_i: InterfaceSystem) -> bool:
    """All wavevectors and the normal lie in one plane through the origin."""
    zero = RVec3(0.0, 0.0, 0.0)
    return coplanar(
        [zero, sys_i.incident.k, sys_i.reflected.k, sys_i.transmitted.k, sys_i.spec.normal]
    )


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
        den = n1 * ci + n2 * ct
        return ((n1 * ci - n2 * ct) / den, 2.0 * n1 * ci / den)
    den = n2 * ci + n1 * ct
    return ((n2 * ci - n1 * ct) / den, 2.0 * n1 * ci / den)
