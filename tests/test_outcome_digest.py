"""A pinned digest of what the real-reading entry points return over seeded inputs.

Each call's outcome, the type and float bits of every field of its result or
the type and text of the OptikitError it raises, is hashed in call order.  The
reals mix ordinary floats with IEEE edge values, +-inf, NaN and, where an entry
point has long read them, Python ints beyond the double range.  A change to
any bit of a result, to an error's type or text, or to which inputs fail moves
the digest; a foreign exception fails the test outright.
"""

import hashlib
import math
import random

from helpers import EDGE_FLOATS, band_bytes, bits, random_unimodular, replace
from optikit.core import CVec3, Mat2, RVec3
from optikit.emoptics import (
    fresnel_standard,
    max_boundary_residual,
    oblique_incidence_fields,
    reference_max_residual,
    snell_angle,
)
from optikit.errors import OptikitError
from optikit.gaussian import FLAT, QParameter, beam_at, geometry_from_q, propagate_q, q_from_geometry
from optikit.quantum import make_single_mode
from optikit.rayoptics import RayState
from optikit.resonator import fp_resonator, ray_bound_oracle, stability, stability_from_matrix

SPECIAL = EDGE_FLOATS + [math.inf, -math.inf, math.nan]
# ints beyond the double range: they read as signed infinities
PAST = [2**1024, -(2**1024), 10**400, -(10**400)]


def real(rng: random.Random, ints: bool = True) -> object:
    """A float in [0.1, 3) most of the time, else its negative, an edge value,
    +-inf, NaN or, given ints, an int beyond the double range."""
    roll = rng.random()
    if roll < 0.7:
        return rng.uniform(0.1, 3.0)
    if roll < 0.75:
        return -rng.uniform(0.1, 3.0)
    return rng.choice(SPECIAL + PAST if ints else SPECIAL)


def mode_bands(omega: object, hbar: object, dim: int) -> tuple:
    """The fields of `make_single_mode`, each operator as its bands' bytes."""
    sm = make_single_mode(omega, hbar, dim)
    ops = [sorted((k, band_bytes(band)) for k, band in op.bands.items()) for op in (sm.q, sm.p, sm.H)]
    return (sm.omega, sm.hbar, sm.dim, *ops)


def perturbed(rng: random.Random, system):
    """The system with one part of a wavevector, field, omega (not the incident
    one, which sets the sampled period), the point or the normal redrawn."""
    which = rng.randrange(5)
    if which == 4:
        field = rng.choice(("point", "normal"))
        parts = [getattr(getattr(system.spec, field), c) for c in "xyz"]
        parts[rng.randrange(3)] = real(rng)
        return replace(system, spec=replace(system.spec, **{field: RVec3(*parts)}))
    name = rng.choice(("incident", "reflected", "transmitted"))
    wave = getattr(system, name)
    field = ("k", "E", "H", "omega")[which]
    if field == "omega":
        if name == "incident":
            return system
        return replace(system, **{name: replace(wave, omega=real(rng))})
    parts = [getattr(getattr(wave, field), c) for c in "xyz"]
    value = real(rng)
    parts[rng.randrange(3)] = value if field == "k" or isinstance(value, int) else complex(value, real(rng, False))
    vector = RVec3(*parts) if field == "k" else CVec3(*parts)
    return replace(system, **{name: replace(wave, **{field: vector})})


class TestOutcomeDigest:
    def test_outcomes_are_pinned(self):
        """2,000 seeded rounds over `snell_angle`, `fresnel_standard`,
        `oblique_incidence_fields`, both residual routes, `make_single_mode`,
        the q law and `beam_at`, and the resonator verdicts and oracle."""
        rng = random.Random(2027)
        digest = hashlib.sha256()

        def run(fn, *args):
            """fn(*args), its outcome hashed; None where it raises an OptikitError."""
            try:
                out = fn(*args)
            except OptikitError as exc:
                digest.update(repr((type(exc), str(exc))).encode() + b"\n")
                return None
            digest.update(repr(bits(out)).encode() + b"\n")
            return out

        for _ in range(2000):
            theta = rng.uniform(0.0, 1.5) if rng.random() < 0.8 else real(rng)
            n1, n2 = real(rng), real(rng)
            run(snell_angle, n1, n2, theta)
            run(fresnel_standard, rng.choice("sp"), n1, n2, theta)
            system = run(oblique_incidence_fields, theta, n1, n2, real(rng), real(rng), real(rng))
            if system is None:
                system = oblique_incidence_fields(rng.uniform(0.0, 1.2), 1.0, rng.uniform(1.0, 2.0), 1.0, 1.0, 1.0)
            if rng.random() < 0.5:
                system = perturbed(rng, system)
            samples, seed = rng.randint(1, 12), rng.getrandbits(32)
            run(max_boundary_residual, system, samples, seed)
            run(reference_max_residual, system, samples, seed)
            run(mode_bands, real(rng), real(rng), rng.randint(2, 6))

            # the gaussian layer reads floats here: an int beyond the double range raised OverflowError there
            lam = rng.choice((1e-6, 6.33e-7)) if rng.random() < 0.8 else real(rng, False)
            qp = run(q_from_geometry, FLAT if rng.random() < 0.3 else real(rng, False), real(rng, False), lam)
            if qp is None:
                qp = run(QParameter, complex(real(rng, False), real(rng, False)), lam)
            if qp is not None:
                run(geometry_from_q, qp)
                out = run(propagate_q, qp, Mat2(*(real(rng, False) for _ in range(4))))
                if out is not None:
                    run(geometry_from_q, out)
            run(beam_at, real(rng, False), lam, rng.uniform(-3.0, 3.0) if rng.random() < 0.8 else real(rng, False))

            u = random_unimodular(rng, 0.999)
            entries = [u.a11, u.a12, u.a21, u.a22]
            if rng.random() < 0.3:
                entries[rng.randrange(4)] = real(rng)
            run(stability_from_matrix, Mat2(*entries))
            res = run(fp_resonator, real(rng), real(rng), real(rng))
            if res is None:
                res = fp_resonator(1.0, rng.uniform(0.0, 2.5), 1.0)
            run(stability, res)
            source = RayState(rng.uniform(-1, 1) if rng.random() < 0.8 else real(rng), rng.uniform(-1, 1))
            run(ray_bound_oracle, res, source, rng.randint(1, 60), 1e9 if rng.random() < 0.8 else real(rng))
        assert digest.hexdigest() == "f1606ed39f134e84413a1b27a64f335a73f2e6a52367e617b481fed33b3b21ac"
