"""Seeded input generator for the optikit benchmark.

Pure Python: this module never imports optikit or numpy, so input generation
stays outside the worker's set-up clock.  Every input is plain data (document
text, floats, argv lists); the ops hand it to the library.

Each workload is an endless stream of op specs drawn from `random.Random`
seeded with "<workload>:<seed>", so one seed always gives the same stream.
Sizes are stratified rather than drawn independently: the j-th op of a kind
takes the size at fraction frac(u0 + j * PHI) of its range (u0 from the seed),
so every run covers its size range evenly whatever the seed, and run-to-run
spread comes from the program, not from luck of the draw.

One op in every 20 (5%) is an input the library must reject, taken in turn
from the workload's rejection classes.  Separately, `defect_probes` lists
non-finite inputs the library still accepts (known defects); they are run
and reported by class but are not part of the timed stream.
"""

from __future__ import annotations

import math
import random

PHI = 0.6180339887498949
REJECT_EVERY = 20

# Rejection classes and the exit code the CLI must give for each.
REJECT_EXIT = {
    "parse_error": 2,
    "n_nonpositive": 1,
    "d_negative": 1,
    "R_zero": 1,
    "tir": 1,
    "imq_nonpositive": 1,
}

CLI_KINDS = ("matrix", "trace", "stability", "beam", "interface", "quantum")
QUANTUM_DIMS = (64, 128, 256, 512)

# Why each workload exists and its size distribution, one line each
# (BENCHMARK.json repeats these lines).
WORKLOADS = {
    "ray_design": "Per-call overhead of the scalar Mat2/dataclass path: 3 systems of 2-16 components "
                  "(3 rays, 1 beam) per 2 resonators of 0-4 inner elements, oracle 200-1000 trips",
    "ray_long": "Per-element cost of parse, fold and trace: 4 systems of 500-4000 components "
                "(1 ray, 1 beam) per resonator of 50-200 inner elements, oracle 10000 trips",
    "field_numerics": "Array-shaped kernels: 2 interface-residual ops (theta in [0, 80) deg, 500-2000 "
                      "samples) per dense quantum-mode op (D = 64, 128, 256, 512)",
    "cli_cold": "Interpreter start, imports and argparse: one 'python -m optikit.cli' process per op, "
                "cycling all six subcommands at default sizes on 2-16 component files",
}

REJECTS = {
    "ray_design": ("parse_error", "n_nonpositive", "d_negative", "R_zero", "imq_nonpositive"),
    "ray_long": ("parse_error", "n_nonpositive", "d_negative", "R_zero", "imq_nonpositive"),
    "field_numerics": ("tir",),
    "cli_cold": ("parse_error", "n_nonpositive", "d_negative", "R_zero", "imq_nonpositive", "tir"),
}

# kind pattern of the non-rejected ops
PATTERN = {
    "ray_design": ("system", "resonator", "system", "resonator", "system"),
    "ray_long": ("system", "system", "resonator", "system", "system"),
    "field_numerics": ("interface", "quantum", "interface"),
    "cli_cold": CLI_KINDS,
}

# Size ranges of the ray workloads (cli_cold reuses the small ones).
SIZES = {
    "ray_design": {"components": (2, 16), "rays": 3, "inner": (1, 4), "two_mirror": 1 / 3,
                   "trips": (200, 1000), "d": 0.5, "inner_d": 0.1},
    "ray_long": {"components": (500, 4000), "rays": 1, "inner": (50, 200), "two_mirror": 0.0,
                 "trips": (10000, 10000), "d": 2e-3, "inner_d": 0.02},
    "cli_cold": {"components": (2, 16), "rays": 1, "inner": (1, 4), "two_mirror": 1 / 3,
                 "trips": (1000, 1000), "d": 0.5, "inner_d": 0.1},
}


class Strata:
    """Low-discrepancy fractions in [0, 1): frac(u0 + j * PHI)."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + PHI) % 1.0
        return self.u

    def between(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next()

    def int_between(self, lo: int, hi: int) -> int:
        return min(hi, lo + int((hi - lo + 1) * self.next()))


def _freespace(n: float, d: float) -> str:
    return f"freespace n={n!r} d={d!r}"


def _interface(radius: float | None, kind: str | None) -> str:
    text = "interface plane" if radius is None else f"interface spherical R={radius!r}"
    return text if kind is None else f"{text} kind={kind}"


def _opt(name: str, value) -> str:
    return f"--{name}={value!r}"


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    x = rng.uniform(lo, hi)
    return x if rng.random() < 0.5 else -x


class Generator:
    """Endless seeded op-spec stream of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.sizes = SIZES.get(workload, {})
        self.strata = {kind: Strata(self.rng)
                       for kind in ("components", "inner", "trips", "target", "theta", "samples")}
        self.reject_offset = self.rng.randrange(REJECT_EVERY)
        self.reject_turn = self.rng.randrange(len(REJECTS[workload]))
        self.kind_turn = self.rng.randrange(len(PATTERN[workload]))
        self.dim_turn = self.rng.randrange(len(QUANTUM_DIMS))

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        if self._reject_due():
            classes = REJECTS[self.workload]
            cls = classes[self.reject_turn % len(classes)]
            self.reject_turn += 1
            spec = self._rejected(cls)
            spec["reject"] = cls
            return spec
        pattern = PATTERN[self.workload]
        kind = pattern[self.kind_turn % len(pattern)]
        self.kind_turn += 1
        spec = self._cli(kind) if self.workload == "cli_cold" else getattr(self, f"_{kind}")()
        spec["reject"] = None
        return spec

    def _reject_due(self) -> bool:
        self.reject_offset = (self.reject_offset + 1) % REJECT_EVERY
        return self.reject_offset == 0

    # ---- ray layers -------------------------------------------------------

    def _system_lines(self, count: int) -> list[str]:
        rng = self.rng
        long = self.workload == "ray_long"
        lines = ["[system]"]
        for _ in range(count):
            lines.append(_freespace(rng.uniform(1.0, 1.8 if long else 2.0), rng.uniform(0.0, self.sizes["d"])))
            kind = rng.choice((None, None, "transmitted"))
            if long:
                radius = _signed(rng, 0.2, 2.0) if rng.random() < 0.15 else None
            else:
                radius = _signed(rng, 0.1, 5.0) if rng.random() < 0.6 else None
                if rng.random() < 0.1:
                    kind = "reflected"
            lines.append(_interface(radius, kind))
        lines.append(_freespace(rng.uniform(1.0, 2.0), rng.uniform(0.0, self.sizes["d"])))
        return lines

    def _beam(self) -> tuple[complex, float]:
        rng = self.rng
        lam = rng.uniform(4e-7, 2e-6)
        w0 = rng.uniform(2e-4, 2e-3)
        z_r = math.pi * w0 * w0 / lam
        return complex(rng.uniform(-2.0, 2.0) * z_r, z_r), lam

    def _system(self, count: int | None = None) -> dict:
        rng = self.rng
        if count is None:
            count = self.strata["components"].int_between(*self.sizes["components"])
        rays = [(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-2, 1e-2)) for _ in range(self.sizes["rays"])]
        q, lam = self._beam()
        return {"kind": "system", "size": count, "text": "\n".join(self._system_lines(count)) + "\n",
                "rays": rays, "q": (q.real, q.imag), "lam": lam}

    def _resonator(self, inner_count: int | None = None, trips: int | None = None) -> dict:
        """Two spherical mirrors around plane inner interfaces.

        With only plane interfaces inside, the cavity is equivalent to a bare
        two-mirror cavity of reduced length L = sum(d_i / n_i), so its
        round-trip half-trace is exactly 2 g1 g2 - 1 with g_i = 1 - L n_i / R_i
        (n_i: the index at mirror i).  The generator picks g1 g2 from a
        stratified target, so stable and clearly unstable cavities come in a
        fixed proportion, and the check has an independent closed form.
        """
        rng = self.rng
        sz = self.sizes
        if inner_count is None:
            if rng.random() < sz["two_mirror"]:
                inner_count = 0
            else:
                inner_count = self.strata["inner"].int_between(*sz["inner"])
        if trips is None:
            trips = self.strata["trips"].int_between(*sz["trips"])
        inner = [(rng.uniform(1.0, 2.0), rng.uniform(0.0, sz["inner_d"])) for _ in range(inner_count)]
        n_c, d_c = rng.uniform(1.0, 2.0), rng.uniform(0.05, 0.5)
        length = sum(d / n for n, d in inner) + d_c / n_c
        n_left = inner[0][0] if inner else n_c
        u = self.strata["target"].next()
        if u < 2 / 3:  # stable: g1 g2 in [0.05, 0.95], half-trace in [-0.9, 0.9]
            product = 0.05 + 0.9 * (u * 1.5)
        elif u < 5 / 6:  # unstable, half-trace in [1.1, 3]
            product = 1.05 + 0.95 * ((u - 2 / 3) * 6)
        else:  # unstable, half-trace in [-3, -1.1]
            product = -0.05 - 0.95 * ((u - 5 / 6) * 6)
        while True:
            g1 = _signed(rng, 0.3, 1.6)
            g2 = product / g1
            if abs(1.0 - g1) > 0.05 and abs(1.0 - g2) > 0.05:
                break
        r_left = length * n_left / (1.0 - g1)
        r_right = length * n_c / (1.0 - g2)
        lines = ["[resonator]", _interface(r_left, None)]
        for n, d in inner:
            lines += [_freespace(n, d), _interface(None, rng.choice((None, "transmitted")))]
        lines += [_freespace(n_c, d_c), _interface(r_right, None)]
        return {"kind": "resonator", "size": inner_count, "text": "\n".join(lines) + "\n",
                "half_trace": 2.0 * g1 * g2 - 1.0, "trips": trips,
                "source": (rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))}

    # ---- field layers -----------------------------------------------------

    def _interface_spec(self) -> dict:
        rng = self.rng
        theta_deg = self.strata["theta"].between(0.0, 80.0)
        n1 = rng.uniform(1.0, 2.5)
        s = n1 * math.sin(math.radians(theta_deg))
        n2 = rng.uniform(max(1.0, 1.01 * s), max(2.5, 1.02 * s))
        return {"theta_deg": theta_deg, "n1": n1, "n2": n2, "a": rng.uniform(0.5, 2.0),
                "seed": rng.randrange(2**31)}

    def _tir_spec(self) -> dict:
        rng = self.rng
        n1 = rng.uniform(1.5, 2.5)
        n2 = rng.uniform(1.0, n1 / 1.2)
        critical = math.degrees(math.asin(n2 / n1))
        return {"theta_deg": rng.uniform(critical + 2.0, 85.0), "n1": n1, "n2": n2,
                "a": rng.uniform(0.5, 2.0), "seed": rng.randrange(2**31)}

    def _interface(self) -> dict:
        samples = self.strata["samples"].int_between(500, 2000)
        return {"kind": "interface", "size": samples, "samples": samples, **self._interface_spec()}

    def _quantum(self) -> dict:
        dim = QUANTUM_DIMS[self.dim_turn % len(QUANTUM_DIMS)]
        self.dim_turn += 1
        return {"kind": "quantum", "size": dim, "dim": dim,
                "omega": self.rng.uniform(0.25, 4.0), "hbar": self.rng.uniform(0.5, 2.0)}

    # ---- CLI --------------------------------------------------------------

    def _cli(self, cmd: str) -> dict:
        """argv of one subcommand; options use --key=value so that negative
        numbers in exponent form are not taken for options."""
        rng = self.rng
        files: dict[str, str] = {}
        if cmd in ("matrix", "trace", "beam"):
            system = self._system()
            files["in.osys"] = system["text"]
            argv = [cmd, "in.osys"]
            if cmd == "trace":
                y0, theta0 = system["rays"][0]
                argv += [_opt("y0", y0), _opt("theta0", theta0),
                         "--format=" + rng.choice(("table", "csv"))]
            elif cmd == "beam":
                q_re, q_im = system["q"]
                argv.append(_opt("lambda", system["lam"]))
                if rng.random() < 0.5:
                    argv += [_opt("q-re", q_re), _opt("q-im", q_im)]
                else:
                    inv = 1.0 / complex(q_re, q_im)
                    radius = math.inf if inv.real == 0 else 1.0 / inv.real
                    argv += [_opt("R", radius), _opt("w", math.sqrt(system["lam"] / (math.pi * -inv.imag)))]
        elif cmd == "stability":
            res = self._resonator()
            files["in.res"] = res["text"]
            argv = [cmd, "in.res", "--oracle", _opt("y0", res["source"][0]), _opt("theta0", res["source"][1])]
        elif cmd == "interface":
            spec = self._interface_spec()
            argv = [cmd, _opt("n1", spec["n1"]), _opt("n2", spec["n2"]), _opt("theta-deg", spec["theta_deg"]),
                    _opt("a", spec["a"]), _opt("seed", spec["seed"] % 1000)]
        else:
            argv = [cmd, _opt("omega", rng.uniform(0.25, 4.0)), _opt("hbar", rng.uniform(0.5, 2.0))]
        return {"kind": cmd, "argv": argv, "files": files}

    # ---- rejected inputs --------------------------------------------------

    def _rejected(self, cls: str) -> dict:
        """An input the library must refuse with an OptikitError or ParseError
        (or, on the CLI, exit 1/2 with an 'error:' line)."""
        rng = self.rng
        cli = self.workload == "cli_cold"
        if cls == "tir":
            spec = self._tir_spec()
            if cli:
                return {"kind": "interface", "files": {},
                        "argv": ["interface", _opt("n1", spec["n1"]), _opt("n2", spec["n2"]),
                                 _opt("theta-deg", spec["theta_deg"])]}
            return {"kind": "interface", "size": 1000, "samples": 1000, **spec}
        if cls in ("d_negative", "R_zero"):
            spec = self._resonator()
            lines = spec["text"].split("\n")
            if cls == "R_zero":
                lines[1] = "interface spherical R=0.0"
            else:
                lines[-3] = _freespace(rng.uniform(1.0, 2.0), -rng.uniform(1e-3, 0.5))
            spec["text"] = "\n".join(lines)
            if cli:
                return {"kind": "stability", "files": {"in.res": spec["text"]},
                        "argv": ["stability", "in.res"]}
            return spec
        spec = self._system()
        lines = spec["text"].split("\n")
        body = [i for i, line in enumerate(lines) if line.startswith("freespace")]
        where = rng.choice(body)
        if cls == "parse_error":
            n = lines[where].split()[1]
            lines[where] = rng.choice((
                f"freespace {n} d=",
                f"freespace {n}",
                f"freespace {n} d=0.1 x=1",
                f"freespace {n} d=1.2.3",
                f"freespace {n} d=0.1 trailing",
            ))
        elif cls == "n_nonpositive":
            lines[where] = _freespace(rng.choice((0.0, -rng.uniform(0.1, 2.0))), rng.uniform(0.0, 0.1))
        elif cls == "imq_nonpositive":
            spec["q"] = (spec["q"][0], rng.choice((0.0, -spec["q"][1])))
        spec["text"] = "\n".join(lines)
        if cli:
            if cls == "imq_nonpositive":
                argv = ["beam", "in.osys", _opt("lambda", spec["lam"]),
                        _opt("q-re", spec["q"][0]), _opt("q-im", spec["q"][1])]
            else:
                argv = [rng.choice(("matrix", "trace")), "in.osys"]
                if argv[0] == "trace":
                    argv += ["--y0=0.001", "--theta0=0"]
            return {"kind": argv[0], "files": {"in.osys": spec["text"]}, "argv": argv}
        return spec

    # ---- warm-up ----------------------------------------------------------

    def warmups(self) -> list[dict]:
        """One smallest-size input of each op kind, for the untimed warm-up."""
        if self.workload == "cli_cold":
            return [dict(self._cli(cmd), reject=None) for cmd in CLI_KINDS]
        if self.workload == "field_numerics":
            return [dict(self._interface(), reject=None), dict(self._quantum(), reject=None)]
        lo = self.sizes["components"][0]
        inner = self.sizes["inner"][0]
        return [dict(self._system(lo), reject=None),
                dict(self._resonator(inner, self.sizes["trips"][0]), reject=None)]


def defect_probes(workload: str) -> list[str]:
    """Known non-finite defects reachable today, by class (see ops.PROBES)."""
    if workload == "cli_cold":
        return ["cli_nonfinite_n", "cli_nan_y0", "cli_inf_omega"]
    if workload == "field_numerics":
        return ["nonfinite_n2", "nonfinite_omega"]
    return ["nonfinite_n", "nonfinite_d", "subnormal_R", "nan_determinant", "inf_wavelength"]
