"""Timed ops, their correctness checks, and the known-defect probes.

An op is one user-level computation: it takes a generated spec and calls the
public optikit functions through an `Api`, whose attributes are the library
functions themselves (untraced run) or span-recording wrappers (traced run).
The worker times the op; the matching check runs after the clock stops and
returns None or a short failure class.  Checks follow the independent routes
the acceptance suite pins: trace vs composed matrix (1e-12), closed-form
matrix power vs repeated multiplication (1e-9), oracle vs verdict, q law vs
`beam_at` (1e-10), boundary residual vs field scale (1e-12), quantum ground
energy and lower-block commutator (1e-10), and for the CLI the exact stdout
of an in-process library recomputation at 12 significant digits.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np

from optikit import cli, core, emoptics, gaussian, quantum, rayoptics, resonator, sysdesc
from optikit.errors import OptikitError
from optikit.sysdesc import ParseError

from gen import REJECT_EXIT
from tracing import TRACED

REJECTED = (OptikitError, ParseError)
K0 = OMEGA = 2.0 * math.pi
CLI_TIMEOUT_S = 60

# Fault injections used by the checker's self-test.
_TRACEBACK_SNIPPET = (
    "import runpy, optikit.rayoptics as r\n"
    "def boom(*args): raise ZeroDivisionError('injected')\n"
    "r.system_composition = boom\n"
    "runpy.run_module('optikit.cli', run_name='__main__')\n"
)


def _wrong_composition(m):
    return core.Mat2(m.a11 * (1.0 + 1e-6), m.a12, m.a21, m.a22)


def _raise_injected(*args, **kwargs):
    raise RuntimeError("injected")


def run_cli(argv: list[str], cwd: str, env: dict, prefix: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(prefix + argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


class Api:
    """The public functions the ops call; wrapped in spans when traced."""

    def __init__(self, tracer=None, inject: str | None = None, workdir: str = ".", env=None):
        modules = {"sysdesc": sysdesc, "rayoptics": rayoptics, "core": core, "gaussian": gaussian,
                   "resonator": resonator, "emoptics": emoptics, "quantum": quantum}
        self.workdir = workdir
        self.env = env
        prefix = [sys.executable, "-m", "optikit.cli"]
        if inject == "traceback":
            prefix = [sys.executable, "-c", _TRACEBACK_SNIPPET]
        fns = {f"{m}.{name}": getattr(modules[m], name) for m in modules for name in TRACED[m]}
        fns["cli.process"] = lambda argv: run_cli(argv, workdir, env, prefix)
        if inject == "wrong":
            compose = fns["rayoptics.system_composition"]
            fns["rayoptics.system_composition"] = lambda system: _wrong_composition(compose(system))
        elif inject == "raise":
            fns["sysdesc.parse"] = _raise_injected
        for key, fn in fns.items():
            setattr(self, key.split(".")[1], tracer.wrap(key, fn) if tracer else fn)
        self.count = tracer.count if tracer else (lambda name, n: None)


# ---- ray layers -------------------------------------------------------------

def op_system(api: Api, spec: dict):
    text = spec["text"]
    api.count("sysdesc.lines", text.count("\n"))
    doc = api.parse(text)
    canonical = api.serialize(doc)
    system = api.document_to_system(doc)
    report = api.validate_system(system)
    m = api.system_composition(system)
    traces = [api.trace_ray(system, rayoptics.RayState(y, theta)) for y, theta in spec["rays"]]
    api.count("rayoptics.elements", (2 * len(system.components) + 1) * (1 + len(traces)))
    qp = api.QParameter(complex(*spec["q"]), spec["lam"])
    q_out = api.propagate_q(qp, m)
    geometry = api.geometry_from_q(q_out)
    return canonical, report, m, traces, q_out, geometry


def check_system(spec: dict, out) -> str | None:
    canonical, report, m, traces, q_out, (r_out, w_out) = out
    if canonical != spec["text"]:
        return "serialize_round_trip"
    if not report.ok:
        return "valid_system_rejected"
    for (y, theta), trace in zip(spec["rays"], traces):
        direct = core.mat2_apply(m, (y, theta))
        scale = max(abs(direct[0]), abs(direct[1]), 1.0)
        final = trace.final
        if not max(abs(final.y - direct[0]), abs(final.theta - direct[1])) <= 1e-12 * scale:
            return "trace_vs_matrix"
    q = complex(*spec["q"])
    law = (m.a11 * q + m.a12) / (m.a21 * q + m.a22)
    if not abs(q_out.q - law) <= 1e-12 * abs(law):
        return "q_law"
    lam, z, z_r = spec["lam"], q_out.q.real, q_out.q.imag
    geo = gaussian.beam_at(math.sqrt(lam * z_r / math.pi), lam, z)
    inv_r = 0.0 if math.isinf(r_out) else 1.0 / r_out
    inv_r_geo = 0.0 if math.isinf(geo.R) else 1.0 / geo.R
    if not (abs(geo.w - w_out) <= 1e-10 * w_out and abs(inv_r - inv_r_geo) <= 1e-10 * abs(1.0 / q_out.q)):
        return "q_vs_beam_at"
    return None


def op_resonator(api: Api, spec: dict):
    text = spec["text"]
    api.count("sysdesc.lines", text.count("\n"))
    res = api.document_to_resonator(api.parse(text))
    verdict = api.stability(res)
    oracle = api.ray_bound_oracle(res, rayoptics.RayState(*spec["source"]), spec["trips"])
    api.count("resonator.oracle_trips", spec["trips"])
    power = None
    if verdict.stable and abs(verdict.half_trace) <= 0.99:
        m = api.round_trip_matrix(res)
        power = (m, api.sylvester_power(m, spec["trips"]))
    return res, verdict, oracle, power


def check_resonator(spec: dict, out) -> str | None:
    res, verdict, oracle, power = out
    expected = spec["half_trace"]
    if not abs(verdict.half_trace - expected) <= 1e-9 * max(1.0, abs(expected)):
        return "half_trace_vs_closed_form"
    if verdict.marginal or verdict.stable != (abs(expected) < 1.0):
        return "verdict"
    m = power[0] if power else resonator.round_trip_matrix(res)
    y0, theta0 = spec["source"]
    limit = 1e9 * (max(abs(y0), abs(theta0)) + 1.0)
    if verdict.stable:
        # |M^n| <= (|M| + 1) / sin(theta) entrywise, by the Sylvester form
        bound = 2.0 * (max(map(abs, (m.a11, m.a12, m.a21, m.a22))) + 1.0) \
            / math.sqrt(1.0 - verdict.half_trace ** 2) * max(abs(y0), abs(theta0))
        if bound < limit and (oracle.diverged or oracle.max_y > 1.000001 * bound):
            return "oracle_vs_stable"
    elif spec["trips"] * math.acosh(abs(verdict.half_trace)) >= 40.0 and not oracle.diverged:
        return "oracle_vs_unstable"
    if power:
        brute = core.IDENTITY2
        for _ in range(spec["trips"]):
            brute = core.mat2_mul(m, brute)
        a, b = power[1], brute
        pairs = ((a.a11, b.a11), (a.a12, b.a12), (a.a21, b.a21), (a.a22, b.a22))
        scale = max(1.0, *(abs(x) for pair in pairs for x in pair))
        if not all(abs(x - y) <= 1e-9 * scale for x, y in pairs):
            return "sylvester_vs_repeated"
    return None


# ---- field layers -----------------------------------------------------------

def op_interface(api: Api, spec: dict):
    theta_i = math.radians(spec["theta_deg"])
    n1, n2 = spec["n1"], spec["n2"]
    fields = api.oblique_incidence_fields(theta_i, n1, n2, spec["a"], OMEGA, K0)
    residual = api.max_boundary_residual(fields, spec["samples"], spec["seed"])
    api.count("emoptics.samples", spec["samples"])
    return fields, residual, api.fresnel_standard("s", n1, n2, theta_i), api.fresnel_standard("p", n1, n2, theta_i)


def check_interface(spec: dict, out) -> str | None:
    fields, residual, (rs, ts), (rp, tp) = out
    waves = (fields.incident, fields.reflected, fields.transmitted)
    scale = max(max(w.E.max_abs(), w.H.max_abs()) for w in waves)
    if not residual <= 1e-12 * scale:
        return "boundary_residual"
    # s: t = 1 + r;  p: (n2/n1) t = 1 + r
    if not (abs(1.0 + rs - ts) <= 1e-12 * max(1.0, abs(ts))
            and abs(spec["n2"] / spec["n1"] * tp - (1.0 + rp)) <= 1e-12 * max(1.0, abs(1.0 + rp))):
        return "fresnel_identity"
    return None


def op_quantum(api: Api, spec: dict):
    dim = spec["dim"]
    mode = api.make_single_mode(spec["omega"], spec["hbar"], dim)
    ground = api.ground_energy(mode)
    comm = api.commutator(mode.q, mode.p)
    api.count("quantum.dense_bytes", 4 * 16 * dim * dim)
    api.count("quantum.matmul_flops", 4 * 8 * dim ** 3)
    return ground, comm


def check_quantum(spec: dict, out) -> str | None:
    ground, comm = out
    hbar, dim = spec["hbar"], spec["dim"]
    if not abs(ground - hbar * spec["omega"] / 2.0) <= 1e-10:
        return "ground_energy"
    lower = comm.matrix[: dim - 1, : dim - 1] - 1j * hbar * np.eye(dim - 1)
    if not float(np.max(np.abs(lower))) <= 1e-10:
        return "commutator_lower_block"
    return None


# ---- CLI --------------------------------------------------------------------

def op_cli(api: Api, spec: dict):
    return api.process(spec["argv"])


def _fmt(x: float) -> str:
    return format(0.0 if x == 0.0 else x, ".12g")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _load(spec: dict, name: str) -> sysdesc.Document:
    return sysdesc.parse(spec["files"][name])


def expected_stdout(spec: dict) -> list[str]:
    """What the CLI must print, recomputed in-process from the library."""
    argv = spec["argv"]
    cmd = argv[0]
    opts = dict(tok.partition("=")[::2] for tok in argv if tok.startswith("--"))
    if cmd in ("matrix", "trace", "beam"):
        system = sysdesc.document_to_system(_load(spec, "in.osys"))
        m = rayoptics.system_composition(system)
    if cmd == "matrix":
        return [f"{_fmt(m.a11)} {_fmt(m.a12)}", f"{_fmt(m.a21)} {_fmt(m.a22)}", f"det {_fmt(m.det())}"]
    if cmd == "trace":
        sep = "," if opts["--format"] == "csv" else " "
        states = rayoptics.trace_ray(system, rayoptics.RayState(float(opts["--y0"]), float(opts["--theta0"]))).states
        return [sep.join(("index", "y", "theta"))] + [
            sep.join((str(i), _fmt(s.y), _fmt(s.theta))) for i, s in enumerate(states)]
    if cmd == "beam":
        lam = float(opts["--lambda"])
        if "--q-re" in opts:
            qp = gaussian.QParameter(complex(float(opts["--q-re"]), float(opts["--q-im"])), lam)
        else:
            qp = gaussian.q_from_geometry(float(opts["--R"]), float(opts["--w"]), lam)
        out = gaussian.propagate_q(qp, m)
        r_out, w_out = gaussian.geometry_from_q(out)
        return [f"q_in {_fmt(qp.q.real)} {_fmt(qp.q.imag)}",
                f"M {_fmt(m.a11)} {_fmt(m.a12)} {_fmt(m.a21)} {_fmt(m.a22)}",
                f"q_out {_fmt(out.q.real)} {_fmt(out.q.imag)}",
                f"R {'inf' if math.isinf(r_out) else _fmt(r_out)}", f"w {_fmt(w_out)}"]
    if cmd == "stability":
        res = sysdesc.document_to_resonator(_load(spec, "in.res"))
        v = resonator.stability(res)
        lines = [f"det {_fmt(v.det)}", f"half_trace {_fmt(v.half_trace)}", f"verdict {v.verdict}"]
        o = resonator.ray_bound_oracle(res, rayoptics.RayState(float(opts["--y0"]), float(opts["--theta0"])), 1000)
        agreement = "n/a" if v.marginal else _bool(v.stable != o.diverged)
        return lines + [f"oracle_max_y {_fmt(o.max_y)}", f"oracle_max_theta {_fmt(o.max_theta)}",
                        f"oracle_diverged {_bool(o.diverged)}", f"agreement {agreement}"]
    if cmd == "interface":
        n1, n2, a = float(opts["--n1"]), float(opts["--n2"]), float(opts["--a"])
        theta_i = math.radians(float(opts["--theta-deg"]))
        r_amp, t_amp = emoptics.continuity_coefficients(n1, n2, theta_i, a)
        rs, ts = emoptics.fresnel_standard("s", n1, n2, theta_i)
        rp, tp = emoptics.fresnel_standard("p", n1, n2, theta_i)
        fields = emoptics.oblique_incidence_fields(theta_i, n1, n2, a, OMEGA, K0)
        residual = emoptics.max_boundary_residual(fields, 1000, int(opts["--seed"]))
        k_r = fields.reflected.k
        mirrored = emoptics.reflect_wavevector(fields.incident.k, fields.spec.normal)
        return [f"theta_t_deg {_fmt(math.degrees(emoptics.snell_angle(n1, n2, theta_i)))}",
                f"r_amp {_fmt(r_amp)}", f"t_amp {_fmt(t_amp)}",
                f"fresnel_s_r {_fmt(rs)}", f"fresnel_s_t {_fmt(ts)}",
                f"fresnel_p_r {_fmt(rp)}", f"fresnel_p_t {_fmt(tp)}",
                f"max_residual {_fmt(residual)}",
                f"plane_of_incidence {_bool(emoptics.check_plane_of_incidence(fields))}",
                f"reflection_law {_bool((mirrored - k_r).norm() <= 1e-12 * k_r.norm())}"]
    omega, hbar, dim = float(opts["--omega"]), float(opts["--hbar"]), 32
    mode = quantum.make_single_mode(omega, hbar, dim)
    evals = quantum.hermitian_eigenvalues(mode.H)[:8]
    comm = quantum.commutator(mode.q, mode.p).matrix[: dim - 1, : dim - 1]
    lines = [f"ground_energy {_fmt(quantum.ground_energy(mode))}",
             "eigenvalues " + " ".join(_fmt(float(v)) for v in evals),
             f"commutator_max_dev {_fmt(float(np.max(np.abs(comm - 1j * hbar * np.eye(dim - 1)))))}"]
    for label, op in (("q", mode.q), ("p", mode.p), ("H", mode.H)):
        lines.append(f"self_adjoint_{label} {_fmt(float(np.max(np.abs(op.matrix - op.matrix.conj().T))))}")
    return lines


def _error_line(stderr: str) -> bool:
    return any(line.startswith("error:") for line in stderr.splitlines())


def check_cli(spec: dict, proc: subprocess.CompletedProcess) -> str | None:
    if "Traceback" in proc.stderr:
        return "cli_traceback"
    if spec["reject"] is not None:
        if proc.returncode != REJECT_EXIT[spec["reject"]]:
            return "cli_exit_code"
        if proc.stdout or not _error_line(proc.stderr):
            return "cli_error_report"
        return None
    if proc.returncode != 0:
        return "cli_exit_code"
    if proc.stdout.splitlines() != expected_stdout(spec):
        return "cli_stdout"
    return None


def cli_main_in_process(spec: dict, workdir: str) -> int:
    """`optikit.cli.main(argv)` with stdout/stderr captured and files resolved in workdir."""
    argv = [os.path.join(workdir, a) if a in spec["files"] else a for a in spec["argv"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


OPS = {
    "system": (op_system, check_system),
    "resonator": (op_resonator, check_resonator),
    "interface": (op_interface, check_interface),
    "quantum": (op_quantum, check_quantum),
}


def run_op(api: Api, spec: dict):
    if "argv" in spec:
        return op_cli(api, spec)
    return OPS[spec["kind"]][0](api, spec)


def check_op(spec: dict, out, exc: BaseException | None) -> str | None:
    """None when the op's outcome is right, else a short failure class."""
    if "argv" in spec:
        return f"unexpected_{type(exc).__name__}" if exc is not None else check_cli(spec, out)
    if spec["reject"] is not None:
        if exc is None:
            return "not_rejected"
        return None if isinstance(exc, REJECTED) else f"unexpected_{type(exc).__name__}"
    if exc is not None:
        return f"unexpected_{type(exc).__name__}"
    return OPS[spec["kind"]][1](spec, out)


# ---- known non-finite defects ----------------------------------------------

def _system_text(n: str = "1.0", d: str = "0.1", radius: str | None = None) -> str:
    iface = "interface plane" if radius is None else f"interface spherical R={radius}"
    return f"[system]\nfreespace n={n} d={d}\n{iface}\nfreespace n=1.5 d=0.1\n"


def _compose_text(text: str):
    return rayoptics.system_composition(sysdesc.document_to_system(sysdesc.parse(text)))


_LIBRARY_PROBES = {
    "nonfinite_n": lambda: _compose_text(_system_text(n="1e999")),
    "nonfinite_d": lambda: _compose_text(_system_text(d="1e999")),
    "subnormal_R": lambda: _compose_text(_system_text(radius="1e-320")),
    "nan_determinant": lambda: resonator.stability_from_matrix(core.Mat2(math.nan, 0.0, 0.0, 1.0)),
    "inf_wavelength": lambda: gaussian.QParameter(1j, math.inf),
    "nonfinite_n2": lambda: emoptics.max_boundary_residual(
        emoptics.oblique_incidence_fields(0.3, 1.0, math.inf, 1.0, OMEGA, K0), 100, 0),
    "nonfinite_omega": lambda: quantum.ground_energy(quantum.make_single_mode(math.inf, 1.0, 64)),
}

_CLI_PROBES = {
    "cli_nonfinite_n": ({"in.osys": _system_text(n="1e999")}, ["matrix", "in.osys"]),
    "cli_nan_y0": ({"in.res": "[resonator]\ninterface spherical R=1.0\nfreespace n=1.0 d=0.5\n"
                              "interface spherical R=1.0\n"},
                   ["stability", "in.res", "--oracle", "--y0", "nan"]),
    "cli_inf_omega": ({}, ["quantum", "--omega", "inf"]),
}


def probe(name: str, api: Api) -> str | None:
    """Run one known-defect input; None when it is rejected as it should be."""
    if name in _CLI_PROBES:
        files, argv = _CLI_PROBES[name]
        for fname, text in files.items():
            with open(os.path.join(api.workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        proc = run_cli(argv, api.workdir, api.env, [sys.executable, "-m", "optikit.cli"])
        if "Traceback" in proc.stderr:
            return "traceback"
        if proc.returncode not in (1, 2) or not _error_line(proc.stderr):
            return f"exit {proc.returncode}: {(proc.stdout.splitlines() or [''])[-1]}"
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = _LIBRARY_PROBES[name]()
    except REJECTED:
        return None
    except Exception as exc:  # a foreign exception is the defect being reported
        return f"foreign {type(exc).__name__}"
    return f"accepted: {result!r}"[:120]
