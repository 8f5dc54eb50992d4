"""Command-line front end.

Six subcommands over the library: `matrix`, `trace`, `stability`, `beam`,
`interface`, and `quantum`.  Each command yields records, tuples of fields in
a fixed column order; `main` is the one emitter, printing each record as a
stdout line (floats at 12 significant digits) and each failure as one
`error:` line on stderr.  Exit codes: 0 computation done (verdicts such as
"unstable" are data, not errors), 1 domain, validation or self-check
failure, or stdout that fails, 2 usage or file-parse error.

Each command loads only the modules it uses; only `quantum` past `quantum.LIST_DIM`
levels and `interface` past `SCALAR_SAMPLES` samples load numpy, and no usage error
does.  `run`, the process entry, runs the `atexit` handlers and flushes stdout and
stderr after `main`, then ends by `os._exit`, skipping the interpreter's teardown,
or by `sys.exit` under a tracer or profiler (coverage, cProfile) or where stdout fails.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys
from typing import Iterator, Sequence

import optikit
from .errors import OptikitError

__all__ = ["main", "run"]

# wave scale used by the interface command; residual verdicts are
# independent of the physical units chosen here
_INTERFACE_K0 = _INTERFACE_OMEGA = 2.0 * math.pi

# caps on the size flags and the input file, so validated input bounds time and memory
MAX_SAMPLES = 1_000_000
MAX_DIM = 2048
MAX_ROUND_TRIPS = 1_000_000
MAX_FILE_CHARS = 16 * 2**20
# `interface` takes the scalar residual route up to one kernel block of samples: at about 6 us a
# sample it costs less than numpy's import and the kernel, some 80 ms together, to about 16,000
SCALAR_SAMPLES = 4096


class _UsageError(Exception):
    pass


def _fmt(x: object) -> str:
    """A record field: a bool as true/false, text and ints as they are, else a .12g float, never -0."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (str, int)):
        return str(x)
    x = float(x)
    return format(0.0 if x == 0.0 else x, ".12g")


def _require_at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise _UsageError(f"{flag} must be <= {cap}, got {value}")


def _require_finite_source(args: argparse.Namespace) -> None:
    if not (math.isfinite(args.y0) and math.isfinite(args.theta0)):
        raise _UsageError("source ray must be finite")


def _load(path: str, want_kind: str) -> optikit.rayoptics.OpticalSystem | optikit.resonator.Resonator:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read(MAX_FILE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    if len(source) > MAX_FILE_CHARS:
        raise _UsageError(f"{path}: larger than {MAX_FILE_CHARS} characters")
    try:
        doc = optikit.sysdesc.parse(source)
    except optikit.sysdesc.ParseError as exc:
        raise _UsageError(f"{path}:{exc}") from exc
    if doc.kind != want_kind:
        raise _UsageError(f"{path}: expected a [{want_kind}] document, got [{doc.kind}]")
    return doc.body


def _cmd_matrix(args: argparse.Namespace) -> Iterator[tuple]:
    m = optikit.rayoptics.system_composition(_load(args.file, "system"))
    yield m.a11, m.a12
    yield m.a21, m.a22
    yield "det", m.det()


def _cmd_trace(args: argparse.Namespace) -> Iterator[tuple]:
    _require_finite_source(args)
    system = _load(args.file, "system")
    source = optikit.rayoptics.RayState(args.y0, args.theta0)
    trace = optikit.rayoptics.trace_ray(system, source)
    composed = optikit.core.mat2_apply(optikit.rayoptics.system_composition(system), source.as_pair())
    final = trace.final
    scale = max(abs(composed[0]), abs(composed[1]), 1.0)
    if max(abs(final.y - composed[0]), abs(final.theta - composed[1])) > 1e-12 * scale:
        # tripwire: the stepper and the composed matrix are independent paths
        raise OptikitError("internal error: trace disagrees with composed matrix")
    yield "index", "y", "theta"
    for i, state in enumerate(trace.states):
        yield i, state.y, state.theta


def _cmd_stability(args: argparse.Namespace) -> Iterator[tuple]:
    _require_at_most("--round-trips", args.round_trips, MAX_ROUND_TRIPS)
    _require_finite_source(args)
    res = _load(args.file, "resonator")
    verdict = optikit.resonator.stability(res)
    yield "det", verdict.det
    yield "half_trace", verdict.half_trace
    yield "verdict", verdict.verdict
    if args.oracle:
        source = optikit.rayoptics.RayState(args.y0, args.theta0)
        result = optikit.resonator.ray_bound_oracle(res, source, args.round_trips)
        yield "oracle_max_y", result.max_y
        yield "oracle_max_theta", result.max_theta
        yield "oracle_diverged", result.diverged
        yield "agreement", "n/a" if verdict.marginal else verdict.stable != result.diverged


def _cmd_beam(args: argparse.Namespace) -> Iterator[tuple]:
    q_given = args.q_re is not None or args.q_im is not None
    rw_given = args.R is not None or args.w is not None
    if q_given == rw_given:
        raise _UsageError("give exactly one of --q-re/--q-im or --R/--w")
    if q_given and (args.q_re is None or args.q_im is None):
        raise _UsageError("--q-re and --q-im must be given together")
    if rw_given and (args.R is None or args.w is None):
        raise _UsageError("--R and --w must be given together")
    m = optikit.rayoptics.system_composition(_load(args.file, "system"))
    gaussian = optikit.gaussian
    if q_given:
        qp = gaussian.QParameter(complex(args.q_re, args.q_im), args.lam)
    else:
        qp = gaussian.q_from_geometry(args.R, args.w, args.lam)
    out = gaussian.propagate_q(qp, m)
    r_out, w_out = gaussian.geometry_from_q(out)
    yield "q_in", qp.q.real, qp.q.imag
    yield "M", m.a11, m.a12, m.a21, m.a22
    yield "q_out", out.q.real, out.q.imag
    yield "R", r_out
    yield "w", w_out


def _cmd_interface(args: argparse.Namespace) -> Iterator[tuple]:
    if not 0 <= args.theta_deg < 90:
        raise _UsageError(f"theta-deg must be in [0, 90), got {args.theta_deg}")
    _require_at_most("--samples", args.samples, MAX_SAMPLES)
    emoptics = optikit.emoptics
    theta_i = math.radians(args.theta_deg)
    theta_t = emoptics.snell_angle(args.n1, args.n2, theta_i)
    rs, ts = emoptics.fresnel_standard("s", args.n1, args.n2, theta_i)
    rp, tp = emoptics.fresnel_standard("p", args.n1, args.n2, theta_i)
    system = emoptics.oblique_incidence_fields(
        theta_i, args.n1, args.n2, args.a, _INTERFACE_OMEGA, _INTERFACE_K0
    )
    route = emoptics.reference_max_residual if args.samples <= SCALAR_SAMPLES else emoptics.max_boundary_residual
    residual = route(system, args.samples, args.seed)
    in_plane = emoptics.check_plane_of_incidence(system)
    mirrored = emoptics.reflect_wavevector(system.incident.k, system.spec.normal)
    k_r = system.reflected.k
    reflection_ok = (mirrored - k_r).norm() <= 1e-12 * k_r.norm()
    yield "theta_t_deg", math.degrees(theta_t)
    yield "r_amp", system.reflected.E.y.real
    yield "t_amp", system.transmitted.E.y.real
    yield "fresnel_s_r", rs
    yield "fresnel_s_t", ts
    yield "fresnel_p_r", rp
    yield "fresnel_p_t", tp
    yield "max_residual", residual
    yield "plane_of_incidence", in_plane
    yield "reflection_law", reflection_ok
    if not residual < 1e-9:
        raise OptikitError(f"max_residual {_fmt(residual)} is not below 1e-09")


def _cmd_quantum(args: argparse.Namespace) -> Iterator[tuple]:
    if args.dim < 2:
        raise _UsageError(f"dim must be >= 2, got {args.dim}")
    _require_at_most("--dim", args.dim, MAX_DIM)
    if not args.omega > 0:
        raise _UsageError(f"omega must be positive, got {args.omega}")
    if not args.hbar > 0:
        raise _UsageError(f"hbar must be positive, got {args.hbar}")
    quantum = optikit.quantum

    def peak(bands) -> float:  # largest |entry| of the stored bands; the others are 0
        return max((abs(z) for band in bands for z in band), default=0.0)

    sm = quantum.make_single_mode(args.omega, args.hbar, args.dim)
    evals = quantum.hermitian_eigenvalues(sm.H)
    ground = float(evals[0])  # quantum.ground_energy, without a second eigen pass
    # [q, p] - j hbar I on the leading (D-1) x (D-1) block: each band but its last entry, on level D-1
    block = {k: band[:-1] for k, band in quantum.commutator(sm.q, sm.p).bands.items()}
    block[0] = [z - 1j * args.hbar for z in block[0]]
    yield "ground_energy", ground
    yield "eigenvalues", *evals[:8]
    yield "commutator_max_dev", peak(block.values())
    for label, op in (("q", sm.q), ("p", sm.p), ("H", sm.H)):
        yield f"self_adjoint_{label}", peak((op - op.adjoint()).bands.values())  # band k - conj(band -k)
    deviation = abs(ground - args.hbar * args.omega / 2.0)
    if not deviation <= 1e-10:
        raise OptikitError(f"ground_energy deviates from hbar*omega/2 by {_fmt(deviation)}, above 1e-10")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optikit",
        description="Ray/beam/resonator/interface/quantum optics numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="composed ray-transfer matrix of a [system] file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("trace", help="step a ray through a [system] file")
    p.add_argument("file")
    p.add_argument("--y0", type=float, required=True, help="source distance from axis (m)")
    p.add_argument("--theta0", type=float, required=True, help="source inclination (rad)")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("stability", help="half-trace stability verdict of a [resonator] file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="also iterate the round-trip matrix")
    p.add_argument("--round-trips", type=int, default=1000)
    p.add_argument("--y0", type=float, default=1e-3)
    p.add_argument("--theta0", type=float, default=0.0)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("beam", help="propagate a Gaussian beam q through a [system] file")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="in-medium wavelength (lambda_vacuum / n), meters")
    p.add_argument("--q-re", type=float, default=None)
    p.add_argument("--q-im", type=float, default=None)
    p.add_argument("--R", type=float, default=None, help="wavefront radius (inf for flat)")
    p.add_argument("--w", type=float, default=None, help="spot radius (m)")
    p.set_defaults(func=_cmd_beam)

    p = sub.add_parser("interface", help="plane-wave interface coefficients and residual check")
    p.add_argument("--n1", type=float, required=True)
    p.add_argument("--n2", type=float, required=True)
    p.add_argument("--theta-deg", type=float, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_interface)

    p = sub.add_parser("quantum", help="truncated single-mode field diagnostics")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(func=_cmd_quantum)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    sep = "," if getattr(args, "format", None) == "csv" else " "
    try:
        for record in args.func(args):
            print(sep.join(map(_fmt, record)))
    except (_UsageError, OptikitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


def run() -> None:
    try:
        if sys.stdout is None:  # fd 1 closed
            raise OSError("stdout is closed")
        code = main()
        tools = getattr(sys, "monitoring", None)  # tools 0-5: cProfile and coverage hook in here from Python 3.12
        if not (sys.gettrace() or sys.getprofile() or tools and any(map(tools.get_tool, range(6)))):
            atexit._run_exitfuncs()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
        sys.stdout.flush()
    except OSError as exc:  # stdout cannot take the output: None, so that `sys.exit` does not flush it again
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        sys.stdout, code = None, 1
    sys.exit(code)


if __name__ == "__main__":
    run()
