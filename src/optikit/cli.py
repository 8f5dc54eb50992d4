"""Command-line front end.

Six subcommands over the library: `matrix`, `trace`, `stability`, `beam`,
`interface`, and `quantum`.  Machine-readable results go to stdout at 12
significant digits in a fixed column order; diagnostics go to stderr.  Exit
codes: 0 computation done (verdicts such as "unstable" are data, not
errors), 1 domain or validation failure, 2 usage or file-parse error.

Only `interface` and `quantum` need numpy; they import it, and their numpy
modules, after their argument checks, so the four ray-level commands and
every usage error start without it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import gaussian, rayoptics, sysdesc
from .core import mat2_apply
from .errors import OptikitError
from .rayoptics import RayState
from .resonator import ray_bound_oracle, stability as resonator_stability, validate_resonator
from .sysdesc import ParseError

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# wave scale used by the interface command; residual verdicts are
# independent of the physical units chosen here
_INTERFACE_K0 = 2.0 * math.pi
_INTERFACE_OMEGA = 2.0 * math.pi

# caps on the size flags, so validated input bounds time and memory; --dim
# allocates dense D x D complex matrices of 16 D**2 bytes each
MAX_SAMPLES = 1_000_000
MAX_DIM = 2048
MAX_ROUND_TRIPS = 1_000_000


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # never print -0
    return format(x, ".12g")


def _require_at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise _UsageError(f"{flag} must be <= {cap}, got {value}")


def _require_finite_source(args: argparse.Namespace) -> None:
    if not (math.isfinite(args.y0) and math.isfinite(args.theta0)):
        raise _UsageError("source ray must be finite")


def _load_document(path: str, want_kind: str) -> sysdesc.Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        doc = sysdesc.parse(source)
    except ParseError as exc:
        raise _UsageError(f"{path}:{exc}") from exc
    if doc.kind != want_kind:
        raise _UsageError(f"{path}: expected a [{want_kind}] document, got [{doc.kind}]")
    return doc


def _load_system(path: str) -> rayoptics.OpticalSystem:
    system = sysdesc.document_to_system(_load_document(path, "system"))
    report = rayoptics.validate_system(system)
    if not report.ok:
        raise OptikitError(f"{path}: invalid system: {report}")
    return system


def _cmd_matrix(args: argparse.Namespace) -> int:
    system = _load_system(args.file)
    m = rayoptics.system_composition(system)
    print(f"{_fmt(m.a11)} {_fmt(m.a12)}")
    print(f"{_fmt(m.a21)} {_fmt(m.a22)}")
    print(f"det {_fmt(m.det())}")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    _require_finite_source(args)
    system = _load_system(args.file)
    source = RayState(args.y0, args.theta0)
    trace = rayoptics.trace_ray(system, source)
    composed = mat2_apply(rayoptics.system_composition(system), source.as_pair())
    final = trace.final
    scale = max(abs(composed[0]), abs(composed[1]), 1.0)
    if max(abs(final.y - composed[0]), abs(final.theta - composed[1])) > 1e-12 * scale:
        # tripwire: the stepper and the composed matrix are independent paths
        print("internal error: trace disagrees with composed matrix", file=sys.stderr)
        return EXIT_FAILURE
    sep = "," if args.format == "csv" else " "
    print(sep.join(("index", "y", "theta")))
    for i, state in enumerate(trace.states):
        print(sep.join((str(i), _fmt(state.y), _fmt(state.theta))))
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    _require_at_most("--round-trips", args.round_trips, MAX_ROUND_TRIPS)
    _require_finite_source(args)
    doc = _load_document(args.file, "resonator")
    res = sysdesc.document_to_resonator(doc)
    report = validate_resonator(res)
    if not report.ok:
        raise OptikitError(f"{args.file}: invalid resonator: {report}")
    verdict = resonator_stability(res)
    print(f"det {_fmt(verdict.det)}")
    print(f"half_trace {_fmt(verdict.half_trace)}")
    print(f"verdict {verdict.verdict}")
    if args.oracle:
        result = ray_bound_oracle(res, RayState(args.y0, args.theta0), args.round_trips)
        print(f"oracle_max_y {_fmt(result.max_y)}")
        print(f"oracle_max_theta {_fmt(result.max_theta)}")
        print(f"oracle_diverged {'true' if result.diverged else 'false'}")
        if verdict.marginal:
            agreement = "n/a"
        elif verdict.stable:
            agreement = "true" if not result.diverged else "false"
        else:
            agreement = "true" if result.diverged else "false"
        print(f"agreement {agreement}")
    return EXIT_OK


def _cmd_beam(args: argparse.Namespace) -> int:
    q_given = args.q_re is not None or args.q_im is not None
    rw_given = args.R is not None or args.w is not None
    if q_given == rw_given:
        raise _UsageError("give exactly one of --q-re/--q-im or --R/--w")
    if q_given and (args.q_re is None or args.q_im is None):
        raise _UsageError("--q-re and --q-im must be given together")
    if rw_given and (args.R is None or args.w is None):
        raise _UsageError("--R and --w must be given together")
    system = _load_system(args.file)
    if q_given:
        qp = gaussian.QParameter(complex(args.q_re, args.q_im), args.lam)
    else:
        qp = gaussian.q_from_geometry(args.R, args.w, args.lam)
    m = rayoptics.system_composition(system)
    out = gaussian.propagate_q(qp, m)
    r_out, w_out = gaussian.geometry_from_q(out)
    print(f"q_in {_fmt(qp.q.real)} {_fmt(qp.q.imag)}")
    print(f"M {_fmt(m.a11)} {_fmt(m.a12)} {_fmt(m.a21)} {_fmt(m.a22)}")
    print(f"q_out {_fmt(out.q.real)} {_fmt(out.q.imag)}")
    print(f"R {_fmt(r_out)}")
    print(f"w {_fmt(w_out)}")
    return EXIT_OK


def _cmd_interface(args: argparse.Namespace) -> int:
    if not 0 <= args.theta_deg < 90:
        raise _UsageError(f"theta-deg must be in [0, 90), got {args.theta_deg}")
    _require_at_most("--samples", args.samples, MAX_SAMPLES)
    from . import emoptics

    theta_i = math.radians(args.theta_deg)
    theta_t = emoptics.snell_angle(args.n1, args.n2, theta_i)
    r_amp, t_amp = emoptics.continuity_coefficients(args.n1, args.n2, theta_i, args.a)
    rs, ts = emoptics.fresnel_standard("s", args.n1, args.n2, theta_i)
    rp, tp = emoptics.fresnel_standard("p", args.n1, args.n2, theta_i)
    system = emoptics.oblique_incidence_fields(
        theta_i, args.n1, args.n2, args.a, _INTERFACE_OMEGA, _INTERFACE_K0
    )
    residual = emoptics.max_boundary_residual(system, args.samples, args.seed)
    in_plane = emoptics.check_plane_of_incidence(system)
    mirrored = emoptics.reflect_wavevector(system.incident.k, system.spec.normal)
    k_r = system.reflected.k
    reflection_ok = (mirrored - k_r).norm() <= 1e-12 * k_r.norm()
    print(f"theta_t_deg {_fmt(math.degrees(theta_t))}")
    print(f"r_amp {_fmt(r_amp)}")
    print(f"t_amp {_fmt(t_amp)}")
    print(f"fresnel_s_r {_fmt(rs)}")
    print(f"fresnel_s_t {_fmt(ts)}")
    print(f"fresnel_p_r {_fmt(rp)}")
    print(f"fresnel_p_t {_fmt(tp)}")
    print(f"max_residual {_fmt(residual)}")
    print(f"plane_of_incidence {'true' if in_plane else 'false'}")
    print(f"reflection_law {'true' if reflection_ok else 'false'}")
    return EXIT_OK if residual < 1e-9 else EXIT_FAILURE


def _cmd_quantum(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise _UsageError(f"dim must be >= 2, got {args.dim}")
    _require_at_most("--dim", args.dim, MAX_DIM)
    if not args.omega > 0:
        raise _UsageError(f"omega must be positive, got {args.omega}")
    if not args.hbar > 0:
        raise _UsageError(f"hbar must be positive, got {args.hbar}")
    import numpy as np

    from . import quantum

    sm = quantum.make_single_mode(args.omega, args.hbar, args.dim)
    ground = quantum.ground_energy(sm)
    evals = quantum.hermitian_eigenvalues(sm.H)[: min(8, args.dim)]
    comm = quantum.commutator(sm.q, sm.p).matrix
    lower = args.dim - 1
    defect = comm[:lower, :lower] - 1j * args.hbar * np.eye(lower)
    comm_dev = float(np.max(np.abs(defect)))
    print(f"ground_energy {_fmt(ground)}")
    print("eigenvalues " + " ".join(_fmt(float(v)) for v in evals))
    print(f"commutator_max_dev {_fmt(comm_dev)}")
    for label, op in (("q", sm.q), ("p", sm.p), ("H", sm.H)):
        residual = float(np.max(np.abs(op.matrix - op.matrix.conj().T)))
        print(f"self_adjoint_{label} {_fmt(residual)}")
    expected = args.hbar * args.omega / 2.0
    return EXIT_OK if abs(ground - expected) <= 1e-10 else EXIT_FAILURE


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
