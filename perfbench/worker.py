"""One benchmark worker: set-up, a closed loop of timed ops, checks, probes.

Runs in a fresh process started by run.py, with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread count fixed in its environment.  One
client sends the next op only after the previous one completed.  Each op is
timed around its calls into optikit; its check runs after the clock stops.

Set-up time is the `import optikit` plus one untimed warm-up op of each kind
(for cli_cold, each subcommand run in-process through `optikit.cli.main`).
Input generation happens before the set-up clock starts.

Prints one JSON object on its last stdout line; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_SAMPLES = 5

# Calibration.  On a shared host the interpreter's speed drifts by up to 2x
# within minutes, and a plain arithmetic loop does not track it.  This fixed
# piece of work has the library's instruction mix (regex tokenising, float
# parsing, small frozen dataclasses) and does track it.  It is timed before
# and after every op, and each op's time is also reported scaled to the speed
# at which the reference takes REFERENCE_S.  A cli_cold op runs in a child
# process, and set-up is mostly importing, so their reference is a child
# `python -c pass` (the interpreter-start floor), scaled to PROCESS_REFERENCE_S.
REFERENCE_S = 15e-6
PROCESS_REFERENCE_S = 50e-3
_REF_TEXT = "freespace n=1.25 d=0.5  # comment\ninterface spherical R=-2.5 kind=transmitted\n" * 2
_REF_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class _RefPair:
    a: float
    b: float


def reference_s() -> float:
    """Shortest of three timings of the reference work."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = _RefPair(1.0, 0.0)
        for line in _REF_TEXT.split("\n"):
            for token in _REF_TOKEN.finditer(line.split("#", 1)[0]):
                value = token.group(0).partition("=")[2]
                if value and value[0] in "-.0123456789":
                    x = float(value)
                    acc = _RefPair(0.5 * acc.a + x, acc.b + x * acc.a)
        best = min(best, time.perf_counter() - t0)
    return best


def _write_files(spec: dict, workdir: str) -> None:
    for name, text in spec.get("files", {}).items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_loop(ops, apis, stream, stop, workdir: str, reference, nominal_s: float, tracer=None) -> list[dict]:
    """Closed loop, one client: op, then its check, then the next op.

    In a traced run each op runs once untraced and once traced, in alternating
    order, so both passes see identical inputs in the same conditions.
    """
    clock = time.perf_counter
    runs = [{"latencies": [], "kinds": Counter(), "failures": Counter()} for _ in apis]
    sizes: dict[str, list[int]] = {}
    refs: list[float] = []
    start = clock()
    for i, spec in enumerate(stream):
        if stop(i, clock() - start):
            break
        _write_files(spec, workdir)
        refs.append(reference())
        if "size" in spec and spec["reject"] is None:
            sizes.setdefault(spec["kind"], []).append(spec["size"])
        if tracer:
            tracer.op_id = i
        passes = list(zip(apis, runs))
        for api, run in passes[::-1] if i % 2 else passes:
            t0 = clock()
            try:
                out, exc = ops.run_op(api, spec), None
            except Exception as err:  # an unexpected exception is a failed op, not a crash
                out, exc = None, err
            t1 = clock()
            if tracer and api is apis[-1]:
                tracer.op_span(i, t0, t1)
            try:
                failure = ops.check_op(spec, out, exc)
            except Exception as err:  # the recomputation itself failed
                failure = f"check_raised_{type(err).__name__}"
            run["latencies"].append(t1 - t0)
            run["kinds"][spec["kind"] if spec["reject"] is None else f"{spec['kind']}:{spec['reject']}"] += 1
            if failure:
                run["failures"][f"{spec['kind']}:{failure}"] += 1
    refs.append(reference())
    for run in runs:
        run["calibrated"] = [t * 2.0 * nominal_s / (refs[i] + refs[i + 1])
                             for i, t in enumerate(run["latencies"])]
    runs[0]["sizes"] = {kind: [min(s), sum(s) / len(s), max(s)] for kind, s in sizes.items()}
    return runs


def _median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds)


def time_process(cmd: list[str], env: dict, cwd: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def cli_layer(ops, seed: int, workdir: str, env: dict) -> dict[str, float]:
    """Interpreter floor, import, in-process main and whole-process times."""
    specs = gen.Generator("cli_cold", seed).warmups()
    interp = [time_process([sys.executable, "-c", "pass"], env, workdir) for _ in range(CLI_SAMPLES)]
    imports = [time_process([sys.executable, "-c", "import optikit.cli"], env, workdir)
               for _ in range(CLI_SAMPLES)]
    mains, processes = [], []
    for spec in specs:
        _write_files(spec, workdir)
        for _ in range(3):
            t0 = time.perf_counter()
            ops.cli_main_in_process(spec, workdir)
            mains.append(time.perf_counter() - t0)
        processes.append(time_process([sys.executable, "-m", "optikit.cli"] + spec["argv"], env, workdir))
    return {"cli.interp_ms": _median_ms(interp), "cli.import_ms": _median_ms(imports),
            "cli.main_ms": _median_ms(mains), "cli.process_ms": _median_ms(processes)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-ops", type=int, default=100)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--inject", choices=("wrong", "raise", "traceback"))
    p.add_argument("--src", required=True, help="directory that must provide optikit")
    args = p.parse_args()

    warmups = gen.Generator(args.workload, args.seed).warmups()
    t0 = time.perf_counter()
    import optikit
    import_s = time.perf_counter() - t0
    expected = os.path.join(os.path.realpath(args.src), "optikit", "__init__.py")
    if os.path.realpath(optikit.__file__) != expected:
        print(f"error: optikit imported from {optikit.__file__}, expected {expected}", file=sys.stderr)
        return 2
    import numpy
    import ops

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    try:
        env = dict(os.environ)
        api = ops.Api(workdir=workdir, env=env)
        t1 = time.perf_counter()
        for spec in warmups:
            _write_files(spec, workdir)
            if args.workload == "cli_cold":
                ops.cli_main_in_process(spec, workdir)
            else:
                ops.run_op(api, spec)
        result = {"setup_s": import_s + time.perf_counter() - t1}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        stream = gen.Generator(args.workload, args.seed)
        apis = [ops.Api(inject=args.inject, workdir=workdir, env=env) if args.inject else api]
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            apis.append(ops.Api(tracer=tracer, inject=args.inject, workdir=workdir, env=env))
        if args.workload == "cli_cold":
            reference = lambda: time_process([sys.executable, "-c", "pass"], env, workdir)
            nominal_s = PROCESS_REFERENCE_S
        else:
            reference, nominal_s = reference_s, REFERENCE_S
        runs = run_loop(ops, apis, stream, lambda i, t: t >= args.seconds and i >= args.min_ops,
                        workdir, reference, nominal_s, tracer)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_cold"
                                   else resource.RUSAGE_SELF)
        probes = {name: ops.probe(name, api) for name in gen.defect_probes(args.workload)}

        result.update({
            "latencies": runs[0]["latencies"],
            "calibrated": runs[0]["calibrated"],
            "attempted": sum(len(r["latencies"]) for r in runs),
            "failures": dict(sum((r["failures"] for r in runs), Counter())),
            "kinds": dict(runs[0]["kinds"]),
            "sizes": runs[0]["sizes"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "probes": probes,
        })
        result["failed"] = sum(result["failures"].values())
        if args.trace:
            layers = tracer.summary()
            layers.update(cli_layer(ops, args.seed, workdir, env))
            count = len(runs[0]["latencies"])
            untraced = count / sum(runs[0]["calibrated"])
            traced = count / sum(runs[1]["calibrated"])
            layers.update({"trace.untraced_ops_per_s": untraced, "trace.traced_ops_per_s": traced,
                           "trace.overhead_ops_per_s": untraced - traced,
                           "defects.probed": len(probes),
                           "defects.failed": sum(v is not None for v in probes.values())})
            result["layers"] = layers
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-s{args.seed}.json")
            with open(spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
