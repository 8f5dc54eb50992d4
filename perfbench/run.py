"""The optikit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ray_design --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test     # checker self-test + BENCHMARK.json check
    python3 perfbench/run.py --spec          # print the BENCHMARK.json this harness defines

Run from the root of a checkout; optikit is used from its src/ directory,
nothing needs installing.  Each run starts fresh worker processes in turn,
never concurrently: several set-up-only workers, whose median set-up time is
`setup_s`, then one worker that runs the workload as a closed loop with one
client for at least --seconds and at least 100 ops (20 when traced).
Timings are calibrated against a fixed reference timed next to every op
and every set-up, which cancels the host's speed drift (see worker.py and
README.md).

With --trace 0 the last stdout line carries the end-to-end metrics of an
untraced run.  With --trace 1 it carries the per-layer metrics of a traced
run, in which every op runs twice, untraced and traced, so the tracing
overhead is measured on identical work.  The lines before it are a readable
report: the environment, op counts, failures by class and the known-defect
probes.  A full record of each run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import gen
import tracing
from worker import PROCESS_REFERENCE_S, time_process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_WORKERS = 7
MIN_OPS = 100      # so that at least ten samples lie beyond the 90th percentile
MIN_TRACED_OPS = 20  # a traced run reports no percentiles and runs each op twice
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--src", SRC, *extra]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "optikit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "loadavg_start": os.getloadavg()[0]}


def end_to_end(main: dict, lat: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "pass_ratio": (main["attempted"] - main["failed"]) / main["attempted"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh workers, each between two `python -c pass` references."""
    env = worker_env()
    python_pass = [sys.executable, "-c", "pass"]
    setups, refs = [], [time_process(python_pass, env, ROOT)]
    for _ in range(SETUP_WORKERS):
        setups.append(run_worker(workload, seed, "--setup-only")["setup_s"])
        refs.append(time_process(python_pass, env, ROOT))
    return setups, refs


def benchmark(workload: str, seed: int, seconds: int, trace: int) -> int:
    if not os.path.isfile(os.path.join(SRC, "optikit", "__init__.py")):
        print(f"error: no optikit sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    setups, refs = setup_samples(workload, seed)
    main = run_worker(workload, seed, "--seconds", str(seconds), "--trace", str(trace),
                      "--min-ops", str(MIN_TRACED_OPS if trace else MIN_OPS))
    env["numpy"] = main["numpy"]
    e2e = end_to_end(main, main["calibrated"], [s * 2.0 * PROCESS_REFERENCE_S / (refs[i] + refs[i + 1])
                                                for i, s in enumerate(setups)])
    wall = end_to_end(main, main["latencies"], setups)
    if trace:
        units, values = {name: unit for name, unit, _ in tracing.per_layer_metrics()}, main["layers"]
    else:
        units, values = {name: unit for name, unit, _, _ in tracing.END_TO_END}, e2e
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"optikit benchmark  workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"why: {gen.WORKLOADS[workload]}")
    print("ops " + " ".join(f"{k}={v}" for k, v in sorted(main["kinds"].items())))
    if main["sizes"]:
        print("sizes " + " ".join(f"{k}={lo}..{hi} (mean {mean:.1f})" for k, (lo, mean, hi) in main["sizes"].items()))
    print(f"{'metric':<34} {'calibrated':>14} {'wall clock':>14}  unit")
    for name, unit, _, _ in tracing.END_TO_END:
        print(f"{name:<34} {e2e[name]:>14.6g} {wall[name]:>14.6g}  {unit}  ({len(main['latencies'])} ops)")
    print(f"{'fail_ratio':<34} {1.0 - e2e['pass_ratio']:>14.6g}  ratio  "
          f"({main['failed']} of {main['attempted']} ops)")
    for cls, n in sorted(main["failures"].items()):
        print(f"failed {cls}: {n}")
    for name, detail in main["probes"].items():
        print(f"known defect {name}: {'FAILS (' + detail + ')' if detail else 'rejected as required'}")
    if trace:
        op_ms = values["op.busy_ms"] or 1.0
        for name, unit, _ in tracing.per_layer_metrics():
            share = f"  ({100 * values[name] / op_ms:.1f}% of op time)" if name in {
                f"{m}.busy_ms" for m in tracing.MODULES} else ""
            print(f"{name:<34} {values[name]:>14.6g}  {unit}{share}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "metrics": metrics, "end_to_end": e2e, "wall_clock": wall,
              "ops": main["kinds"], "failures": main["failures"], "known_defects": main["probes"],
              "setup_samples_s": setups, "sizes_min_mean_max": main["sizes"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": main["failed"] == 0, "attempted": main["attempted"],
                      "failed": main["failed"], "metrics": metrics}))
    return 0


def spec() -> dict:
    """The BENCHMARK.json this harness implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": name, "why": why} for name, why in gen.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in tracing.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in tracing.per_layer_metrics()],
    }


def self_test() -> int:
    """The checker must fail injected faults and pass the unmodified library."""
    results = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        results.append(("BENCHMARK.json matches the harness", json.load(fh) == spec()))
    cases = [("clean ray_design run passes", "ray_design", None, lambda f: not f),
             ("clean cli_cold run passes", "cli_cold", None, lambda f: not f),
             ("injected wrong answer fails", "ray_design", "wrong",
              lambda f: any("trace_vs_matrix" in k for k in f)),
             ("injected exception fails", "ray_design", "raise",
              lambda f: any("unexpected_RuntimeError" in k for k in f)),
             ("injected CLI traceback fails", "cli_cold", "traceback",
              lambda f: any("cli_traceback" in k for k in f))]
    for label, workload, inject, ok in cases:
        extra = ["--seconds", "0.5", "--min-ops", "12"] + (["--inject", inject] if inject else [])
        failures = run_worker(workload, 7, *extra)["failures"]
        results.append((f"{label} {failures}", ok(failures)))
    for label, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _, passed in results) else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--spec", action="store_true")
    args = p.parse_args()
    if args.spec:
        print(json.dumps(spec(), indent=2))
        return 0
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        return benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
