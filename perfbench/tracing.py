"""Spans, exact counts and the metric catalogue of the optikit benchmark.

Spans are taken only around calls from the benchmark's own files into the
public functions of each optikit module; each has the id of its op as its
parent.  They are kept in memory and summarised (and written out) when the
run ends.  A span's self time is its duration minus the part of it that its
child spans cover, so at this level a function span's self time equals its
busy time and the op span's self time is the benchmark's own glue.

This module imports neither optikit nor numpy.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# The public functions the ops call, by module.  Every one is traced.
TRACED = {
    "sysdesc": ("parse", "serialize", "document_to_system", "document_to_resonator"),
    "rayoptics": ("validate_system", "system_composition", "trace_ray"),
    "core": ("sylvester_power",),
    "gaussian": ("QParameter", "propagate_q", "geometry_from_q"),
    "resonator": ("stability", "round_trip_matrix", "ray_bound_oracle"),
    "emoptics": ("oblique_incidence_fields", "max_boundary_residual", "fresnel_standard"),
    "quantum": ("make_single_mode", "ground_energy", "commutator"),
    "cli": ("process",),
}
MODULES = tuple(TRACED)

# Exact work counts, computed by the benchmark from each op's inputs.
COUNTS = {
    "sysdesc.lines": "count",            # lines handed to parse
    "rayoptics.elements": "count",       # element matrices folded by system_composition and trace_ray
    "resonator.oracle_trips": "count",   # round trips requested from ray_bound_oracle
    "emoptics.samples": "count",         # boundary samples requested from max_boundary_residual
    "quantum.dense_bytes": "bytes",      # computed from D: 16 D^2 for each of q, p, H and [q, p]
    "quantum.matmul_flops": "flop",      # computed from D: 8 D^3 per dense complex product, 4 per op
}

# End-to-end metrics: (name, unit, better, bound).
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("pass_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            out += [(f"{module}.{name}.calls", "count", "higher"),
                    (f"{module}.{name}.busy_ms", "ms", "lower"),
                    (f"{module}.{name}.self_ms", "ms", "lower")]
    out += [(f"{module}.busy_ms", "ms", "lower") for module in MODULES]
    out += [("op.calls", "count", "higher"), ("op.busy_ms", "ms", "lower"), ("op.self_ms", "ms", "lower")]
    out += [(name, unit, "higher") for name, unit in COUNTS.items()]
    out += [(f"cli.{name}_ms", "ms", "lower") for name in ("interp", "import", "main", "process")]
    out += [("trace.untraced_ops_per_s", "1/s", "higher"), ("trace.traced_ops_per_s", "1/s", "higher"),
            ("trace.overhead_ops_per_s", "1/s", "lower")]
    out += [("defects.probed", "count", "higher"), ("defects.failed", "count", "lower")]
    return out


class Tracer:
    """Collects op spans, function spans (parent = op id) and exact counts."""

    def __init__(self):
        self.ops: list[tuple[int, float, float]] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1

    def wrap(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), self.op_id))

        return traced

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def op_span(self, op_id: int, start: float, end: float) -> None:
        self.ops.append((op_id, start, end))

    def dump(self) -> dict:
        return {"ops": self.ops, "spans": self.spans, "counts": dict(self.counts)}

    def summary(self) -> dict[str, float]:
        """Per-function calls/busy/self, per-module busy, op totals, counts."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            children[parent].append((start, end))
        calls: Counter = Counter()
        busy: Counter = Counter()
        for name, start, end, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
        out: dict[str, float] = {}
        for module, names in TRACED.items():
            module_busy = 0.0
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.busy_ms"] = 1e3 * busy[key]
                # function spans have no children at this level: self == busy
                out[f"{key}.self_ms"] = 1e3 * busy[key]
                module_busy += busy[key]
            out[f"{module}.busy_ms"] = 1e3 * module_busy
        op_busy = sum(end - start for _, start, end in self.ops)
        op_self = sum(end - start - _covered(start, end, children[op_id]) for op_id, start, end in self.ops)
        out["op.calls"] = len(self.ops)
        out["op.busy_ms"] = 1e3 * op_busy
        out["op.self_ms"] = 1e3 * op_self
        for name in COUNTS:
            out[name] = self.counts[name]
        return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
