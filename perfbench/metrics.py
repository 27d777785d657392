"""End-to-end and per-layer metrics, and the tables the benchmark prints.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced one, by joining the client's operation records with the spans the
deployment dumped (``spans.py``).  Every per-layer time is per operation
(a request, or one claim -> complete -> refresh cycle) unless its name
says otherwise.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Sequence

#: name -> unit, in the order the benchmark reports them.
END_TO_END = {
    "throughput_ops": "ops/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "client.send_lag_ms": "ms",
    "client.connects_per_request": "count",
    "httpd.self_ms": "ms",
    "httpd.response_kb": "KB",
    "rest.self_ms": "ms",
    "queryengine.self_ms": "ms",
    "accesslog.ms_per_request": "ms",
    "accesslog.records_per_request": "count",
    "planner.plan_ms": "ms",
    "planner.cache_hit_ratio": "ratio",
    "docstore.read_ms": "ms",
    "docstore.examined_per_returned": "ratio",
    "docstore.claim_ms": "ms",
    "docstore.update_ms": "ms",
    "docstore.insert_ms": "ms",
    "indexes.add_ms": "ms",
    "locks.wait_ms_per_op": "ms",
    "journal.append_ms": "ms",
    "journal.records_per_fsync": "count",
    "journal.bytes_per_op": "B",
    "launchpad.checkout_ms": "ms",
    "launchpad.complete_ms": "ms",
    "launchpad.claim_hit_ratio": "ratio",
    "builder.refresh_ms": "ms",
    "warehouse.tick_ms": "ms",
    "warehouse.busy_share": "ratio",
    "flight.capture_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that are inclusive time in one function, per op.
_INCLUSIVE = {
    "accesslog.ms_per_request": ("QueryLog.record_access",),
    "planner.plan_ms": ("QueryPlanner.plan",),
    "docstore.read_ms": ("Cursor.to_list", "Cursor.__iter__",
                         "Collection.find_one"),
    "docstore.claim_ms": ("Collection.find_one_and_update",),
    "docstore.update_ms": ("Collection.update_one",),
    "docstore.insert_ms": ("Collection.insert_one",),
    "indexes.add_ms": ("IndexManager.add_document",),
    "journal.append_ms": ("JournalWriter.append",),
    "launchpad.checkout_ms": ("LaunchPad.checkout_firework",),
    "launchpad.complete_ms": ("LaunchPad.apply_actions",),
    "builder.refresh_ms": ("MaterialsBuilder.refresh",),
}
#: Per-layer metrics that are self time of one layer, per op.
_SELF = {
    "httpd.self_ms": "api.httpd",
    "rest.self_ms": "api.rest",
    "queryengine.self_ms": "api.queryengine",
}
#: The root span of a FireWorks cycle; its self time is unattributed.
ROOT_LAYER = "worker"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windowed_percentile(offsets: Sequence[float], values: Sequence[float],
                        seconds: float, windows: int, q: float) -> float:
    """Median over equal time windows of each window's ``q`` percentile."""
    buckets: Dict[int, list] = {}
    width = seconds / windows
    for offset, value in zip(offsets, values):
        index = min(windows - 1, max(0, int(offset // width)))
        buckets.setdefault(index, []).append(value)
    return statistics.median(percentile(b, q) for b in buckets.values())


def tail_quantile(expected_samples: int) -> float:
    """The highest quantile with at least ten samples beyond it, capped at
    p99, for a workload's expected sample count."""
    return max(0.5, min(0.99, 1.0 - 10.0 / max(expected_samples, 20)))


def _delta(counters: Dict[str, Any], section: str, key: str) -> float:
    start = counters.get("start", {}).get(section, {}).get(key, 0) or 0
    end = counters.get("end", {}).get(section, {}).get(key, 0) or 0
    return float(end) - float(start)


def per_layer(spans_doc: Dict[str, Any], ops: Dict[str, float],
              client: Dict[str, float]) -> Dict[str, Any]:
    """Aggregate a dumped span file over the measured operations.

    ``ops`` maps each measured operation id to its traced latency in
    seconds (client-side for HTTP, the cycle for FireWorks).  ``client``
    carries the load generator's own figures and the journal growth.
    Returns the named metrics plus a per-layer breakdown for the table.
    """
    n = len(ops)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    roots: Dict[str, float] = {}
    tick, capture = [], []
    t0, t1 = spans_doc["window"]
    for op, layer, name, start, duration, child in spans_doc["spans"]:
        if op is None:
            if t0 is not None and t1 is not None and t0 <= start <= t1:
                if name == "TelemetryWarehouse.tick":
                    tick.append(duration)
                elif name == "FlightRecorder.capture":
                    capture.append(duration)
            continue
        if op not in ops:
            continue
        self_s[layer] = self_s.get(layer, 0.0) + duration - child
        calls[layer] = calls.get(layer, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if layer in ("api.httpd", ROOT_LAYER):
            roots[op] = roots.get(op, 0.0) + duration

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / n if n else 0.0

    # Time outside every layer: the traced latency beyond the root span,
    # plus the FireWorks cycle's own self time (its root is no layer).
    unattributed_s = (sum(ops[op] - roots.get(op, 0.0) for op in ops)
                      + self_s.get(ROOT_LAYER, 0.0))
    counters = spans_doc.get("counters", {})
    hits = _delta(counters, "plan_cache", "hits")
    misses = _delta(counters, "plan_cache", "misses")
    records = _delta(counters, "journal", "records")
    fsyncs = _delta(counters, "journal", "fsyncs")
    waits = (_delta(counters, "locks", "read_wait_ms")
             + _delta(counters, "locks", "write_wait_ms"))
    shapes = [s for s in spans_doc.get("read_shapes", []) if "examined" in s]
    returned = sum(s["count"] * s["returned"] for s in shapes)
    window_s = (t1 - t0) if t0 is not None and t1 is not None else 0.0

    m: Dict[str, float] = {
        "client.send_lag_ms": client["send_lag_ms"],
        "client.connects_per_request": client["connects_per_request"],
        "httpd.response_kb": client["response_kb"],
        "accesslog.records_per_request": (
            calls.get("QueryLog.record_access", 0) / n if n else 0.0),
        "planner.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "docstore.examined_per_returned": (
            sum(s["count"] * s["examined"] for s in shapes) / returned
            if returned else 0.0),
        "locks.wait_ms_per_op": waits / n if n else 0.0,
        "journal.records_per_fsync": records / fsyncs if fsyncs else records,
        "journal.bytes_per_op": client["journal_bytes"] / n if n else 0.0,
        "launchpad.claim_hit_ratio": client["claim_hit_ratio"],
        "warehouse.tick_ms": statistics.mean(tick) * 1e3 if tick else 0.0,
        "warehouse.busy_share": sum(tick) / window_s if window_s else 0.0,
        "flight.capture_ms": (statistics.mean(capture) * 1e3
                              if capture else 0.0),
        "trace.unattributed_ms": per_op_ms(unattributed_s),
        "trace.overhead_ratio": client["overhead_ratio"],
    }
    for metric, names in _INCLUSIVE.items():
        m[metric] = per_op_ms(sum(inclusive.get(x, 0.0) for x in names))
    for metric, layer in _SELF.items():
        m[metric] = per_op_ms(self_s.get(layer, 0.0))
    layers = {
        layer: {"calls_per_op": calls[layer] / n,
                "self_ms": per_op_ms(seconds)}
        for layer, seconds in sorted(self_s.items()) if layer != ROOT_LAYER
    }
    latency_ms = statistics.mean(ops.values()) * 1e3 if n else 0.0
    return {"metrics": {k: m[k] for k in PER_LAYER}, "layers": layers,
            "latency_ms": latency_ms, "ops": n}


def print_layer_table(workload: str, result: Dict[str, Any],
                      off_path: Sequence[str]) -> None:
    """One table per workload: layer self times, then named metrics."""
    latency = result["latency_ms"]
    print(f"\n== {workload}: per-layer self time per operation "
          f"({result['ops']} traced ops, mean traced latency "
          f"{latency:.3f} ms) ==")
    print(f"{'layer':24s} {'calls/op':>9s} {'self ms/op':>11s} {'share':>7s}")
    attributed = 0.0
    for layer, row in result["layers"].items():
        attributed += row["self_ms"]
        share = row["self_ms"] / latency if latency else 0.0
        print(f"{layer:24s} {row['calls_per_op']:9.2f} "
              f"{row['self_ms']:11.4f} {share:7.1%}")
    unattributed = result["metrics"]["trace.unattributed_ms"]
    print(f"{'(unattributed)':24s} {'':9s} {unattributed:11.4f} "
          f"{unattributed / latency if latency else 0.0:7.1%}")
    print(f"{'sum':24s} {'':9s} {attributed + unattributed:11.4f}")
    print(f"\n{'metric':34s} {'value':>12s} unit")
    for name, unit in PER_LAYER.items():
        value = result["metrics"][name]
        shown = f"{'-':>12s}" if name in off_path else f"{value:12.4f}"
        print(f"{name:34s} {shown} {unit}")


def print_end_to_end(workload: str, metrics: Dict[str, float],
                     extra: Dict[str, Any]) -> None:
    print(f"\n== {workload}: end-to-end ({extra['samples']} samples, "
          f"{extra['failed']} failed of {extra['attempted']}) ==")
    for name, unit in END_TO_END.items():
        print(f"{name:20s} {metrics[name]:12.4f} {unit}")
    for name, (value, unit) in extra["also"].items():
        shown = "-" if value is None else f"{value:12.4f}"
        print(f"{name:20s} {shown:>12s} {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}

