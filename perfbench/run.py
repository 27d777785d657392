"""End-to-end, layer-attributed benchmark of the datastore's two traffic
kinds: the public portal/API served over HTTP, and the FireWorks queue
plus builders.

    python3 perfbench/run.py --workload portal_week --seed 1 --seconds 10 --trace 0

Workloads (sizes are part of each workload's definition; see
``datagen.FULL_SIZES``):

* ``portal_week`` — open loop of independent web users: seeded Poisson
  arrivals at ``PORTAL_RATE`` requests/s replaying the Fig. 5 archetype
  mix as REST URIs, against an unmodified ``repro serve`` child;
* ``rester_lookup`` — closed loop of two MPRester-style callers sending
  indexed point lookups, against the same deployment;
* ``fireworks_drain`` — closed loop of two workers, each repeating
  checkout -> complete -> ``MaterialsBuilder.refresh`` on a queue of READY
  fireworks, in the ``drain.py`` child.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` makes one untraced and one traced run (layer wrappers from
``spans.py``) and reports the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every response is
checked against the generator's ground truth; a wrong answer counts as a
failed operation.  A human-readable table is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import datagen  # noqa: E402
import deploy  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
import traffic  # noqa: E402
from spans import END_OP, START_OP  # noqa: E402

WORKLOADS = ("portal_week", "rester_lookup", "fireworks_drain")
#: Open-loop arrival rate of ``portal_week``.  The seed deployment
#: sustains about 22 requests/s of this mix on a 2-vCPU host; at half of
#: that, queueing turned ordinary host-speed drift into 2x latency swings,
#: so the rate is a little over a third of capacity.
PORTAL_RATE = 8.0
#: ``portal_week`` counts a request toward throughput only within this.
LATENCY_LIMIT_S = 1.0
#: Deployments started per run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop callers / workers, and open-loop senders.
CLIENTS = 2
#: Expected samples per second, fixing each workload's tail percentile
#: (about the seed's rate on a 2-vCPU host).
EXPECTED_RATE = {"portal_week": PORTAL_RATE, "rester_lookup": 500.0,
                 "fireworks_drain": 2.0}
#: Expected operations per tail window (see ``end_to_end``).  With 100,
#: ``rester_lookup``'s tail is p90 per 0.2 s window: over ten seeds on a
#: shared 2-vCPU VM its spread (IQR/median) was 0.08, against 0.30 for
#: p98 per 500 operations and 0.49 for p99 over the whole run, whose
#: values moved with host noise (2.5x in the noisiest run while p50 rose
#: 28%).
WINDOW_SAMPLES = 100
WORK = os.path.join(HERE, ".work")
CACHE_KEEP = 12
SETUP_TIMEOUT_S = 120.0


# -- data -----------------------------------------------------------------

def ensure_data(seed: int, tiny: bool) -> str:
    """The prebuilt data dirs of ``seed``, built once and cached."""
    sizes = datagen.TINY_SIZES if tiny else datagen.FULL_SIZES
    cache = os.path.join(WORK, "cache")
    path = os.path.join(cache, datagen.cache_key(seed, sizes))
    if os.path.exists(os.path.join(path, "truth.json")):
        os.utime(path)
        return path
    os.makedirs(cache, exist_ok=True)
    building = path + f".building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    argv = [sys.executable, os.path.join(HERE, "datagen.py"),
            "--seed", str(seed), "--out", building] + (["--tiny"] if tiny else [])
    subprocess.run(argv, cwd=deploy.ROOT, env=deploy.child_env(), check=True,
                   timeout=600, stdout=subprocess.DEVNULL)
    os.replace(building, path)
    entries = sorted((os.path.getmtime(os.path.join(cache, e)), e)
                     for e in os.listdir(cache))
    for _, stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(cache, stale), ignore_errors=True)
    return path


# -- HTTP workloads ----------------------------------------------------------

def _probe_path(truth: Dict[str, Any]) -> Tuple[str, float]:
    first = truth["materials"][0]
    return f"/rest/v1/materials/{first['material_id']}/vasp/energy", \
        first["energy"]


def start_server(data: str, run_dir: str, truth: Dict[str, Any],
                 spans_path: Optional[str]) -> Tuple[deploy.Child, str, float]:
    """Spawn ``repro serve`` on a fresh copy of the data; returns the child,
    its URL and the set-up time up to its first correct answer."""
    data_dir = deploy.fresh_copy(os.path.join(data, "portal"),
                                 os.path.join(run_dir, "data"))
    path, energy = _probe_path(truth)
    started = time.perf_counter()
    child = deploy.Child(deploy.serve_argv(data_dir, spans_path),
                         os.path.join(run_dir, "serve.log"))
    try:
        line = child.wait_for("Materials API + Web UI on ", SETUP_TIMEOUT_S)
        base_url = line.split(" on ", 1)[1].split()[0]
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while True:
            status, body = loadgen.one_request(base_url, path, "setup")
            if status == 200 and json.loads(body)["response"][0].get(
                    "energy") == energy:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"no correct answer from {base_url}")
            time.sleep(0.01)
    except BaseException:
        child.stop()
        raise
    return child, base_url, time.perf_counter() - started


def run_http(workload: str, seed: int, seconds: float, data: str,
             truth: traffic.Truth, raw_truth: Dict[str, Any], run_dir: str,
             setups: int, traced: bool,
             plant_wrong: bool) -> Dict[str, Any]:
    spans_path = os.path.join(run_dir, "spans.json") if traced else None
    setup_times = []
    for k in range(setups):
        child, base_url, setup_s = start_server(
            data, run_dir, raw_truth, spans_path)
        setup_times.append(setup_s)
        if k < setups - 1:
            child.stop()
    try:
        # Warm-up, outside the measurement: one request of every kind, so
        # lazy imports and first plans are paid before timing starts.
        mix = (traffic.PORTAL_MIX if workload == "portal_week"
               else traffic.RESTER_MIX)
        warm_rng = random.Random(seed ^ 0x5EED)
        for kind in mix:
            loadgen.one_request(
                base_url, traffic.make_request(kind, warm_rng, truth).path,
                "warm")
        if traced:
            loadgen.one_request(base_url, _probe_path(raw_truth)[0], START_OP)
        journal = os.path.join(run_dir, "data", "journal.jsonl")
        journal_before = os.path.getsize(journal)
        if workload == "portal_week":
            arrivals = loadgen.poisson_schedule(PORTAL_RATE, seconds, seed)
            stream = traffic.request_stream(mix, seed, truth)
            requests = [next(stream) for _ in arrivals]
            if plant_wrong:
                _plant(requests[0])
            records, connects, start = loadgen.open_loop(
                base_url, arrivals, requests, CLIENTS)
        else:
            stream = traffic.request_stream(mix, seed, truth)
            if plant_wrong:
                stream = _planted(stream)
            records, connects, start = loadgen.closed_loop(
                base_url, stream, seconds, CLIENTS)
        elapsed = max(r.end for r in records) - start
        if traced:
            loadgen.one_request(base_url, _probe_path(raw_truth)[0], END_OP)
        peak_rss = deploy.peak_rss_mb(str(child.proc.pid))
    finally:
        child.stop()
    journal_bytes = os.path.getsize(journal) - journal_before
    failures = {}
    for r in records:
        reason = traffic.check(r.request, r.status, r.body)
        if reason is not None:
            failures[r.op] = f"{r.request.path}: {reason}"
    ok = [r for r in records if r.op not in failures]
    within = [r for r in ok if r.latency_s <= LATENCY_LIMIT_S]
    counted = within if workload == "portal_week" else ok
    return {
        "setup_times": setup_times,
        "latencies": [r.latency_s if r.op not in failures else float("inf")
                      for r in records],
        "offsets": [r.due - start for r in records],
        "point_latencies": [
            r.latency_s if r.op not in failures else float("inf")
            for r in records if r.request.kind in traffic.POINT_KINDS],
        "throughput": len(counted) / elapsed,
        "attempted": len(records),
        "failures": failures,
        "peak_rss_mb": peak_rss,
        "journal_bytes": journal_bytes,
        "service": {r.op: r.end - r.sent for r in records},
        "client": {
            "send_lag_ms": statistics.mean(r.gap for r in records) * 1e3,
            "connects_per_request": connects / len(records),
            "response_kb": statistics.mean(
                len(r.body or b"") for r in records) / 1024.0,
            "journal_bytes": journal_bytes,
            "claim_hit_ratio": 0.0,
        },
        "spans_path": spans_path,
    }


def _plant(request: traffic.Request) -> None:
    """Corrupt one expected answer (self-test: it must count as failed)."""
    expect = request.expect
    if "one" in expect:
        key = next(k for k in expect["one"] if k not in
                   ("material_id", "mps_id", "battery_id"))
        expect["one"][key] = "planted wrong answer"
    elif "ids" in expect:
        expect["ids"] = dict(expect["ids"], **{"mp-0": {}})
    else:
        expect["members"] = set()


def _planted(stream):
    first = next(stream)
    _plant(first)
    yield first
    yield from stream


# -- FireWorks workload --------------------------------------------------------

def run_drain(seed: int, seconds: float, data: str, raw_truth: Dict[str, Any],
              run_dir: str, setups: int, traced: bool,
              plant_wrong: bool) -> Dict[str, Any]:
    spans_path = os.path.join(run_dir, "spans.json") if traced else None
    result_path = os.path.join(run_dir, "drain.json")
    truth_path = os.path.join(data, "fireworks.json")
    probe = raw_truth["materials"][0]
    setup_times = []
    for k in range(setups):
        data_dir = deploy.fresh_copy(os.path.join(data, "queue"),
                                     os.path.join(run_dir, "data"))
        argv = [sys.executable, os.path.join(HERE, "drain.py"),
                "--data-dir", data_dir, "--truth", truth_path,
                "--probe-id", probe["material_id"],
                "--probe-energy", repr(probe["energy"]),
                "--out", result_path]
        if spans_path:
            argv += ["--spans", spans_path]
        if plant_wrong:
            argv.append("--plant-wrong")
        started = time.perf_counter()
        child = deploy.Child(argv, os.path.join(run_dir, "drain.log"))
        try:
            child.wait_for("READY", SETUP_TIMEOUT_S)
            setup_times.append(time.perf_counter() - started)
            if k < setups - 1:
                child.send("quit")
            else:
                child.send(f"go {seconds!r}")
                child.wait_for("DONE", seconds + 300)
        except BaseException:
            child.stop()
            raise
        # The child exits by itself after "quit" or "DONE".
        child.stop(interrupt=False)
    with open(result_path, encoding="utf-8") as fh:
        run = json.load(fh)
    cycles = run["cycles"]
    failures = run["failures"]
    start = run["start"]
    elapsed = max(c[3] for c in cycles) - start
    ok = [c for c in cycles if c[0] not in failures]
    payload = sum(c[4] for c in ok)
    return {
        "setup_times": setup_times,
        "latencies": [c[3] - c[2] if c[0] not in failures else float("inf")
                      for c in cycles],
        "offsets": [c[2] - start for c in cycles],
        "point_latencies": [],
        "throughput": len(ok) / elapsed,
        "attempted": len(cycles),
        "failures": failures,
        "peak_rss_mb": run["peak_rss_mb"],
        "journal_bytes": run["journal_bytes"],
        "write_amp": run["journal_bytes"] / payload if payload else None,
        "truth_rss_mb": run["truth_rss_mb"],
        "service": {c[0]: c[3] - c[2] for c in cycles},
        "client": {
            "send_lag_ms": statistics.mean(c[6] for c in cycles) * 1e3,
            "connects_per_request": 0.0,
            "response_kb": 0.0,
            "journal_bytes": run["journal_bytes"],
            "claim_hit_ratio": sum(1 for c in cycles if c[1] is not None)
            / len(cycles),
        },
        "spans_path": spans_path,
    }


# -- reporting ---------------------------------------------------------------------

def end_to_end(workload: str, seconds: float,
               run: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    # The tail is taken per window of about WINDOW_SAMPLES operations and
    # reported as the median over windows, so one burst of host noise
    # moves one window, not the result.  Both the window count and the
    # percentile follow from the workload's expected sample count.
    expected = EXPECTED_RATE[workload] * seconds
    windows = max(1, int(expected // WINDOW_SAMPLES))
    q = metrics.tail_quantile(round(expected / windows))
    values = {
        "throughput_ops": run["throughput"],
        "p50_ms": metrics.percentile(run["latencies"], 0.5) * 1e3,
        "tail_ms": metrics.windowed_percentile(
            run["offsets"], run["latencies"], seconds, windows, q) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(run["setup_times"]),
    }
    point = (metrics.percentile(run["point_latencies"], 0.5) * 1e3
             if run["point_latencies"] else None)
    extra = {
        "samples": len(run["latencies"]),
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "also": {
            "tail percentile": (q * 100, "p"),
            "tail windows": (windows, "count"),
            "point_p50_ms": (point, "ms"),
            "error_ratio": (len(run["failures"]) / run["attempted"], "ratio"),
            "write_amp": (run.get("write_amp"), "ratio"),
            "truth_rss_mb": (run.get("truth_rss_mb"), "MB"),
            "setup runs": (len(run["setup_times"]), "count"),
        },
    }
    return values, extra


#: Per-layer metrics whose layer is not on a workload's path.
OFF_PATH = {
    "http": ("launchpad.checkout_ms", "launchpad.complete_ms",
             "launchpad.claim_hit_ratio", "builder.refresh_ms",
             "docstore.claim_ms"),
    "drain": ("client.connects_per_request", "httpd.self_ms",
              "httpd.response_kb", "rest.self_ms", "queryengine.self_ms",
              "accesslog.ms_per_request", "accesslog.records_per_request"),
}


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the workload; returns the result line and the end-to-end values
    of every pass (untraced, and traced with ``--trace 1``)."""
    data = ensure_data(args.seed, args.tiny)
    with open(os.path.join(data, "truth.json"), encoding="utf-8") as fh:
        raw_truth = json.load(fh)
    truth = traffic.Truth(raw_truth)
    run_root = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_root, ignore_errors=True)
    setups = 1 if args.tiny or args.trace else SETUPS

    def one(traced: bool) -> Dict[str, Any]:
        run_dir = os.path.join(run_root, "traced" if traced else "plain")
        os.makedirs(run_dir, exist_ok=True)
        if args.workload == "fireworks_drain":
            run = run_drain(args.seed, args.seconds, data, raw_truth,
                            run_dir, setups, traced, args.plant_wrong)
        else:
            run = run_http(args.workload, args.seed, args.seconds, data,
                           truth, raw_truth, run_dir, setups, traced,
                           args.plant_wrong)
        for op, reason in list(run["failures"].items())[:5]:
            print(f"FAILED {op}: {reason}")
        return run

    try:
        runs = [one(False)] + ([one(True)] if args.trace else [])
        report = {"end_to_end": {}}
        for run, label in zip(runs, ("untraced", "traced")):
            values, extra = end_to_end(args.workload, args.seconds, run)
            report["end_to_end"][label] = values
            metrics.print_end_to_end(f"{args.workload} ({label})", values,
                                     extra)
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(len(run["failures"]) for run in runs)
        if not args.trace:
            report["line"] = metrics.result_line(
                failed == 0, attempted, failed,
                report["end_to_end"]["untraced"], metrics.END_TO_END)
            return report
        plain, traced = runs
        with open(traced["spans_path"], encoding="utf-8") as fh:
            spans_doc = json.load(fh)
        client = dict(traced["client"])
        client["overhead_ratio"] = (
            statistics.median(traced["service"].values())
            / statistics.median(plain["service"].values()))
        result = metrics.per_layer(spans_doc, traced["service"], client)
        off = OFF_PATH["drain" if args.workload == "fireworks_drain"
                       else "http"]
        metrics.print_layer_table(args.workload, result, off)
        report["line"] = metrics.result_line(
            failed == 0, attempted, failed, result["metrics"],
            metrics.PER_LAYER)
        return report
    finally:
        shutil.rmtree(run_root, ignore_errors=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test store sizes (not a measurement)")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="self-test: corrupt one expected answer")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(deploy.SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {deploy.SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except Exception:  # noqa: BLE001 - report, exit non-zero, no result
        traceback.print_exc()
        return 1
    print(json.dumps(report["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
