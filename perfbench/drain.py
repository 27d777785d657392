"""The FireWorks drain deployment: ``LaunchPad`` and ``MaterialsBuilder``
in one process over a persistent store, with the observability
``repro serve`` attaches (telemetry warehouse, flight recorder, stall
watchdog), built through the same constructors.

It runs in-process rather than over ``RemoteClient`` because ``LaunchPad``
fails there: ``RemoteCollection.insert_one`` returns a dict, not a result
object.

Protocol on stdin/stdout (driven by ``run.py``)::

    PYTHONPATH=src python3 perfbench/drain.py --data-dir DIR \\
        --truth FIREWORKS.json \\
        --probe-id mp-1 --probe-energy E --out RESULT.json [--spans S]
    <- READY                   (store open, first correct answer read)
    -> go SECONDS | quit
    <- DONE                    (results written to RESULT.json)

``go`` runs two worker threads, each repeating checkout -> complete ->
refresh, for SECONDS.  Then the store is closed, reopened from disk, and
every acknowledged completion is looked up: engine state, task and
material.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import deploy  # noqa: E402
import spans  # noqa: E402

WORKERS = 2
STALL_TIMEOUT_S = 5.0
TELEMETRY_INTERVAL_S = 5.0
FLIGHT_INTERVAL_S = 1.0


class Deployment:
    """The store plus the observability ``cmd_serve`` attaches to it."""

    def __init__(self, data_dir: str):
        from repro.builders import MaterialsBuilder
        from repro.docstore import DocumentStore
        from repro.fireworks import LaunchPad
        from repro.obs.flight import (
            StallWatchdog,
            enable_fault_handler,
            start_flight_recorder,
        )
        from repro.obs.health import HealthMonitor
        from repro.obs.slo import default_rules
        from repro.obs.warehouse import TelemetryWarehouse

        self.data_dir = data_dir
        self.store = DocumentStore(persistence_dir=data_dir, fsync="interval")
        self.db = self.store["mp"]
        self.warehouse = TelemetryWarehouse(self.store)
        self.warehouse.tail_sampler.install()
        self.warehouse.watch_profile(self.db)
        self.warehouse.start(interval_s=TELEMETRY_INTERVAL_S)
        self.monitor = HealthMonitor(
            engine=self.warehouse.slo_engine(default_rules(self.db)))
        flight_dir = os.path.join(data_dir, "flight")
        enable_fault_handler(flight_dir)
        self.recorder = start_flight_recorder(
            self.store, flight_dir, interval_s=FLIGHT_INTERVAL_S)
        self.watchdog = StallWatchdog(
            self.recorder, store=self.store, stall_timeout_s=STALL_TIMEOUT_S,
            event_sink=self.warehouse.record_flight_event).start()
        self.launchpad = LaunchPad(self.db)
        self.builder = MaterialsBuilder(self.db)

    def close(self) -> None:
        from repro.obs.flight import stop_flight_recorder

        self.watchdog.stop()
        stop_flight_recorder()
        self.warehouse.stop()
        self.store.close()


def task_for(result: Dict[str, Any], structure: dict,
             encut: int) -> Dict[str, Any]:
    """The simulated calculation's output for one firework."""
    energy, gap = result["energy"], result["band_gap"]
    return {
        "mps_id": result["mps_id"],
        "structure": structure,
        "formula": result["reduced_formula"],
        "elements": result["elements"],
        "nsites": result["nsites"],
        "energy": energy,
        "energy_per_atom": energy / result["nsites"],
        "band_gap": gap,
        "is_metal": gap == 0.0,
        "parameters": {"ENCUT": encut, "ISPIN": 2},
        "functional": "PBE",
        "code_version": "vasp-5.2.12",
        "walltime_used_s": 3600.0,
    }


def drain(dep: Deployment, truth: Dict[str, Any], seconds: float,
          recorder: Optional[spans.Recorder]) -> Dict[str, Any]:
    """Two workers claim, complete and project until ``seconds`` pass."""
    from datagen import variant_dict
    from repro.docstore.documents import document_to_json
    from repro.matgen.structure import Structure

    protos = [Structure.from_dict(d) for d in truth["prototypes"]]
    results = truth["fireworks"]
    encut = truth["recompute_encut"]
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    cycles: List[list] = []

    def cycle(worker: str) -> tuple:
        fw = dep.launchpad.checkout_firework(worker=worker)
        if fw is None:
            return None, 0, "claim returned nothing"
        if fw.get("state") != "RUNNING":
            return fw["fw_id"], 0, f"claimed in state {fw.get('state')}"
        result = results[str(fw["fw_id"])]
        index, variant = result["structure"]
        task = task_for(result, variant_dict(protos[index], variant), encut)
        dep.launchpad.apply_actions(fw, [{"action": "complete",
                                          "task": task}])
        dep.builder.refresh(result["mps_id"])
        return fw["fw_id"], len(document_to_json(task)), None

    def worker(name: str) -> None:
        last_end = time.perf_counter()
        while last_end < stop:
            with lock:
                op = f"m{next(counter)}"
            start = time.perf_counter()
            try:
                if recorder is not None:
                    fw_id, nbytes, error = recorder.call(
                        "worker", "cycle", cycle, (name,), {}, op=op)
                else:
                    fw_id, nbytes, error = cycle(name)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                fw_id, nbytes, error = None, 0, repr(exc)
            end = time.perf_counter()
            with lock:
                cycles.append([op, fw_id, start, end, nbytes, error,
                               start - last_end])
            last_end = end

    journal = os.path.join(dep.data_dir, "journal.jsonl")
    journal_before = os.path.getsize(journal) if os.path.exists(journal) else 0
    if recorder is not None:
        recorder.mark_start()
    start = time.perf_counter()
    stop = start + seconds
    threads = [threading.Thread(target=worker, args=(f"worker-{i}",))
               for i in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if recorder is not None:
        recorder.mark_end()
    return {"start": start, "cycles": cycles, "journal_before": journal_before}


def verify(data_dir: str, truth: Dict[str, Any], cycles: List[list],
           plant_wrong: bool = False) -> Dict[str, str]:
    """Reopen the store from disk; find every acknowledged completion.

    Returns ``{op: reason}`` for every operation that fails a check.
    ``plant_wrong`` corrupts the first completion's expected energy (the
    self-test's proof that a wrong answer counts as a failure).
    """
    from repro.docstore import DocumentStore

    results = truth["fireworks"]
    if plant_wrong and cycles and cycles[0][1] is not None:
        key = str(cycles[0][1])
        results = dict(results)
        results[key] = dict(results[key], energy=results[key]["energy"] + 1)
    encut = truth["recompute_encut"]
    n_materials = truth["materials"]
    failures: Dict[str, str] = {}
    claims = Counter(c[1] for c in cycles if c[1] is not None)
    store = DocumentStore(persistence_dir=data_dir)
    try:
        db = store["mp"]
        for op, fw_id, _s, _e, _n, error, _g in cycles:
            if error is not None:
                failures[op] = error
                continue
            if claims[fw_id] > 1:
                failures[op] = f"firework {fw_id} claimed {claims[fw_id]} times"
                continue
            result = results[str(fw_id)]
            engine = db["engines"].find_one({"fw_id": fw_id})
            if engine is None or engine.get("state") != "COMPLETED" \
                    or engine.get("task_id") is None:
                failures[op] = f"firework {fw_id} not COMPLETED after reopen"
                continue
            task = db["tasks"].find_one({"_id": engine["task_id"]})
            if task is None or task.get("fw_id") != fw_id \
                    or task.get("energy") != result["energy"] \
                    or (task.get("parameters") or {}).get("ENCUT") != encut:
                failures[op] = f"task of firework {fw_id} lost or wrong"
                continue
            material = db["materials"].find_one({"mps_id": result["mps_id"]})
            if material is None or material.get("energy") != result["energy"]:
                failures[op] = f"material {result['mps_id']} not refreshed"
                continue
            expected_id = result["material_id"]
            got_id = material.get("material_id", "")
            if expected_id is not None and got_id != expected_id:
                failures[op] = f"material id changed to {got_id}"
            elif expected_id is None and not (
                    got_id.startswith("mp-")
                    and int(got_id[3:]) > n_materials):
                failures[op] = f"new material got id {got_id!r}"
    finally:
        store.close()
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--truth", required=True)
    parser.add_argument("--probe-id", required=True)
    parser.add_argument("--probe-energy", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace, writing spans here")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="self-test: corrupt one expected answer")
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = spans.Recorder()
        spans.install(recorder)
    dep = Deployment(args.data_dir)
    probe = dep.db["materials"].find_one({"material_id": args.probe_id})
    if probe is None or probe.get("energy") != args.probe_energy:
        print(f"FAILED probe {args.probe_id}: {probe}", flush=True)
        dep.close()
        return 1
    print("READY", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        dep.close()
        return 0
    rss_before = deploy.rss_mb()
    with open(args.truth, encoding="utf-8") as fh:
        truth = json.load(fh)
    # The harness's own share of the child's peak RSS.
    truth_rss_mb = deploy.rss_mb() - rss_before
    run = drain(dep, truth, float(command[1]), recorder)
    run["truth_rss_mb"] = truth_rss_mb
    dep.close()
    journal = os.path.join(args.data_dir, "journal.jsonl")
    run["journal_bytes"] = os.path.getsize(journal) - run.pop("journal_before")
    run["peak_rss_mb"] = deploy.peak_rss_mb()
    run["failures"] = verify(args.data_dir, truth, run["cycles"],
                             args.plant_wrong)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(run, fh)
    if recorder is not None:
        recorder.dump(args.spans)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
