"""Self-test of the benchmark at tiny store sizes (well under a minute).

    python3 perfbench/selftest.py

Checks, for every workload the harness runs (also ``portal_week``, which
``BENCHMARK.json`` does not gate):

* every metric ``BENCHMARK.json`` names is emitted, with its unit, by the
  untraced (end-to-end) and the traced (per-layer) run;
* traced and untraced passes emit the same end-to-end metric names;
* a planted wrong expected answer is counted as a failed operation and
  makes the run incorrect.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 3
SECONDS = 0.5


def _measure(workload: str, trace: int, plant_wrong: bool = False) -> dict:
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=SECONDS,
                              trace=trace, tiny=True, plant_wrong=plant_wrong)
    with redirect_stdout(io.StringIO()):
        return run.measure(args)


def _expect_metrics(line: dict, declared: List[dict], what: str) -> List[str]:
    problems = []
    emitted = line["metrics"]
    for metric in declared:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"{what}: {metric['name']} not emitted")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{what}: {metric['name']} in {got.get('unit')}, "
                            f"declared {metric['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{what}: {metric['name']} has no number")
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{what}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(run.deploy.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    problems: List[str] = []
    for workload in run.WORKLOADS:
        plain = _measure(workload, trace=0)
        problems += _expect_metrics(plain["line"], bench["end_to_end"],
                                    f"{workload} --trace 0")
        if plain["line"]["failed"] or not plain["line"]["correct"]:
            problems.append(f"{workload}: clean run reported failures")
        traced = _measure(workload, trace=1)
        problems += _expect_metrics(traced["line"], bench["per_layer"],
                                    f"{workload} --trace 1")
        names = {label: sorted(values)
                 for label, values in traced["end_to_end"].items()}
        if names.get("traced") != names.get("untraced"):
            problems.append(f"{workload}: traced and untraced passes emit "
                            f"different end-to-end metrics: {names}")
        planted = _measure(workload, trace=0, plant_wrong=True)["line"]
        if planted["failed"] < 1 or planted["correct"]:
            problems.append(f"{workload}: planted wrong answer not counted "
                            f"({planted['failed']} failed)")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
