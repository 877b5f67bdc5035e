"""Check that run.py emits exactly the metrics BENCHMARK.json names.

    python3 perfbench/selfcheck.py

Runs run.py once per workload of BENCHMARK.json in each mode with
--seconds 1 and checks that the last stdout line has exactly the result
keys, that the run was correct, and that the metrics are exactly the
`end_to_end` ones (trace 0) or the `per_layer` ones (trace 1), with the
units BENCHMARK.json gives and finite values (end-to-end ones non-zero).
Exits nonzero and lists every problem on failure.
"""

from __future__ import annotations

import env

import json
import math
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_problems(bench: dict, workload: str, trace: int) -> list:
    cmd = bench["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=env.ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: run not correct: {result}")
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(expected))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r} != {expected[name]!r}")
    return problems


def main() -> int:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += run_problems(bench, workload, trace)
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
