"""Run every workload in a fresh process and print the metrics side by side,
then the three cost views of a frozen epoch for `frozen` and `grid`.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as `run.py --workload W --seed N --seconds S --trace
T`; the table is read from the detail files those runs write.
"""

from __future__ import annotations

import env

import argparse
import json
import os
import subprocess
import sys

env.import_package()
from stats import format_value  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COST_VIEWS = ("cost.frozen_share.ledger", "cost.frozen_share.time_model",
              "cost.frozen_share.measured")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run all workloads and compare them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    details = {}
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for workload in WORKLOADS:
        cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=env.ROOT)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        path = os.path.join(env.OUT_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path) as fh:
            details[workload] = json.load(fh)

    first = details[WORKLOADS[0]]
    print(f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in first["machine"].items()
                                 if k not in ("steal_share", "idle_share")))
    for workload in WORKLOADS:
        d = details[workload]
        r = d["result"]
        print(f"{workload}: attempted={r['attempted']} failed={r['failed']} correct={r['correct']} "
              f"steal_share={d['machine']['steal_share']:.4f} idle_share={d['machine']['idle_share']:.4f}")

    width = 46
    print(f"\n{'metric':<36}{'unit':<10}" + "".join(f"{w:<{width}}" for w in WORKLOADS))
    metric_names = list(dict.fromkeys(n for w in WORKLOADS for n in details[w]["all_metrics"]))
    for name in metric_names:
        unit = next(details[w]["all_metrics"][name]["unit"] for w in WORKLOADS
                    if name in details[w]["all_metrics"])
        cells = [format_value(m[name]["value"], m[name]["summary"]) if name in m else "-"
                 for m in (details[w]["all_metrics"] for w in WORKLOADS)]
        print(f"{name:<36}{unit:<10}" + "".join(f"{c:<{width}}" for c in cells))

    print("\ncost of a frozen epoch over an unfrozen one, three views:")
    print(f"{'workload':<10}" + "".join(f"{v.rsplit('.', 1)[1]:<14}" for v in COST_VIEWS))
    for workload in ("frozen", "grid"):
        m = details[workload]["all_metrics"]
        print(f"{workload:<10}" + "".join(f"{m[v]['value']:<14.4f}" for v in COST_VIEWS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
