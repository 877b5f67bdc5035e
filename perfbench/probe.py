"""Set-up probe: a fresh process that runs one workload up to the start
of its first epoch, prints the monotonic clock there, and exits.

run.py starts several of these and takes setup_s as the time from
starting the process to that moment: interpreter start, imports, config,
data.generate_dataset and model.build_detector. CLOCK_MONOTONIC is
system-wide, so the two processes' readings compare.

    python3 perfbench/probe.py --workload full --seed 0 --dir SCRATCH_DIR
"""

from __future__ import annotations

import env  # first: pins BLAS threads before numpy loads

import argparse
import os
import sys
import time

env.import_package()
from freezelab import experiment  # noqa: E402

import workloads  # noqa: E402
from tracer import patched  # noqa: E402


class FirstEpoch(BaseException):
    """Raised at the first train_epoch call; a BaseException so that the
    cli's `except Exception` boundary lets it through."""


def _stop(*args, **kwargs):
    raise FirstEpoch(time.monotonic())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time one workload's set-up")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for the config")
    args = parser.parse_args(argv)
    config = workloads.write_config(args.workload, args.seed, os.path.join(args.dir, "config.json"))
    with patched([(experiment, "train_epoch", _stop)]):
        try:
            workloads.call(args.workload, args.seed, config, os.path.join(args.dir, "out"))
        except FirstEpoch as reached:
            print(f"first_epoch_monotonic {reached.args[0]!r}")
            return 0
    print("error: the workload finished without training an epoch", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
