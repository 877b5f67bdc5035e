"""freezelab benchmark: one workload, one seed, one mode, in this process.

    python3 perfbench/run.py --workload {full,frozen,grid} --seed N \\
        --seconds S --trace {0,1}

The loop is closed: one client, and the next workload call starts only
after the previous one has finished. Calls repeat until S seconds have
passed.

--trace 0 measures the end-to-end metrics with nothing wrapped but
experiment.train_epoch (16 boundaries per run). It makes at least two
calls, so the byte-identity check always has a repeat. For setup_s it
starts fresh set-up probe processes (probe.py), one before the first
epoch that follows each SETUP_PROBES-th part of the run; their time is
left out of every timing.

--trace 1 makes one untraced reference call, then traced calls that
record spans at every module boundary, and reports the per-layer metrics,
the tracing overhead and the per-primitive microbenchmark.

Every call passes the correctness gate in workloads.check; a raise or a
failed check counts as a failed operation. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Details go to
.perfbench_out/ in the checkout: the result with every sample summary and
the machine facts, and in traced mode the spans.
"""

from __future__ import annotations

import env  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

env.import_package()
from freezelab import experiment  # noqa: E402

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stats import format_metric, median_metric, summarize  # noqa: E402

SETUP_PROBES = 15
MIN_UNTRACED_CALLS = 2
PROBE_TIMEOUT_S = 120

# Emitted in the last line with --trace 0; BENCHMARK.json lists the same.
END_TO_END = ("setup_s", "wall_s", "train_samples_per_s", "epoch_s.unfrozen", "peak_rss_mb",
              "rss_growth_mb")


def _metric(value, unit, summary=None) -> dict:
    return {"value": value, "unit": unit, "summary": summary or {"n": 1}}


class Session:
    """Workload calls of one run, with the correctness gate applied."""

    def __init__(self, workload, seed, config, work):
        self.workload, self.seed, self.config, self.work = workload, seed, config, work
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.maps = []
        self.epochs = []    # (freeze, seconds, samples) of successful calls
        self._pending = []  # epochs of the call in progress
        self.before_epoch = None  # untimed hook before each epoch; returns its seconds
        self._untimed = 0.0       # seconds of that hook in the call in progress

    def epoch_timer(self, train_epoch):
        pending = self._pending

        def timed(*args, **kwargs):
            if self.before_epoch is not None:
                self._untimed += self.before_epoch()
            t0 = time.perf_counter()
            result = train_epoch(*args, **kwargs)
            pending.append((args[3], time.perf_counter() - t0, len(args[1])))
            return result
        return timed

    def call(self):
        """Run and check one call; its wall seconds, or None if it failed."""
        self.attempted += 1
        out_dir = os.path.join(self.work, f"call-{self.attempted}")
        self._pending.clear()
        self._untimed = 0.0
        try:
            t0 = time.perf_counter()
            run_dirs = workloads.call(self.workload, self.seed, self.config, out_dir)
            wall = time.perf_counter() - t0 - self._untimed
            problems, final_map = workloads.check(self.workload, self.seed, self.config,
                                                  run_dirs, self.reference)
            if self.reference is None:
                self.reference = workloads.snapshot(run_dirs)
        except Exception:
            traceback.print_exc()
            problems = ["the call raised"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return None
        self.maps.append(final_map)
        self.epochs.extend(self._pending)
        return wall


def probe_setup(workload, seed, work) -> float:
    """Seconds from starting a fresh process to its first epoch."""
    probe_dir = tempfile.mkdtemp(prefix="probe-", dir=work)
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
           "--workload", workload, "--seed", str(seed), "--dir", probe_dir]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=env.ROOT)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "first_epoch_monotonic":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(lines[-1]) - t0


def epoch_metrics(epochs) -> dict:
    """Epoch-level metrics from (freeze, seconds, samples) records.

    epoch_s.* is the mean time per epoch of that kind: what a TimeModel
    rate is, and what adds up to a run's training time. On a host whose
    speed switches between states, it also spreads less from run to run
    than the median, which snaps to one state. The summary keeps the
    median, percentile and n of the single epochs.
    """
    m = {}
    for freeze, label in ((0, "unfrozen"), (1, "frozen")):
        seconds = [s for f, s, _ in epochs if f == freeze]
        m[f"epoch_s.{label}"] = _metric(statistics.fmean(seconds) if seconds else 0.0, "s",
                                        summarize(seconds))
    total = sum(s for _, s, _ in epochs)
    m["train_samples_per_s"] = _metric(sum(n for _, _, n in epochs) / total, "samples/s",
                                       {"n": len(epochs)})
    unfrozen, frozen = m["epoch_s.unfrozen"], m["epoch_s.frozen"]
    share = frozen["value"] / unfrozen["value"] if frozen["value"] and unfrozen["value"] else 0.0
    m["cost.frozen_share.measured"] = _metric(share, "1", {"n": frozen["summary"]["n"]})
    return m


def run_untraced(session, args, work) -> tuple:
    # One probe is due after each SETUP_PROBES-th part of the run, so the
    # probes sample set-up across the whole run, not in one host state.
    setup = []
    walls = []
    start = time.perf_counter()

    def probe_when_due():
        due = len(setup) * args.seconds / SETUP_PROBES
        if len(setup) >= SETUP_PROBES or time.perf_counter() - start < due:
            return 0.0
        t0 = time.perf_counter()
        setup.append(probe_setup(args.workload, args.seed, work))
        return time.perf_counter() - t0

    session.before_epoch = probe_when_due
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with tracer.patched([(experiment, "train_epoch", session.epoch_timer(experiment.train_epoch))]):
        while session.attempted < MIN_UNTRACED_CALLS or time.perf_counter() - start < args.seconds:
            wall = session.call()
            if wall is not None:
                walls.append(wall)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args.workload, args.seed, work))
    if not walls:
        raise RuntimeError("every workload call failed")
    m = {"setup_s": median_metric(setup, "s"), "wall_s": median_metric(walls, "s")}
    m.update(epoch_metrics(session.epochs))
    m["final_map50"] = _metric(statistics.fmean(session.maps), "1", {"n": len(session.maps)})
    for name, value in workloads.cost_shares(session.config).items():
        m[name] = _metric(value, "1")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["peak_rss_mb"] = _metric(peak_mb, "MB")
    m["rss_growth_mb"] = _metric(peak_mb - rss_before_mb, "MB")
    m["failed_share"] = _metric(session.failed / session.attempted, "1", {"n": session.attempted})
    samples = {"setup_s": setup, "wall_s": walls, "epochs": session.epochs}
    return m, samples


def run_traced(session, args) -> tuple:
    micro_samples = micro.measure(args.seed)  # also warms the process before the reference call
    untraced = session.call()
    if untraced is None:
        raise RuntimeError("the untraced reference call failed")
    tr = tracer.Tracer()
    walls = []
    with tr.installed():
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            tr.run_id += 1
            wall = session.call()
            if wall is None:
                break
            walls.append(wall)
    if not walls:
        raise RuntimeError("the traced call failed")
    m = tracer.layer_metrics(tr.spans, workloads.GRID_SWITCH)
    for name, value in workloads.cost_shares(session.config).items():
        m[name] = _metric(value, "1")
    m["cost.frozen_share.measured"] = epoch_metrics(tracer.epoch_seconds(tr.spans))["cost.frozen_share.measured"]
    m["trace.overhead_share"] = _metric(statistics.median(walls) / untraced - 1.0, "1", {"n": len(walls)})
    m["evaluation.final_map50"] = _metric(statistics.fmean(session.maps), "1", {"n": len(session.maps)})
    for name, samples in micro_samples.items():
        m["micro." + name] = median_metric(samples, "us")
    spans_path = os.path.join(env.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tr.write_csv(spans_path)
    return m, tracer.coverage(tr.spans), spans_path


def print_report(args, facts, metrics, session, extra_lines) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={session.attempted} failed={session.failed} (closed loop, 1 client)")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, metric in metrics.items():
        print(format_metric(name, metric["unit"], metric["value"], metric["summary"]))
    for line in extra_lines:
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one freezelab benchmark workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(env.OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=env.OUT_DIR)
    try:
        config = workloads.write_config(args.workload, args.seed, os.path.join(work, "config.json"))
        session = Session(args.workload, args.seed, config, work)
        cpu_before = env.cpu_times()
        extra = []
        samples = None
        if args.trace:
            metrics, cover, spans_path = run_traced(session, args)
            extra.append(f"spans: {spans_path}")
            for name, seconds, share in cover:
                extra.append(f"coverage: {name} {seconds:.3f} s, direct child spans cover {share:.1%}")
        else:
            metrics, samples = run_untraced(session, args, work)
        facts = env.facts()
        facts.update(env.cpu_shares(cpu_before, env.cpu_times()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    emitted = END_TO_END if not args.trace else [n for n in metrics if n not in END_TO_END]
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in emitted},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "result": result, "all_metrics": metrics,
              "samples": samples}
    detail_path = os.path.join(env.OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print_report(args, facts, metrics, session, extra + [f"detail: {detail_path}"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
