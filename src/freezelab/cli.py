"""Command-line front end: run one schedule, rebuild a report, or sweep a
period grid.

    freezelab run    --config cfg.json [--baseline dir] [--out dir]
    freezelab report --run dir --baseline dir
    freezelab grid   --config cfg.json --rhos 1,2,5,10,inf [--out dir]
                     [--switch 4] [--seeds 0]

Every command exits 0 on success and nonzero with a one-line diagnostic
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Callable

from .experiment import (
    ExperimentConfig,
    load_config,
    plan_ledger,
    read_baseline,
    rebuild_summary,
    run_experiment,
    run_experiments,
    save_config,
    write_table,
)
from .schedule import ScheduleSpec, format_rho, parse_rho

GRID_SUMMARY_COLUMNS = ("seed", "rho", "final_map50", "total_flops",
                        "delta_flops_vs_rho1", "estimated_minutes", "delta_map50_vs_rho1")
DELTA_MAP_COLUMNS = ("rho", "n_seeds", "delta_map50_mean", "delta_map50_std", "formatted")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if cfg.output_dir is None:
        raise ValueError("config has no output_dir and --out was not given")
    baseline = read_baseline(args.baseline, plan_ledger(cfg), cfg.output_dir) if args.baseline else None
    summary = run_experiment(cfg, baseline_ledger=baseline).summary
    print(f"run complete: {cfg.output_dir}")
    print(f"  schedule           {summary['schedule']}")
    print(f"  final mAP@50       {summary['final_map50']:.4f}")
    print(f"  total FLOPs        {summary['total_flops']}")
    if summary["delta_flops_vs_baseline"] is not None:
        print(f"  delta vs baseline  {summary['delta_flops_vs_baseline']}")
    print(f"  estimated minutes  {summary['estimated_minutes']:.1f}")
    return 0


def _cmd_report(args) -> int:
    summary = rebuild_summary(args.run, args.baseline)
    print(f"summary rebuilt: {os.path.join(args.run, 'summary.csv')}")
    print(f"  delta FLOPs vs baseline  {summary['delta_flops_vs_baseline']}")
    return 0


def _parse_list(text: str, flag: str, parse: Callable[[str], object], takes: str) -> list:
    """The values of a comma list, repeats dropped in first-seen order. A
    part that `parse` rejects raises one ValueError naming `flag` and what
    it `takes`."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if part:
            try:
                values.append(parse(part))
            except ValueError:
                raise ValueError(f"{flag} takes {takes}, got {part!r}") from None
    if not values:
        raise ValueError(f"no values found in {flag} {text!r}")
    return list(dict.fromkeys(values))


def _cmd_grid(args) -> int:
    base = load_config(args.config)
    out_root = args.out if args.out is not None else base.output_dir
    if out_root is None:
        raise ValueError("config has no output_dir and --out was not given")
    rhos = _parse_list(args.rhos, "--rhos", parse_rho, "positive integers or inf")
    if 1 not in rhos:
        rhos.insert(0, 1)  # the full-training baseline anchors every delta
    rhos.sort()
    seeds = _parse_list(args.seeds, "--seeds", int, "integers")
    switch = args.switch
    if not (0 < switch < base.total_epochs):
        raise ValueError(f"--switch must fall inside (0, total_epochs={base.total_epochs}), got {switch}")

    labels = [format_rho(rho) for rho in rhos]
    rows = []
    for seed in seeds:
        # One walk per seed trains each shared freeze prefix once. rhos[0]
        # is the rho=1 baseline; its planned ledger fills every other
        # run's delta before any run finishes.
        cfgs = [
            replace(
                base,
                seed=seed,
                scene=replace(base.scene, seed=seed),
                schedule=ScheduleSpec([(switch, 1), (math.inf, rho)]),
                output_dir=os.path.join(out_root, f"seed_{seed}", f"rho_{label}"),
            )
            for rho, label in zip(rhos, labels)
        ]
        baseline_ledger = plan_ledger(cfgs[0])
        # output_dir -> summary; no finished run keeps its detector here
        finished = {result.config.output_dir: result.summary
                    for result in run_experiments([(cfg, None if rho == 1 else baseline_ledger)
                                                   for rho, cfg in zip(rhos, cfgs)])}
        baseline_map = finished[cfgs[0].output_dir]["final_map50"]
        for rho, label, cfg in zip(rhos, labels, cfgs):
            summary = finished[cfg.output_dir]
            delta_map = None if rho == 1 else summary["final_map50"] - baseline_map
            rows.append([seed, label, summary["final_map50"], summary["total_flops"],
                         summary["delta_flops_vs_baseline"], summary["estimated_minutes"], delta_map])
            print(f"rho={label} seed={seed}: mAP@50={summary['final_map50']:.4f} "
                  f"FLOPs={summary['total_flops']}")

    write_table(os.path.join(out_root, "grid_summary.csv"), GRID_SUMMARY_COLUMNS, rows)

    # Per-period change in mAP against the rho=1 baseline, aggregated over
    # seeds from the grid rows' last cells (delta_map50_vs_rho1) in seed
    # order: mean and sample standard deviation, which one seed lacks.
    delta_rows = []
    for label in labels[1:]:
        values = [row[-1] for row in rows if row[1] == label]
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            std, formatted = None, f"{mean:+.4f} (n=1)"
        else:
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
            formatted = f"{mean:+.4f} +/- {std:.4f} (n={n})"
        delta_rows.append([label, n, mean, std, formatted])
        print(f"delta mAP@50 (rho={label} vs rho=1): {formatted}")
    write_table(os.path.join(out_root, "delta_map.csv"), DELTA_MAP_COLUMNS, delta_rows)

    print(f"grid complete: {out_root}")
    return 0


def _cmd_init_config(args) -> int:
    save_config(ExperimentConfig(), args.path)
    print(f"wrote default config: {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freezelab",
                                     description="train tiny detectors under backbone-freezing schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one config and write its run directory")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--baseline", help="completed baseline run directory for the summary delta column")
    p_run.add_argument("--out", help="output directory (overrides config output_dir)")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="rebuild a run's summary against a baseline run")
    p_rep.add_argument("--run", required=True, help="completed run directory")
    p_rep.add_argument("--baseline", required=True, help="completed baseline run directory")
    p_rep.set_defaults(fn=_cmd_report)

    p_grid = sub.add_parser("grid", help="sweep freezing periods against the rho=1 baseline")
    p_grid.add_argument("--config", required=True, help="base experiment config (JSON)")
    p_grid.add_argument("--rhos", required=True, help="comma list of periods, e.g. 1,2,5,10,inf")
    p_grid.add_argument("--out", help="output root (overrides config output_dir)")
    p_grid.add_argument("--switch", type=int, default=4,
                        help="epoch at which the schedule switches from rho=1 to the grid period")
    p_grid.add_argument("--seeds", default="0", help="comma list of seeds to aggregate over")
    p_grid.set_defaults(fn=_cmd_grid)

    p_init = sub.add_parser("init-config", help="write the default desk-scale config")
    p_init.add_argument("path", help="where to write the config JSON")
    p_init.set_defaults(fn=_cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface one diagnostic line, fail nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
