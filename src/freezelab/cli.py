"""Command-line front end: run one schedule, rebuild a report, or sweep a
period grid.

    freezelab run    --config cfg.json [--baseline ledger.csv] [--out dir]
    freezelab report --run dir --baseline dir
    freezelab grid   --config cfg.json --rhos 1,2,5,10,inf [--out dir]
                     [--switch 4] [--seeds 0]

Every command exits 0 on success and nonzero with a one-line diagnostic
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

from .experiment import (
    default_config,
    load_config,
    read_summary_csv,
    rebuild_summary,
    run_experiment,
    save_config,
)
from .flops import read_ledger_csv
from .schedule import ScheduleSpec, format_rho, parse_rho

GRID_SUMMARY_COLUMNS = ("seed", "rho", "final_map50", "total_flops",
                        "delta_flops_vs_rho1", "estimated_minutes", "delta_map50_vs_rho1")
DELTA_MAP_COLUMNS = ("rho", "n_seeds", "delta_map50_mean", "delta_map50_std", "formatted")


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if cfg.output_dir is None:
        raise SystemExit("error: config has no output_dir and --out was not given")
    baseline = read_ledger_csv(args.baseline) if args.baseline else None
    result = run_experiment(cfg, baseline_ledger=baseline)
    summary = read_summary_csv(os.path.join(cfg.output_dir, "summary.csv"))
    print(f"run complete: {cfg.output_dir}")
    print(f"  schedule           {summary['schedule']}")
    print(f"  final mAP@50       {summary['final_map50']:.4f}")
    print(f"  total FLOPs        {summary['total_flops']}")
    if summary["delta_flops_vs_baseline"] is not None:
        print(f"  delta vs baseline  {summary['delta_flops_vs_baseline']}")
    print(f"  estimated minutes  {summary['estimated_minutes']:.1f}")
    return 0


def _cmd_report(args) -> int:
    rebuild_summary(args.run, args.baseline)
    summary = read_summary_csv(os.path.join(args.run, "summary.csv"))
    print(f"summary rebuilt: {os.path.join(args.run, 'summary.csv')}")
    print(f"  delta FLOPs vs baseline  {summary['delta_flops_vs_baseline']}")
    return 0


def _parse_rhos(text: str) -> list:
    rhos = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        rhos.append(parse_rho(part))
    if not rhos:
        raise ValueError(f"no periods found in --rhos {text!r}")
    return list(dict.fromkeys(rhos))  # drop repeats, keep first-seen order


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(p) for p in text.split(",") if p.strip()]
    if not seeds:
        raise ValueError(f"no seeds found in --seeds {text!r}")
    return seeds


def _cmd_grid(args) -> int:
    base = load_config(args.config)
    out_root = args.out if args.out is not None else base.output_dir
    if out_root is None:
        raise SystemExit("error: config has no output_dir and --out was not given")
    rhos = _parse_rhos(args.rhos)
    if 1 not in rhos:
        rhos.insert(0, 1)  # the full-training baseline anchors every delta
    rhos.sort(key=lambda r: math.inf if r == math.inf else r)
    seeds = _parse_seeds(args.seeds)
    switch = args.switch
    if not (0 < switch < base.total_epochs):
        raise SystemExit(
            f"error: --switch must fall inside (0, total_epochs={base.total_epochs}), got {switch}"
        )

    rows = []
    per_rho_delta_map: dict = {rho: [] for rho in rhos if rho != 1}
    for seed in seeds:
        baseline_result = None
        for rho in rhos:
            label = format_rho(rho)
            run_dir = os.path.join(out_root, f"seed_{seed}", f"rho_{label}")
            cfg = replace(
                base,
                seed=seed,
                scene=replace(base.scene, seed=seed),
                schedule=ScheduleSpec([(switch, 1), (math.inf, rho)]),
                output_dir=run_dir,
            )
            baseline_ledger = baseline_result.ledger if baseline_result is not None else None
            result = run_experiment(cfg, baseline_ledger=baseline_ledger)
            if rho == 1:
                baseline_result = result
            summary = read_summary_csv(os.path.join(run_dir, "summary.csv"))
            delta_map = None
            if rho != 1:
                delta_map = result.report.map50 - baseline_result.report.map50
                per_rho_delta_map[rho].append(delta_map)
            rows.append((seed, label, summary["final_map50"], summary["total_flops"],
                         summary["delta_flops_vs_baseline"], summary["estimated_minutes"], delta_map))
            print(f"rho={label} seed={seed}: mAP@50={summary['final_map50']:.4f} "
                  f"FLOPs={summary['total_flops']}")

    with open(os.path.join(out_root, "grid_summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GRID_SUMMARY_COLUMNS)
        for seed, label, fmap, flops_, dflops, minutes, dmap in rows:
            writer.writerow([
                seed, label, _fmt_float(fmap), flops_,
                "NA" if dflops is None else dflops,
                _fmt_float(minutes),
                "NA" if dmap is None else _fmt_float(dmap),
            ])

    # Per-period change in mAP against the rho=1 baseline, aggregated over
    # seeds: mean and population standard deviation.
    with open(os.path.join(out_root, "delta_map.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DELTA_MAP_COLUMNS)
        for rho in rhos:
            if rho == 1:
                continue
            values = per_rho_delta_map[rho]
            n = len(values)
            mean = sum(values) / n
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
            label = format_rho(rho)
            formatted = f"{mean:+.4f} +/- {std:.4f}"
            writer.writerow([label, n, _fmt_float(mean), _fmt_float(std), formatted])
            print(f"delta mAP@50 (rho={label} vs rho=1): {formatted}")

    print(f"grid complete: {out_root}")
    return 0


def _cmd_init_config(args) -> int:
    save_config(default_config(), args.path)
    print(f"wrote default config: {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freezelab",
                                     description="train tiny detectors under backbone-freezing schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one config and write its run directory")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--baseline", help="baseline ledger.csv for the summary delta column")
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
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise
    except Exception as exc:  # surface one diagnostic line, fail nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
