"""The benchmark's three workloads and the correctness gate of each call.

Every workload starts from the default config that `freezelab
init-config` writes (16 epochs, 256 train and 64 val scenes, batch 8)
and drives the unchanged package through its public entry points:
`experiment.run_experiment` for one run, `cli.main(["grid", ...])` for a
period sweep. The workload seed becomes the config seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
from dataclasses import replace

from freezelab import cli, experiment, flops, model

WORKLOADS = ("full", "frozen", "grid")

# Schedules as init-config JSON phases: [end_epoch, period].
SCHEDULES = {
    "full": [["inf", "1"]],                  # 16 unfrozen epochs
    "frozen": [[4, "1"], ["inf", "inf"]],    # 4 unfrozen, then 12 frozen
}
GRID_RHOS = "1,2,5,10,inf"
GRID_SWITCH = 4
GRID_LABELS = ("rho_1", "rho_2", "rho_5", "rho_10", "rho_inf")

# Exact ledger totals of the default config. They do not depend on the
# seed, so any drift is a ledger change, not noise.
EXPECTED_TOTAL_FLOPS = {
    "full": {"run": 11010736128},
    "frozen": {"run": 6064128000},
    "grid": {"rho_1": 11010736128, "rho_2": 8537432064, "rho_5": 7300780032,
             "rho_10": 6476345344, "rho_inf": 6064128000},
}

# Files that must be byte-identical across repeats of one seed.
STABLE_FILES = ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")


def write_config(workload: str, seed: int, path: str) -> str:
    """Write the init-config default with the workload's seed and
    schedule to `path`."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["init-config", path])
    if rc != 0:
        raise RuntimeError(f"freezelab init-config exited with {rc}")
    with open(path) as fh:
        raw = json.load(fh)
    raw["seed"] = seed
    raw["scene"]["seed"] = seed
    if workload in SCHEDULES:
        raw["schedule"] = SCHEDULES[workload]
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
    return path


def call(workload: str, seed: int, config_path: str, out_dir: str) -> dict:
    """One workload call, the unit that wall_s times. Returns the run
    directories it wrote, by label."""
    if workload == "grid":
        argv = ["grid", "--config", config_path, "--rhos", GRID_RHOS,
                "--switch", str(GRID_SWITCH), "--seeds", str(seed), "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"freezelab grid exited with {rc}")
        return {label: os.path.join(out_dir, f"seed_{seed}", label) for label in GRID_LABELS}
    cfg = replace(experiment.load_config(config_path), output_dir=out_dir)
    experiment.run_experiment(cfg)
    return {"run": out_dir}


def snapshot(run_dirs: dict) -> dict:
    """Bytes of the stable files of every run directory."""
    out = {}
    for label, run_dir in run_dirs.items():
        for name in STABLE_FILES:
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[(label, name)] = fh.read()
    return out


def check(workload: str, seed: int, config_path: str, run_dirs: dict, reference) -> tuple[list, float]:
    """The correctness gate of one call.

    Checks the exact ledger totals, that the stable files equal those of
    `reference` (a snapshot() of an earlier call of the same seed, or
    None for the first call), and that model.restore_checkpoint accepts
    every written checkpoint. Returns (problems, final mAP@50 averaged
    over the call's runs).
    """
    problems = []
    arch = experiment.load_config(config_path).arch
    maps = []
    for label, expected in EXPECTED_TOTAL_FLOPS[workload].items():
        run_dir = run_dirs[label]
        summary = experiment.read_summary_csv(os.path.join(run_dir, "summary.csv"))
        maps.append(summary["final_map50"])
        if summary["total_flops"] != expected:
            problems.append(f"{label}: total_flops {summary['total_flops']} != {expected}")
        try:
            model.restore_checkpoint(model.build_detector(arch, init_seed=seed),
                                     os.path.join(run_dir, "checkpoint.bin"))
        except ValueError as exc:
            problems.append(f"{label}: checkpoint rejected: {exc}")
    if reference is not None:
        for (label, name), data in snapshot(run_dirs).items():
            if reference.get((label, name)) != data:
                problems.append(f"{label}/{name} differs from the first call of seed {seed}")
    return problems, statistics.fmean(maps)


def cost_shares(config_path: str) -> dict:
    """The two configured cost views of a frozen epoch relative to an
    unfrozen one: ledger FLOPs and TimeModel minutes."""
    cfg = experiment.load_config(config_path)
    specs = model.flops_specs(model.build_detector(cfg.arch, init_seed=cfg.seed))
    ledger = flops.FlopsLedger(specs)
    ledger.record_epoch(0, 0, specs, cfg.n_train)
    ledger.record_epoch(1, 1, specs, cfg.n_train)
    unfrozen, frozen = ledger.records
    return {
        "cost.frozen_share.ledger": frozen.total() / unfrozen.total(),
        "cost.frozen_share.time_model": cfg.time_model.minutes_frozen / cfg.time_model.minutes_unfrozen,
    }
