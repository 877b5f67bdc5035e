"""Config-driven training runs: one schedule in, one directory of CSVs out.

A run is a pure function of its config. Scenes, parameter init, and the
per-epoch batch order all come from counter-based streams keyed by the
config seed, so rerunning a config reproduces every output file byte for
byte. The per-epoch freeze signal is the only thing a schedule changes;
frozen epochs skip the backbone's backward cost in the ledger and leave
its parameters untouched.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tape, Tensor, backward
from .data import Scene, SceneConfig, generate_dataset
from .evaluation import EvalReport, map50
from .flops import (
    FlopsLedger,
    TimeModel,
    delta_flops,
    estimate_training_time,
    read_csv_rows,
    read_ledger_csv,
    write_ledger_csv,
)
from .model import (
    Detector,
    build_detector,
    decode_predictions,
    default_desk_arch,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
    save_checkpoint,
)
from .optim import OptimState, SgdConfig, clip_gradients, sgd_step
from .rng import STREAM_BATCH_SHUFFLE, generator
from .schedule import (
    LrConfig,
    ScheduleSpec,
    format_rho,
    lr_at,
    parse_rho,
    phase_freeze_signal,
)

__all__ = [
    "CONFIG_VERSION",
    "ExperimentConfig",
    "EpochRecord",
    "RunResult",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
    "train_epoch",
    "evaluate_detector",
    "run_experiment",
    "emit_report",
    "read_curves_csv",
    "CURVES_COLUMNS",
    "SUMMARY_COLUMNS",
]

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    total_epochs: int = 16
    eval_every: int = 4
    n_train: int = 256
    n_val: int = 64
    arch: dict = field(default_factory=default_desk_arch)
    scene: SceneConfig = field(default_factory=SceneConfig)
    lr: LrConfig = field(default_factory=LrConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    schedule: ScheduleSpec = field(default_factory=lambda: ScheduleSpec([(math.inf, 1)]))
    time_model: TimeModel = field(default_factory=TimeModel)
    output_dir: Optional[str] = None

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_val < 0:
            raise ValueError(f"n_val must be >= 0, got {self.n_val}")
        if self.scene.seed != self.seed:
            raise ValueError("scene seed must equal the experiment seed (one seed drives the whole run)")


def default_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults: 16 epochs over 256/64 scenes, short warmup.

    The published schedule constants (500-iteration warmup to a third of
    the base rate, decay by 1/4 after epoch 12) are the LrConfig defaults;
    a 16-epoch desk run is only 512 iterations, so this config shortens
    the warmup and raises the base rate to reach a trained detector in
    minutes. Pass overrides to change any field.
    """
    base = dict(
        lr=LrConfig(base_lr=0.05, warmup_iters=50, warmup_end_fraction=1.0 / 3.0,
                    decay_epoch=12, decay_factor=0.25),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------------
# config (de)serialization: one versioned JSON document


def _schedule_to_json(spec: ScheduleSpec) -> list:
    return [["inf" if end == math.inf else int(end), format_rho(rho)] for end, rho in spec.phases]


def _schedule_from_json(raw) -> ScheduleSpec:
    phases = []
    for item in raw:
        if len(item) != 2:
            raise ValueError(f"schedule phase must be [end_epoch, rho], got {item!r}")
        end_raw, rho_raw = item
        end = math.inf if end_raw == "inf" else int(end_raw)
        phases.append((end, parse_rho(rho_raw)))
    return ScheduleSpec(phases)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "seed": cfg.seed,
        "total_epochs": cfg.total_epochs,
        "eval_every": cfg.eval_every,
        "n_train": cfg.n_train,
        "n_val": cfg.n_val,
        "arch": cfg.arch,
        "scene": asdict(cfg.scene),
        "lr": asdict(cfg.lr),
        "sgd": asdict(cfg.sgd),
        "schedule": _schedule_to_json(cfg.schedule),
        "time_model": asdict(cfg.time_model),
        "output_dir": cfg.output_dir,
    }


def _build_section(cls, raw: dict, section: str):
    allowed = set(cls.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    return cls(**raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    version = raw.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version!r} (this build reads version {CONFIG_VERSION})")

    known = {"seed", "total_epochs", "eval_every", "n_train", "n_val", "arch",
             "scene", "lr", "sgd", "schedule", "time_model", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs = {}
    for key in ("seed", "total_epochs", "eval_every", "n_train", "n_val", "arch", "output_dir"):
        if key in raw:
            kwargs[key] = raw[key]
    seed = kwargs.get("seed", 0)
    scene_raw = dict(raw.get("scene", {}))
    scene_raw.setdefault("seed", seed)
    kwargs["scene"] = _build_section(SceneConfig, scene_raw, "scene")
    if "lr" in raw:
        kwargs["lr"] = _build_section(LrConfig, raw["lr"], "lr")
    if "sgd" in raw:
        kwargs["sgd"] = _build_section(SgdConfig, raw["sgd"], "sgd")
    if "schedule" in raw:
        kwargs["schedule"] = _schedule_from_json(raw["schedule"])
    if "time_model" in raw:
        kwargs["time_model"] = _build_section(TimeModel, raw["time_model"], "time_model")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    frozen: int
    mean_loss: float
    lr: float  # rate used by the epoch's last batch
    cum_flops: int
    val_map50: Optional[float] = None


@dataclass
class RunResult:
    records: list
    report: EvalReport
    ledger: FlopsLedger
    detector: Detector
    config: ExperimentConfig


def train_epoch(
    detector: Detector,
    scenes: Sequence[Scene],
    epoch: int,
    freeze: int,
    state: OptimState,
    ledger: FlopsLedger,
    *,
    lr_cfg: LrConfig,
    sgd_cfg: SgdConfig,
    seed: int,
    iteration_start: int,
) -> tuple[float, float, int]:
    """One pass over `scenes` in a per-epoch shuffled order.

    Per batch: forward under the freeze signal, loss, backward, global
    clip, SGD step at lr_at(iteration). Records the epoch in the ledger
    under the same freeze flag. Returns (mean of per-batch losses, last
    learning rate used, next global iteration index).
    """
    if not scenes:
        raise ValueError("cannot train on an empty scene list")
    order = generator(seed, STREAM_BATCH_SHUFFLE, epoch).permutation(len(scenes))
    params = dict(detector.parameters())
    key_of = detector.grad_key_table()
    image_size = detector.input_shape[1]

    iteration = iteration_start
    losses = []
    lr = None
    for lo in range(0, len(order), sgd_cfg.batch_size):
        chunk = [scenes[i] for i in order[lo : lo + sgd_cfg.batch_size]]
        batch = Tensor(np.stack([s.image.data for s in chunk]))
        targets = encode_targets(
            [s.ground_truths for s in chunk],
            detector.grid_size,
            detector.num_classes,
            image_size,
        )
        with Tape() as tape:
            pred = detector_forward(detector, batch, freeze)
            loss = detection_loss(pred, targets)
        grads_by_uid = backward(loss, tape)
        grads = {key_of[uid]: g for uid, g in grads_by_uid.items()}
        grads = clip_gradients(grads, sgd_cfg.clip_max_norm)
        lr = lr_at(iteration, epoch, lr_cfg)
        sgd_step(params, grads, state, lr, sgd_cfg)
        losses.append(loss.item())
        iteration += 1

    ledger.record_epoch(epoch, freeze, flops_specs(detector), len(scenes))
    return float(np.mean(losses)), lr, iteration


def evaluate_detector(detector: Detector, scenes: Sequence[Scene], batch_size: int) -> EvalReport:
    """mAP@50 of the detector over `scenes`. Runs outside any tape, so
    nothing is recorded and no FLOPs are charged."""
    detections = []
    ground_truths = []
    image_size = detector.input_shape[1]
    for lo in range(0, len(scenes), batch_size):
        chunk = scenes[lo : lo + batch_size]
        batch = Tensor(np.stack([s.image.data for s in chunk]))
        pred = detector_forward(detector, batch, freeze=0)
        detections.extend(decode_predictions(pred, [s.index for s in chunk], image_size))
        for s in chunk:
            ground_truths.extend(s.ground_truths)
    return map50(detections, ground_truths)


def run_experiment(cfg: ExperimentConfig, baseline_ledger: Optional[FlopsLedger] = None) -> RunResult:
    """Train one detector under one schedule and (optionally) write the
    run directory: config.json, curves.csv, ledger.csv, summary.csv,
    checkpoint.bin. A baseline ledger, when given, fills the summary's
    delta column."""
    train_scenes, val_scenes = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    ledger = FlopsLedger(flops_specs(detector))
    state = OptimState()

    records = []
    iteration = 0
    report = None
    for epoch in range(cfg.total_epochs):
        freeze = phase_freeze_signal(epoch, cfg.schedule)
        mean_loss, lr, iteration = train_epoch(
            detector, train_scenes, epoch, freeze, state, ledger,
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, iteration_start=iteration,
        )
        val_map = None
        is_last = epoch == cfg.total_epochs - 1
        if val_scenes and ((epoch + 1) % cfg.eval_every == 0 or is_last):
            report = evaluate_detector(detector, val_scenes, cfg.sgd.batch_size)
            val_map = report.map50
        records.append(EpochRecord(
            epoch=epoch,
            frozen=freeze,
            mean_loss=mean_loss,
            lr=lr,
            cum_flops=ledger.cumulative_totals()[-1],
            val_map50=val_map,
        ))
    if report is None:
        # n_val = 0: no evaluation ever ran
        report = EvalReport(map50=0.0, per_class_ap={}, n_detections=0, n_ground_truth=0)

    result = RunResult(records=records, report=report, ledger=ledger,
                       detector=detector, config=cfg)
    if cfg.output_dir is not None:
        write_run_dir(result, baseline_ledger=baseline_ledger)
    return result


# --------------------------------------------------------------------------
# reports

CURVES_COLUMNS = ("epoch", "frozen", "mean_loss", "lr", "cum_flops", "val_map50")
SUMMARY_COLUMNS = ("schedule", "total_epochs", "final_map50", "total_flops",
                   "delta_flops_vs_baseline", "estimated_minutes")
MISSING = "NA"


def _fmt(x) -> str:
    if x is None:
        return MISSING
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_curves_csv(records: Sequence[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVES_COLUMNS)
        for r in records:
            writer.writerow([r.epoch, r.frozen, _fmt(r.mean_loss), _fmt(r.lr),
                             r.cum_flops, _fmt(r.val_map50)])


def _curves_row(row) -> EpochRecord:
    return EpochRecord(
        epoch=int(row[0]),
        frozen=int(row[1]),
        mean_loss=float(row[2]),
        lr=float(row[3]),
        cum_flops=int(row[4]),
        val_map50=None if row[5] == MISSING else float(row[5]),
    )


def read_curves_csv(path) -> list[EpochRecord]:
    return read_csv_rows(path, CURVES_COLUMNS, _curves_row)


def emit_report(
    records: Sequence[EpochRecord],
    ledger: FlopsLedger,
    report: EvalReport,
    cfg: ExperimentConfig,
    out_dir,
    baseline_ledger: Optional[FlopsLedger] = None,
) -> None:
    """Write curves.csv, ledger.csv, summary.csv into out_dir, each one
    atomically.

    Emission is deterministic: the same inputs produce byte-identical
    files. Without a baseline ledger the delta column holds an explicit
    NA marker.
    """
    delta = None
    if baseline_ledger is not None:
        delta = delta_flops(ledger, baseline_ledger)
    minutes = estimate_training_time(cfg.time_model, cfg.schedule, cfg.total_epochs)
    row = [
        cfg.schedule.describe(),
        cfg.total_epochs,
        _fmt(report.map50),
        ledger.total_flops(),
        MISSING if delta is None else delta,
        _fmt(minutes),
    ]

    os.makedirs(out_dir, exist_ok=True)
    _write_atomically(os.path.join(out_dir, "curves.csv"), write_curves_csv, records)
    _write_atomically(os.path.join(out_dir, "ledger.csv"), write_ledger_csv, ledger)
    _write_atomically(os.path.join(out_dir, "summary.csv"), _write_summary_csv, row)


def _write_summary_csv(row, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow(row)


def _summary_row(row) -> dict:
    out = dict(zip(SUMMARY_COLUMNS, row))
    out["total_epochs"] = int(out["total_epochs"])
    out["final_map50"] = float(out["final_map50"])
    out["total_flops"] = int(out["total_flops"])
    out["delta_flops_vs_baseline"] = (
        None if out["delta_flops_vs_baseline"] == MISSING else int(out["delta_flops_vs_baseline"])
    )
    out["estimated_minutes"] = float(out["estimated_minutes"])
    return out


def read_summary_csv(path) -> dict:
    rows = read_csv_rows(path, SUMMARY_COLUMNS, _summary_row)
    if len(rows) != 1:
        raise ValueError(f"{path} holds {len(rows)} summary rows, expected 1")
    return rows[0]


def _write_atomically(path, write, *args) -> None:
    """Call write(*args, tmp) on a temp file beside `path`, then rename it
    into place, so `path` is always either its old or its new content."""
    tmp = f"{path}.tmp"
    try:
        write(*args, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_run_dir(result: RunResult, baseline_ledger: Optional[FlopsLedger] = None) -> None:
    """Write the run directory file by file, each one atomically.

    checkpoint.bin goes last (and a stale one is removed first), so its
    presence marks a completed run.
    """
    cfg = result.config
    out_dir = cfg.output_dir
    if out_dir is None:
        raise ValueError("config has no output_dir")
    os.makedirs(out_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, "checkpoint.bin")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    _write_atomically(os.path.join(out_dir, "config.json"), save_config, cfg)
    emit_report(result.records, result.ledger, result.report, cfg, out_dir,
                baseline_ledger=baseline_ledger)
    _write_atomically(checkpoint, save_checkpoint, result.detector)


def rebuild_summary(run_dir, baseline_dir) -> None:
    """Recompute run_dir/summary.csv with deltas against baseline_dir's
    ledger; both directories must hold completed runs, i.e. carry the
    checkpoint.bin that write_run_dir writes last."""
    for d in (run_dir, baseline_dir):
        if not os.path.exists(os.path.join(d, "checkpoint.bin")):
            raise ValueError(f"{d} is not a completed run directory: it has no checkpoint.bin")
    cfg = load_config(os.path.join(run_dir, "config.json"))
    records = read_curves_csv(os.path.join(run_dir, "curves.csv"))
    ledger = read_ledger_csv(os.path.join(run_dir, "ledger.csv"))
    baseline = read_ledger_csv(os.path.join(baseline_dir, "ledger.csv"))
    final_map = next((r.val_map50 for r in reversed(records) if r.val_map50 is not None), 0.0)
    report = EvalReport(map50=final_map, per_class_ap={}, n_detections=0, n_ground_truth=0)
    emit_report(records, ledger, report, cfg, run_dir, baseline_ledger=baseline)
