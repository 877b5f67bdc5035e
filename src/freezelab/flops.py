"""Exact training-cost accounting and the epoch-time estimator.

All FLOP counts are Python integers (unbounded), never floats, so totals,
differences, and ratio checks are exact at any scale. Counting convention,
applied uniformly:

* one multiply-add = 2 FLOPs;
* dense layer, per sample: 2*in*out + out (the +out is the bias adds);
* conv2d, per sample: (2*in_ch*kh*kw)*out_ch*h_out*w_out + out_ch*h_out*w_out;
* relu and flatten: 1 FLOP per output element;
* maxpool2d: kernel*kernel - 1 comparisons per output element.

A backward pass over a trained layer is charged at exactly twice its
forward cost. A frozen backbone is charged forward cost only: the forward
pass still runs every epoch, while its backward cost is zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .schedule import ScheduleSpec, phase_freeze_signal, BACKBONE_UNFROZEN

__all__ = [
    "GROUPS",
    "LayerFlopsSpec",
    "EpochFlopsRecord",
    "FlopsLedger",
    "TimeModel",
    "layer_forward_flops",
    "delta_flops",
    "estimate_training_time",
    "read_csv_rows",
    "write_ledger_csv",
    "read_ledger_csv",
]

GROUPS = ("backbone", "neck", "head")

BACKWARD_FORWARD_RATIO = 2  # backward cost assumed twice the forward cost


@dataclass(frozen=True)
class LayerFlopsSpec:
    layer_id: int
    group: str
    forward_flops_per_sample: int

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        if self.forward_flops_per_sample < 0:
            raise ValueError("forward_flops_per_sample must be >= 0")


def layer_forward_flops(layer, input_shape: Sequence[int]) -> int:
    """Exact forward FLOPs of one layer for a single sample.

    `layer` is a model.Layer and `input_shape` the per-sample input shape,
    without the batch axis. The cost is priced per output element of
    `layer.output_shape(input_shape)`, which also rejects an input the
    layer cannot consume (ShapeChainError, a ValueError).
    """
    out = math.prod(layer.output_shape(input_shape))
    if layer.kind == "dense":
        return (2 * layer.in_features + 1) * out
    if layer.kind == "conv2d":
        return (2 * layer.in_channels * layer.kernel * layer.kernel + 1) * out
    if layer.kind == "maxpool2d":
        return (layer.kernel * layer.kernel - 1) * out
    return out  # relu, flatten


@dataclass(frozen=True)
class EpochFlopsRecord:
    epoch: int
    frozen: int  # freeze signal actually applied, 0 or 1
    n_samples: int
    forward: dict  # group -> int
    backward: dict  # group -> int

    def total(self) -> int:
        return sum(self.forward.values()) + sum(self.backward.values())


def _signature(model: Iterable[LayerFlopsSpec]) -> tuple:
    return tuple((s.layer_id, s.group, s.forward_flops_per_sample) for s in model)


class FlopsLedger:
    """Per-epoch, per-group FLOP records for one training run.

    The model signature (per-layer forward cost and group) is fixed at
    construction so that two ledgers can be compared only when they
    describe the same model.
    """

    def __init__(self, model: Optional[Iterable[LayerFlopsSpec]] = None):
        self.records: list[EpochFlopsRecord] = []
        self._epochs: set[int] = set()
        self.model_signature = None if model is None else _signature(model)

    def record_epoch(self, epoch: int, freeze: int, model: Sequence[LayerFlopsSpec], n_samples: int) -> None:
        """Charge one epoch: every group pays forward cost for N samples;
        neck and head always pay backward; the backbone pays backward only
        when the epoch is unfrozen."""
        if epoch in self._epochs:
            raise ValueError(f"epoch {epoch} already recorded")
        if freeze not in (0, 1):
            raise ValueError(f"freeze signal must be 0 or 1, got {freeze!r}")
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        signature = _signature(model)
        if self.model_signature is None:
            self.model_signature = signature
        elif signature != self.model_signature:
            raise ValueError("model spec does not match the one this ledger was built for")

        fwd = {g: 0 for g in GROUPS}
        bwd = {g: 0 for g in GROUPS}
        for spec in model:
            per_epoch = n_samples * spec.forward_flops_per_sample
            fwd[spec.group] += per_epoch
            if spec.group != "backbone" or freeze == BACKBONE_UNFROZEN:
                bwd[spec.group] += BACKWARD_FORWARD_RATIO * per_epoch
        self.records.append(EpochFlopsRecord(epoch, freeze, n_samples, fwd, bwd))
        self._epochs.add(epoch)

    def total_flops(self) -> int:
        return sum(r.total() for r in self.records)

    def cumulative_totals(self) -> list[int]:
        out, running = [], 0
        for r in self.records:
            running += r.total()
            out.append(running)
        return out

    def _comparison_key(self):
        # Neck and head are aggregated because the CSV export only keeps
        # their sum; a ledger read back from disk must still compare equal.
        ordered = sorted(self.records, key=lambda r: r.epoch)
        return tuple(
            (r.epoch, r.n_samples, r.forward["backbone"], r.forward["neck"] + r.forward["head"])
            for r in ordered
        )


def delta_flops(candidate: FlopsLedger, baseline: FlopsLedger) -> int:
    """total(candidate) - total(baseline); negative means savings.

    Both ledgers must describe the same run shape: identical epochs,
    per-epoch sample counts, and per-epoch forward costs (freeze flags are
    exactly what is allowed to differ).
    """
    if candidate._comparison_key() != baseline._comparison_key():
        raise ValueError("ledgers describe different runs (model, epochs, or sample counts differ)")
    if candidate.model_signature is not None and baseline.model_signature is not None:
        if candidate.model_signature != baseline.model_signature:
            raise ValueError("ledgers describe different models")
    return candidate.total_flops() - baseline.total_flops()


@dataclass(frozen=True)
class TimeModel:
    """Measured minutes per epoch with the backbone trained vs frozen."""

    minutes_unfrozen: float = 23.0
    minutes_frozen: float = 16.0

    def __post_init__(self):
        if self.minutes_unfrozen <= 0 or self.minutes_frozen <= 0:
            raise ValueError("epoch times must be > 0")
        if self.minutes_frozen > self.minutes_unfrozen:
            raise ValueError("a frozen epoch cannot be slower than an unfrozen one")


def estimate_training_time(tm: TimeModel, spec: ScheduleSpec, total_epochs: int) -> float:
    """Total training minutes: each epoch costs the frozen or unfrozen
    per-epoch time according to the schedule."""
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    minutes = 0.0
    for epoch in range(total_epochs):
        if phase_freeze_signal(epoch, spec) == BACKBONE_UNFROZEN:
            minutes += tm.minutes_unfrozen
        else:
            minutes += tm.minutes_frozen
    return minutes


LEDGER_COLUMNS = ("epoch", "frozen", "n_samples", "fwd_backbone", "bwd_backbone", "fwd_rest", "bwd_rest", "cum_total")


def write_ledger_csv(ledger: FlopsLedger, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_COLUMNS)
        for r, running in zip(ledger.records, ledger.cumulative_totals()):
            writer.writerow([r.epoch, r.frozen, r.n_samples, r.forward["backbone"], r.backward["backbone"],
                             r.forward["neck"] + r.forward["head"], r.backward["neck"] + r.backward["head"],
                             running])


def read_ledger_csv(path) -> FlopsLedger:
    """Rebuild a ledger from its CSV export.

    The neck/head split is not recoverable from the file (they are exported
    as a combined "rest" column), so the loaded records carry the combined
    value under "head". Totals and run-shape comparisons are unaffected.
    Every row must carry a 0/1 freeze flag, a new epoch, and the running
    total of the rows so far in `cum_total`.
    """
    ledger = FlopsLedger()
    running = 0

    def add_row(row):
        nonlocal running
        epoch, frozen, n, fwd_backbone, bwd_backbone, fwd_rest, bwd_rest, cum_total = map(int, row)
        if frozen not in (0, 1):
            raise ValueError(f"frozen must be 0 or 1, got {frozen}")
        if epoch in ledger._epochs:
            raise ValueError(f"duplicate epoch {epoch}")
        fwd = {"backbone": fwd_backbone, "neck": 0, "head": fwd_rest}
        bwd = {"backbone": bwd_backbone, "neck": 0, "head": bwd_rest}
        record = EpochFlopsRecord(epoch, frozen, n, fwd, bwd)
        running += record.total()
        if cum_total != running:
            raise ValueError(f"cum_total {cum_total} differs from the running row sum {running}")
        ledger.records.append(record)
        ledger._epochs.add(epoch)

    read_csv_rows(path, LEDGER_COLUMNS, add_row)
    return ledger


def read_csv_rows(path, columns: Sequence[str], convert: Callable[[list], object]) -> list:
    """`convert(row)` for every data row of a CSV file headed by `columns`.

    An empty file, a foreign header, a row of the wrong width, or a row
    that `convert` rejects with a ValueError all raise one ValueError that
    names the file (and the line, for row faults).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty; expected the header {','.join(columns)}")
        if tuple(header) != tuple(columns):
            raise ValueError(f"unexpected header in {path}: {header}")
        out = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(columns):
                raise ValueError(f"{where}: expected {len(columns)} fields, got {len(row)}")
            try:
                out.append(convert(row))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return out
