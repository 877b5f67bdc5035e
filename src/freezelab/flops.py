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

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .schedule import ScheduleSpec, freeze_signals, BACKBONE_UNFROZEN

__all__ = [
    "GROUPS",
    "LayerFlopsSpec",
    "EpochFlopsRecord",
    "FlopsLedger",
    "TimeModel",
    "layer_forward_flops",
    "delta_flops",
    "estimate_training_time",
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
    """One epoch's charge: one ledger.csv row without its running total.
    "rest" is the neck and head together."""

    epoch: int
    frozen: int  # freeze signal actually applied, 0 or 1
    n_samples: int
    fwd_backbone: int
    bwd_backbone: int
    fwd_rest: int
    bwd_rest: int

    def total(self) -> int:
        return self.fwd_backbone + self.bwd_backbone + self.fwd_rest + self.bwd_rest


def _signature(model: Iterable[LayerFlopsSpec]) -> tuple:
    return tuple((s.layer_id, s.group, s.forward_flops_per_sample) for s in model)


class FlopsLedger:
    """Per-epoch FLOP records, backbone and rest, for one training run.

    The model signature (per-layer forward cost and group) is fixed at
    construction so that two ledgers can be compared only when they
    describe the same model.
    """

    def __init__(self, model: Iterable[LayerFlopsSpec]):
        self.records: list[EpochFlopsRecord] = []
        self.model_signature = _signature(model)

    def record_epoch(self, epoch: int, freeze: int, model: Sequence[LayerFlopsSpec], n_samples: int) -> None:
        """Charge one epoch: every group pays forward cost for N samples;
        neck and head always pay backward; the backbone pays backward only
        when the epoch is unfrozen. The epoch must be new, the freeze flag
        0 or 1 and the sample count >= 0, or a ValueError."""
        if _signature(model) != self.model_signature:
            raise ValueError("model spec does not match the one this ledger was built for")
        if any(r.epoch == epoch for r in self.records):
            raise ValueError(f"epoch {epoch} already recorded")
        if freeze not in (0, 1):
            raise ValueError(f"frozen must be 0 or 1, got {freeze!r}")
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        backbone = n_samples * sum(s.forward_flops_per_sample for s in model if s.group == "backbone")
        rest = n_samples * sum(s.forward_flops_per_sample for s in model if s.group != "backbone")
        bwd_backbone = BACKWARD_FORWARD_RATIO * backbone if freeze == BACKBONE_UNFROZEN else 0
        self.records.append(EpochFlopsRecord(epoch, freeze, n_samples, backbone, bwd_backbone,
                                             rest, BACKWARD_FORWARD_RATIO * rest))

    def total_flops(self) -> int:
        return sum(r.total() for r in self.records)

    def cumulative_totals(self) -> list[int]:
        out, running = [], 0
        for r in self.records:
            running += r.total()
            out.append(running)
        return out

    def _comparison_key(self):
        ordered = sorted(self.records, key=lambda r: r.epoch)
        return tuple((r.epoch, r.n_samples, r.fwd_backbone, r.fwd_rest) for r in ordered)


def delta_flops(candidate: FlopsLedger, baseline: FlopsLedger) -> int:
    """total(candidate) - total(baseline); negative means savings.

    Both ledgers must describe the same run shape: identical epochs,
    per-epoch sample counts, and per-epoch forward costs (freeze flags are
    exactly what is allowed to differ).
    """
    if candidate._comparison_key() != baseline._comparison_key():
        raise ValueError("ledgers describe different runs (model, epochs, or sample counts differ)")
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
    for freeze in freeze_signals(spec, total_epochs):
        minutes += tm.minutes_unfrozen if freeze == BACKBONE_UNFROZEN else tm.minutes_frozen
    return minutes
