"""Freeze schedules, their text forms, and the learning-rate schedule.

The freeze signal convention: 0 allows backbone updates for the epoch,
1 freezes the backbone. Epochs are 0-indexed everywhere. The period value
`rho` is a positive integer or `math.inf`; infinity is a real sentinel,
never a large integer, so "always frozen" is exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

__all__ = [
    "BACKBONE_UNFROZEN",
    "BACKBONE_FROZEN",
    "Rho",
    "ScheduleSpec",
    "LrConfig",
    "phase_freeze_signal",
    "freeze_signals",
    "lr_at",
    "parse_rho",
    "format_rho",
]

BACKBONE_UNFROZEN = 0
BACKBONE_FROZEN = 1

Rho = Union[int, float]  # positive int, or math.inf


def _positive_or_inf(value, field: str) -> Rho:
    """`value` if it is a positive int or math.inf: the one check of a
    phase end or a period. A bool, a fraction, text or anything else
    raises rather than being truncated."""
    if value == math.inf or (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        return value
    raise ValueError(f"{field} must be a positive integer or inf, got {value!r}")


def _read_positive_or_inf(value, field: str) -> Rho:
    """A phase end or period from config or CLI text: 'inf', 'infinity'
    or ASCII digits (stripped, in any case) become numbers, then the one
    check applies to whatever was given."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity"):
            value = math.inf
        elif text.isascii() and text.isdigit():  # '²' is a digit that int() rejects
            value = int(text)
    return _positive_or_inf(value, field)


def parse_rho(text) -> Rho:
    """Parse a rho value from config/CLI text; 'inf' means infinity."""
    return _read_positive_or_inf(text, "rho")


def format_rho(rho: Rho) -> str:
    return "inf" if rho == math.inf else str(int(rho))


@dataclass(frozen=True)
class ScheduleSpec:
    """Ordered phases of (end_epoch, rho); the last phase must end at inf.

    A phase covers epochs [previous end, end_epoch). end_epoch values are
    strictly increasing, so lookup is the first phase whose end exceeds
    the epoch. Both values are numbers (math.inf for infinity); their
    text spellings are read by from_json and parse_rho alone.
    """

    phases: tuple[tuple[Union[int, float], Rho], ...]

    def __init__(self, phases: Sequence[tuple[Union[int, float], Rho]]):
        phases = tuple((_positive_or_inf(end, "phase end epoch"), _positive_or_inf(rho, "rho"))
                       for end, rho in phases)
        if not phases:
            raise ValueError("schedule needs at least one phase")
        if phases[-1][0] != math.inf:
            raise ValueError("the last phase must have end_epoch = inf")
        ends = [0] + [end for end, _ in phases]
        for prev_end, end in zip(ends, ends[1:]):
            if end <= prev_end:  # so an inf end can only be the last
                raise ValueError(f"phase end epochs must be strictly increasing, got {end} after {prev_end}")
        object.__setattr__(self, "phases", phases)

    def rho_at(self, epoch: int) -> Rho:
        for end, rho in self.phases:
            if epoch < end:
                return rho
        raise AssertionError("unreachable: last phase covers inf")

    def to_json(self) -> list:
        """The config form: one [end_epoch, rho] pair per phase, with
        infinity spelled "inf" and every rho as text."""
        return [["inf" if end == math.inf else end, format_rho(rho)] for end, rho in self.phases]

    @classmethod
    def from_json(cls, raw) -> ScheduleSpec:
        """The schedule a config form (see to_json) describes."""
        if not isinstance(raw, list) or not all(isinstance(item, list) and len(item) == 2 for item in raw):
            raise ValueError(f"config key 'schedule' must be a list of [end_epoch, rho] pairs, got {raw!r}")
        return cls([(_read_positive_or_inf(end, "phase end epoch"), parse_rho(rho)) for end, rho in raw])

    def describe(self) -> str:
        """The one-line form, phases joined by '|', e.g. '4:1|inf:2'."""
        return "|".join(f"{end}:{rho}" for end, rho in self.to_json())


def phase_freeze_signal(epoch: int, spec: ScheduleSpec) -> int:
    """0 (update the backbone) only on epochs that are multiples of the
    covering phase's rho: rho=1 unfreezes every epoch (plain full
    training), rho=inf none (a permanently frozen backbone)."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    rho = spec.rho_at(epoch)
    return BACKBONE_UNFROZEN if rho != math.inf and epoch % rho == 0 else BACKBONE_FROZEN


def freeze_signals(spec: ScheduleSpec, total_epochs: int) -> tuple:
    """The freeze signal of every epoch of a `total_epochs` run, in order:
    the one expansion of a schedule that runs, ledgers and estimates use."""
    return tuple(phase_freeze_signal(epoch, spec) for epoch in range(total_epochs))


@dataclass(frozen=True)
class LrConfig:
    """Linear warmup followed by a flat rate with one step decay.

    Warmup ramps from (nearly) zero to warmup_end_fraction of base_lr over
    the first warmup_iters iterations; afterwards the rate is base_lr.
    Epochs strictly greater than decay_epoch are scaled by decay_factor.

    The defaults are the desk rate, for a 512-iteration desk run; the
    published schedule warms up over 500 iterations to a base of 0.005.
    """

    base_lr: float = 0.05
    warmup_iters: int = 50
    warmup_end_fraction: float = 1.0 / 3.0
    decay_epoch: int = 12
    decay_factor: float = 0.25

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if not (0 < self.warmup_end_fraction <= 1):
            raise ValueError(f"warmup_end_fraction must be in (0, 1], got {self.warmup_end_fraction}")
        if not (0 < self.decay_factor <= 1):
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")


def lr_at(iteration: int, epoch: int, cfg: LrConfig) -> float:
    """Learning rate for a global iteration index within a given epoch.

    Uses (iteration + 1) in the ramp so the rate is strictly positive from
    the very first step.
    """
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    if iteration < cfg.warmup_iters:
        lr = cfg.base_lr * cfg.warmup_end_fraction * (iteration + 1) / cfg.warmup_iters
    else:
        lr = cfg.base_lr
    if epoch > cfg.decay_epoch:
        lr *= cfg.decay_factor
    return lr
