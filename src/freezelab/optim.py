"""SGD with momentum, weight decay, and global L2 gradient clipping.

Frozen parameters are the ones *absent* from the gradient map for a step.
They are left completely untouched: no weight decay, no momentum update,
no velocity entry. Stepping them with a zero gradient instead would let
weight decay silently shrink weights that are supposed to be preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Tensor

__all__ = ["SgdConfig", "OptimState", "clip_gradients", "global_grad_norm", "sgd_step"]


@dataclass(frozen=True)
class SgdConfig:
    momentum: float = 0.9
    weight_decay: float = 1e-4
    clip_max_norm: float = 35.0
    batch_size: int = 8

    def __post_init__(self):
        if not (0 <= self.momentum < 1):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.clip_max_norm <= 0:
            raise ValueError(f"clip_max_norm must be > 0, got {self.clip_max_norm}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class OptimState:
    """Per-parameter momentum buffers, created on first update."""

    velocity: dict = field(default_factory=dict)


def global_grad_norm(grads: Mapping[object, Tensor]) -> float:
    """L2 norm over all entries of a gradient map (0.0 when empty)."""
    total = 0.0
    for g in grads.values():
        v = g.data
        total += float(np.dot(v.reshape(-1), v.reshape(-1)))
    return math.sqrt(total)


def clip_gradients(grads: Mapping[object, Tensor], max_norm: float) -> dict:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds
    max_norm; otherwise return them unchanged. Empty maps pass through."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_grad_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {key: Tensor(g.data * scale) for key, g in grads.items()}


def sgd_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, Tensor],
    state: OptimState,
    lr: float,
    cfg: SgdConfig,
) -> None:
    """One in-place SGD update over the parameters present in `grads`.

    For each present parameter: g <- grad + weight_decay * p;
    v <- momentum * v + g; p <- p - lr * v. Parameters absent from
    `grads` are not touched in any way.
    """
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    for key, p in params.items():
        g = grads.get(key)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {key!r} of shape {p.shape}")
        step = g.data + cfg.weight_decay * p.data
        if cfg.momentum != 0.0:
            v = state.velocity.get(key)
            if v is None:
                v = np.zeros_like(p.data)
            v = cfg.momentum * v + step
            state.velocity[key] = v
            step = v
        else:
            state.velocity[key] = step
        p.data -= lr * step
