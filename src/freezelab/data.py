"""Miniature synthetic detection scenes.

Each scene is a noisy gray background with one to a few axis-aligned
rectangles painted on it. A rectangle's class decides which channel
dominates its fill color, so class identity is visible to a small conv
net while the scene stays trivial to generate. Everything is a pure
function of (seed, scene index): scene i is identical no matter how many
scenes were generated before it, which is what makes run-level
bit-identity tests possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import BBox, GroundTruth
from .rng import STREAM_SCENE, generator

__all__ = ["SceneConfig", "Scene", "generate_scene", "generate_dataset"]


@dataclass(frozen=True)
class SceneConfig:
    image_size: int = 32
    channels: int = 3
    num_classes: int = 3
    min_objects: int = 1
    max_objects: int = 3
    min_size: int = 6
    max_size: int = 14
    noise_std: float = 0.02
    background: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 1:
            raise ValueError("image_size must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not (0 <= self.min_objects <= self.max_objects):
            raise ValueError("need 0 <= min_objects <= max_objects")
        if not (1 <= self.min_size <= self.max_size):
            raise ValueError("need 1 <= min_size <= max_size")
        if self.max_size > self.image_size:
            raise ValueError(
                f"objects of size {self.max_size} cannot fit in a {self.image_size}px image"
            )
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass(frozen=True, eq=False)  # a field-wise == over an array would raise; a scene equals only itself
class Scene:
    index: int
    image: np.ndarray  # [channels, H, W] float64, values in [0, 1]
    ground_truths: tuple  # of GroundTruth, image_id == index


def _class_color(class_id: int, cfg: SceneConfig) -> np.ndarray:
    # One dominant channel per class; brightness drops when class ids wrap
    # past the channel count so more than `channels` classes stay separable.
    wrap = class_id // cfg.channels
    color = np.full(cfg.channels, 0.30 / (wrap + 1))
    color[class_id % cfg.channels] = 0.90 / (wrap + 1)
    return color


def generate_scene(cfg: SceneConfig, index: int) -> Scene:
    """Render scene `index`: background noise, then k filled rectangles."""
    if index < 0:
        raise ValueError(f"scene index must be >= 0, got {index}")
    rng = generator(cfg.seed, STREAM_SCENE, index)

    size = cfg.image_size
    image = np.full((cfg.channels, size, size), cfg.background, dtype=np.float64)
    image += rng.normal(0.0, cfg.noise_std, size=image.shape)

    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    gts = []
    for _ in range(n_objects):
        class_id = int(rng.integers(cfg.num_classes))
        w = int(rng.integers(cfg.min_size, cfg.max_size + 1))
        h = int(rng.integers(cfg.min_size, cfg.max_size + 1))
        x0 = int(rng.integers(0, size - w + 1))
        y0 = int(rng.integers(0, size - h + 1))
        fill = _class_color(class_id, cfg) + rng.normal(0.0, 0.03, size=cfg.channels)
        image[:, y0 : y0 + h, x0 : x0 + w] = fill[:, None, None]
        gts.append(
            GroundTruth(
                image_id=index,
                class_id=class_id,
                box=BBox(float(x0), float(y0), float(x0 + w), float(y0 + h)),
            )
        )

    np.clip(image, 0.0, 1.0, out=image)
    return Scene(index=index, image=image, ground_truths=tuple(gts))


def generate_dataset(cfg: SceneConfig, n_train: int, n_val: int) -> tuple[list[Scene], list[Scene]]:
    """Train split takes scene indices [0, n_train), validation takes the
    next n_val indices; the splits never share an index."""
    if n_train < 0 or n_val < 0:
        raise ValueError("split sizes must be >= 0")
    train = [generate_scene(cfg, i) for i in range(n_train)]
    val = [generate_scene(cfg, i) for i in range(n_train, n_train + n_val)]
    return train, val
