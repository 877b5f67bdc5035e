"""The array decode and AP against the loops of
reference_scoring, bit for bit, and the non-finite rule of the decode:
a cell whose score or box is NaN or infinite emits nothing."""

import math

import numpy as np
import pytest

from freezelab.autodiff import Tensor
from freezelab.data import SceneConfig, generate_dataset
from freezelab.evaluation import BBox, GroundTruth, average_precision, map50
from freezelab.experiment import RunCache, default_config, evaluate_detector
from freezelab.model import PredictionGrid, build_detector, decode_predictions

from reference_scoring import (
    average_precision_reference,
    decode_reference,
    evaluate_reference,
)


def _bits(x):
    return float(x).hex()


def assert_same_detections(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.image_id) is int and type(g.class_id) is int and type(g.score) is float
        assert (g.image_id, g.class_id) == (w.image_id, w.class_id)
        corners = (g.box.xmin, g.box.ymin, g.box.xmax, g.box.ymax)
        assert all(type(c) is float for c in corners)
        assert [_bits(g.score), *map(_bits, corners)] == [
            _bits(w.score), *map(_bits, (w.box.xmin, w.box.ymin, w.box.xmax, w.box.ymax))]


def _random_grid(seed):
    """A finite prediction grid with, at five distinct cells, a 0.0
    objectness logit, tied class logits, a log width above 12, a log
    height below -12, and a box that lies wholly outside the image; plus
    distinct random image ids below 1000, so neither contiguous nor sorted
    as a rule."""
    rng = np.random.default_rng(seed)
    b, s, c = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
    image_size = int(rng.choice([16, 32, 37]))
    data = np.empty((b, s, s, 5 + c))
    data[..., 0] = rng.normal(0.5, 2.0, size=(b, s, s))
    data[..., 1 : 1 + c] = rng.normal(0.0, 2.0, size=(b, s, s, c))
    data[..., 1 + c : 3 + c] = rng.uniform(-1.0, 2.0, size=(b, s, s, 2))
    data[..., 3 + c :] = rng.normal(0.0, 6.0, size=(b, s, s, 2))
    cells = data.reshape(b * s * s, 5 + c)
    zero_obj, tied, wide, flat, outside = rng.choice(len(cells), size=5, replace=False)
    cells[zero_obj, 0] = 0.0
    cells[[tied, wide, flat, outside], 0] = 3.0
    cells[tied, 1 : 1 + c] = 1.5
    cells[wide, 3 + c] = 12.0 + rng.uniform(0.0, 20.0)
    cells[flat, 4 + c] = -12.0 - rng.uniform(0.0, 20.0)
    cells[outside, 1 + c] = -3.0 * s
    cells[outside, 3 + c :] = 0.0
    image_ids = rng.choice(1000, size=b, replace=False).tolist()
    return PredictionGrid(Tensor(data), grid_size=s, num_classes=c), image_ids, image_size


@pytest.mark.parametrize("seed", range(240))
def test_decode_matches_the_per_cell_loop(seed):
    pred, image_ids, image_size = _random_grid(seed)
    assert_same_detections(decode_predictions(pred, image_ids, image_size),
                           decode_reference(pred, image_ids, image_size))


def _random_flags(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    flags = (rng.random(n) < rng.random()).tolist()
    scores = rng.choice([0.1, 0.25, 0.5, 0.9, 1.0], size=n).tolist()  # many ties
    return flags, scores, int(rng.integers(1, 30))


@pytest.mark.parametrize("seed", range(300))
def test_precision_recall_and_ap_match_the_per_rank_loops(seed):
    """AP against the oracle, which integrates the per-rank precision-recall loop."""
    flags, scores, n_gt = _random_flags(seed)
    ap = average_precision(flags, scores, n_gt)
    assert type(ap) is float and _bits(ap) == _bits(average_precision_reference(flags, scores, n_gt))


CHANNELS = ("objectness", "class 0", "class 1", "dx", "dy", "log w", "log h")


def _decode_one_cell(channel, value):
    """Decode two images on a 2x2 grid with 2 classes, in which only image
    0's cell (0, 0) passes the gate, with the box (0, 0, 16, 16), after
    `channel` of that cell is set to `value`."""
    data = np.full((2, 2, 2, 7), -20.0)
    data[..., 3:] = 0.0
    data[0, 0, 0, :5] = [3.0, 2.0, 0.0, 0.5, 0.5]
    data[0, 0, 0, CHANNELS.index(channel)] = value
    return decode_predictions(PredictionGrid(Tensor(data), grid_size=2, num_classes=2), [0, 1], 32)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("channel,value,emits", [
    ("objectness", 3.0, True),  # the grid as built
    ("objectness", NAN, False), ("objectness", INF, True), ("objectness", -INF, False),
    ("class 1", NAN, False), ("class 1", INF, False), ("class 1", -INF, True),
    ("dx", NAN, False), ("dx", INF, False), ("dx", -INF, False),
    ("dy", NAN, False), ("dy", INF, False), ("dy", -INF, False),
    # a log size is clipped to [-12, 12] before it is used
    ("log w", NAN, False), ("log w", INF, True), ("log w", -INF, True),
    ("log h", NAN, False), ("log h", INF, True), ("log h", -INF, True),
], ids=str)
def test_a_cell_with_a_non_finite_score_or_box_emits_nothing(channel, value, emits):
    dets = _decode_one_cell(channel, value)
    assert len(dets) == emits
    for det in dets:
        assert all(math.isfinite(v) for v in (det.score, det.box.xmin, det.box.ymin, det.box.xmax, det.box.ymax))
    if value == 3.0:
        assert dets[0].box == BBox(0.0, 0.0, 16.0, 16.0)


def test_an_all_nan_grid_decodes_to_nothing_and_scores_zero():
    dets = decode_predictions(PredictionGrid(Tensor(np.full((3, 4, 4, 8), math.nan)), grid_size=4, num_classes=3),
                              [0, 1, 2], 32)
    assert dets == []
    assert map50(dets, [GroundTruth(0, 1, BBox(0.0, 0.0, 8.0, 8.0))]).map50 == 0.0


def test_evaluate_detector_with_a_ragged_last_batch_matches_the_per_batch_path():
    cfg = default_config(seed=3, n_train=8, n_val=13, scene=SceneConfig(seed=3))
    train, val = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    cache = RunCache(detector, train)
    report = evaluate_detector(detector, val, 8, cache=cache)
    assert report.n_detections > 0 and report.n_ground_truth > 0
    assert report == evaluate_reference(detector, val, 8, cache.val)
    with pytest.raises(ValueError, match="cannot evaluate on an empty scene list"):
        evaluate_detector(detector, [], 8, cache=cache)
