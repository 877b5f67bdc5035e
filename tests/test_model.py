"""Detector tests: construction, the freeze-gated forward pass, the fused
loss, target codecs, and checkpointing."""

import json
import re
import struct

import numpy as np
import pytest

from freezelab import autodiff as ad
from freezelab.autodiff import Tape, Tensor, backward
from freezelab.evaluation import BBox, GroundTruth
from freezelab.experiment import load_config
from freezelab.model import (
    Detector,
    Layer,
    PredictionGrid,
    ShapeChainError,
    backbone_features,
    build_detector,
    decode_predictions,
    default_desk_arch,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
    load_checkpoint,
    parameter_groups,
    plan_detector,
    restore_checkpoint,
    save_arrays,
    save_checkpoint,
)

from helpers import fd_gradient, rel_error


def _tiny_arch():
    """1x8x8 input, 2x2 grid, 2 classes; small enough for FD sweeps."""
    return {
        "input_shape": [1, 8, 8],
        "grid_size": 2,
        "num_classes": 2,
        "backbone": [
            {"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 3},
            {"kind": "relu"},
        ],
        "neck": [{"kind": "flatten"}],
        "head": [{"kind": "dense", "in_features": 72, "out_features": 28}],
    }


def _random_batch(rng, shape):
    return Tensor(rng.uniform(0.0, 1.0, size=shape))


def _random_targets(rng, batch, grid, classes):
    """Valid target grid: random positives with one-hot class rows."""
    t = np.zeros((batch, grid, grid, 1 + classes + 4))
    for bi in range(batch):
        for sy in range(grid):
            for sx in range(grid):
                if rng.uniform() < 0.4:
                    t[bi, sy, sx, 0] = 1.0
                    t[bi, sy, sx, 1 + int(rng.integers(classes))] = 1.0
                    t[bi, sy, sx, 1 + classes :] = rng.normal(size=4)
    return t


# --------------------------------------------------------------------------
# construction


def test_build_is_deterministic():
    a = build_detector(default_desk_arch(), init_seed=0)
    b = build_detector(default_desk_arch(), init_seed=0)
    pa, pb = dict(a.parameters()), dict(b.parameters())
    assert set(pa) == set(pb)
    for pid in pa:
        assert np.array_equal(pa[pid].data, pb[pid].data), pid


def test_build_seed_changes_weights():
    a = build_detector(default_desk_arch(), init_seed=0)
    b = build_detector(default_desk_arch(), init_seed=1)
    assert not np.array_equal(dict(a.parameters())["0.weight"].data,
                              dict(b.parameters())["0.weight"].data)


def test_biases_start_at_zero():
    d = build_detector(default_desk_arch(), init_seed=0)
    for pid, tensor in d.parameters():
        if pid.endswith(".bias"):
            assert np.all(tensor.data == 0.0), pid


def test_shape_chain_error_names_both_layers():
    arch = _tiny_arch()
    arch["head"] = [
        {"kind": "dense", "in_features": 72, "out_features": 8},
        {"kind": "dense", "in_features": 5, "out_features": 2},  # expects 8
    ]
    with pytest.raises(ShapeChainError) as exc:
        build_detector(arch, init_seed=0)
    msg = str(exc.value)
    assert "dense(5->2)" in msg
    assert "dense(72->8)" in msg  # the emitting neighbor is identified too


def test_head_must_fill_the_grid():
    arch = _tiny_arch()
    arch["head"] = [{"kind": "dense", "in_features": 72, "out_features": 27}]  # needs 28
    with pytest.raises(ShapeChainError):
        build_detector(arch, init_seed=0)


def test_missing_arch_keys_rejected():
    arch = _tiny_arch()
    del arch["head"]
    with pytest.raises(ValueError):
        build_detector(arch, init_seed=0)
    with pytest.raises(ValueError):
        build_detector({"input_shape": [1, 8, 8]}, init_seed=0)


def _arch_with(drop=(), **keys):
    arch = {key: value for key, value in default_desk_arch().items() if key not in drop}
    return {**arch, **keys}


LAYERS = "must be a list of layers ('neck' may be empty), got"


@pytest.mark.parametrize("arch,message", [
    (_arch_with(drop=["neck"], nek=[{"kind": "flatten"}]), "arch config keys: missing [], unknown ['nek']"),
    (_arch_with(grid=4), "arch config keys: missing [], unknown ['grid']"),
    (_arch_with(head=[5]), f"arch group 'head' {LAYERS} [5]"),
    (_arch_with(head=[]), f"arch group 'head' {LAYERS} []"),
    (_arch_with(backbone="conv"), f"arch group 'backbone' {LAYERS} 'conv'"),
    (_arch_with(neck=None), f"arch group 'neck' {LAYERS} None"),
    (_arch_with(input_shape=32), "input_shape must be [channels, H, W], got 32"),
], ids=["nek", "grid", "head-int", "head-empty", "backbone-str", "neck-null", "input-int"])
def test_a_malformed_arch_is_one_error_that_names_its_key_or_group(tmp_path, arch, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        plan_detector(arch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"arch": arch}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_config(path)


def test_neck_is_optional():
    arch = _tiny_arch()
    del arch["neck"]
    arch["head"] = [{"kind": "flatten"}, {"kind": "dense", "in_features": 72, "out_features": 28}]
    d = build_detector(arch, init_seed=0)
    assert d.neck == ()
    rng = np.random.default_rng(0)
    grid = detector_forward(d, _random_batch(rng, (2, 1, 8, 8)), freeze=0)
    assert grid.tensor.shape == (2, 2, 2, 7)


def test_layer_ids_are_sequential_across_groups():
    d = build_detector(default_desk_arch(), init_seed=0)
    ids = [layer.layer_id for layer in d.layers()]
    assert ids == list(range(len(ids)))


def test_every_parameter_in_exactly_one_group():
    d = build_detector(default_desk_arch(), init_seed=0)
    groups = parameter_groups(d)
    all_ids = [pid for pid, _ in d.parameters()]
    spread = [pid for g in ("backbone", "neck", "head") for pid in groups[g]]
    assert sorted(spread) == sorted(all_ids)
    assert len(spread) == len(set(spread))
    assert set(groups["backbone"]) == {"0.weight", "0.bias", "3.weight", "3.bias"}
    assert groups["neck"] == ()
    assert set(groups["head"]) == {"7.weight", "7.bias", "9.weight", "9.bias"}


def test_parameters_order_is_weight_then_bias_per_layer():
    d = build_detector(_tiny_arch(), init_seed=0)
    assert [pid for pid, _ in d.parameters()] == [
        "0.weight", "0.bias", "3.weight", "3.bias",
    ]


def test_grad_key_table_round_trip():
    d = build_detector(_tiny_arch(), init_seed=0)
    table = d.grad_key_table()
    for pid, tensor in d.parameters():
        assert table[tensor.uid] == pid


def test_unknown_layer_kind_rejected():
    with pytest.raises(ValueError):
        Layer("tanh", 0)


@pytest.mark.parametrize("kind,key,value", [
    ("relu", "kernel", 3), ("flatten", "stride", 2), ("dense", "stride", 1), ("dense", "kernel", 3),
    ("maxpool2d", "in_channels", 8), ("maxpool2d", "out_channels", 8), ("conv2d", "in_features", 4),
    ("conv2d", "kernal", 3),
])
def test_layer_rejects_a_key_its_kind_does_not_take(kind, key, value):
    spec = {"dense": {"in_features": 4, "out_features": 2},
            "conv2d": {"in_channels": 1, "out_channels": 1, "kernel": 2},
            "maxpool2d": {"kernel": 2}}.get(kind, {})
    with pytest.raises(ValueError, match=f"{kind} layer 5 does not take '{key}'"):
        Layer(kind, 5, **spec, **{key: value})


def test_build_detector_names_the_layer_of_a_stray_key():
    arch = default_desk_arch()
    arch["backbone"][1] = {"kind": "relu", "kernel": 7}
    with pytest.raises(ValueError, match="relu layer 1 does not take 'kernel'"):
        build_detector(arch, init_seed=0)


# --------------------------------------------------------------------------
# forward under freeze


def test_forward_values_identical_under_freeze():
    rng = np.random.default_rng(2)
    d = build_detector(_tiny_arch(), init_seed=0)
    batch = _random_batch(rng, (3, 1, 8, 8))
    live = detector_forward(d, batch, freeze=0)
    frozen = detector_forward(d, batch, freeze=1)
    assert np.array_equal(live.tensor.data, frozen.tensor.data)


def test_frozen_forward_blocks_backbone_gradients():
    rng = np.random.default_rng(3)
    d = build_detector(_tiny_arch(), init_seed=0)
    batch = _random_batch(rng, (2, 1, 8, 8))
    targets = _random_targets(rng, 2, 2, 2)
    table = d.grad_key_table()
    groups = parameter_groups(d)

    with Tape() as tape:
        pred = detector_forward(d, batch, freeze=1)
        loss = detection_loss(pred, targets)
    grads = {table[uid]: g for uid, g in backward(loss, tape).items()}

    assert not set(grads) & set(groups["backbone"])
    assert "3.weight" in grads
    assert np.any(grads["3.weight"].data != 0.0)


def test_unfrozen_forward_reaches_backbone():
    rng = np.random.default_rng(4)
    d = build_detector(_tiny_arch(), init_seed=0)
    batch = _random_batch(rng, (2, 1, 8, 8))
    targets = _random_targets(rng, 2, 2, 2)
    table = d.grad_key_table()

    with Tape() as tape:
        pred = detector_forward(d, batch, freeze=0)
        loss = detection_loss(pred, targets)
    grads = {table[uid]: g for uid, g in backward(loss, tape).items()}

    assert "0.weight" in grads and np.any(grads["0.weight"].data != 0.0)
    assert "3.weight" in grads


def _pool_arch():
    """2x15x15 input: conv to an odd 13x13 map that a 2x2 pool takes to 6x6,
    then conv to 5x5 and an overlapping 3x3 pool with stride 1."""
    return {
        "input_shape": [2, 15, 15],
        "grid_size": 2,
        "num_classes": 2,
        "backbone": [
            {"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel": 3},
            {"kind": "relu"},
            {"kind": "maxpool2d", "kernel": 2, "stride": 2},
            {"kind": "conv2d", "in_channels": 3, "out_channels": 4, "kernel": 2},
            {"kind": "relu"},
            {"kind": "maxpool2d", "kernel": 3, "stride": 1},
        ],
        "neck": [{"kind": "flatten"}],
        "head": [
            {"kind": "dense", "in_features": 36, "out_features": 7},
            {"kind": "relu"},
            {"kind": "dense", "in_features": 7, "out_features": 28},
        ],
    }


def _as_written(layers, x):
    """`layers` in arch order, straight from the primitives."""
    for layer in layers:
        p = layer.params
        if layer.kind == "conv2d":
            x = ad.conv2d(x, p["weight"], bias=p["bias"], stride=layer.stride)
        elif layer.kind == "dense":
            x = ad.add(ad.matmul(x, p["weight"]), p["bias"])
        elif layer.kind == "relu":
            x = ad.relu(x)
        elif layer.kind == "maxpool2d":
            x = ad.maxpool2d(x, kernel=layer.kernel, stride=layer.stride)
        else:
            x = ad.flatten(x)
    return x


def _forward_as_written(d, batch):
    out = _as_written(d.layers(), batch)
    return ad.reshape(out, (out.shape[0], d.grid_size, d.grid_size, 1 + d.num_classes + 4))


def test_relu_after_pool_keeps_the_forward_bytes_and_the_gradient_values():
    rng = np.random.default_rng(12)
    d = build_detector(_pool_arch(), init_seed=5)
    batch = Tensor(rng.normal(size=(4, 2, 15, 15)))  # zero-mean, so relu and pools tie at 0
    targets = _random_targets(rng, 4, 2, 2)
    table = d.grad_key_table()
    runs = {}
    for name, forward in (("engine", lambda: detector_forward(d, batch, freeze=0).tensor),
                          ("written", lambda: _forward_as_written(d, batch))):
        with Tape() as tape:
            out = forward()
            loss = detection_loss(PredictionGrid(out, 2, 2), targets)
        grads = {table[uid]: g.data for uid, g in backward(loss, tape).items()}
        runs[name] = (out.data, [node.kind for node in tape.nodes], grads)
    (out, kinds, grads), (want_out, want_kinds, want_grads) = runs["engine"], runs["written"]
    assert kinds[:6] == ["conv2d", "maxpool2d", "relu", "conv2d", "maxpool2d", "relu"]
    assert want_kinds[:6] == ["conv2d", "relu", "maxpool2d", "conv2d", "relu", "maxpool2d"]
    assert sorted(kinds) == sorted(want_kinds)
    assert out.tobytes() == want_out.tobytes()
    assert backbone_features(d, batch).data.tobytes() == _as_written(d.backbone, batch).data.tobytes()
    assert set(grads) == set(want_grads) == {pid for pid, _ in d.parameters()}
    for pid, g in want_grads.items():
        np.testing.assert_array_equal(grads[pid], g, err_msg=pid)


def test_a_relu_pool_pair_across_the_backbone_cut_is_not_swapped():
    arch = {
        "input_shape": [1, 8, 8],
        "grid_size": 2,
        "num_classes": 2,
        "backbone": [
            {"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 3},
            {"kind": "relu"},
        ],
        "neck": [{"kind": "maxpool2d", "kernel": 2}, {"kind": "flatten"}],
        "head": [{"kind": "dense", "in_features": 18, "out_features": 28}],
    }
    d = build_detector(arch, init_seed=0)
    batch = Tensor(np.random.default_rng(13).normal(size=(3, 1, 8, 8)))
    features = backbone_features(d, batch)
    assert features.shape == (3, 2, 6, 6)
    assert features.data.tobytes() == _as_written(d.backbone, batch).data.tobytes()
    with Tape() as tape:
        pred = detector_forward(d, batch, freeze=0)
    assert [node.kind for node in tape.nodes][:4] == ["conv2d", "relu", "maxpool2d", "flatten"]
    assert pred.tensor.data.tobytes() == _forward_as_written(d, batch).data.tobytes()


def test_forward_validates_inputs():
    d = build_detector(_tiny_arch(), init_seed=0)
    batch = Tensor(np.zeros((2, 1, 8, 8)))
    with pytest.raises(ValueError):
        detector_forward(d, batch, freeze=2)
    with pytest.raises(ValueError):
        detector_forward(d, Tensor(np.zeros((2, 1, 9, 8))), freeze=0)


def test_prediction_grid_shape_check():
    with pytest.raises(ValueError):
        PredictionGrid(Tensor(np.zeros((1, 2, 2, 6))), grid_size=2, num_classes=2)
    grid = PredictionGrid(Tensor(np.zeros((1, 2, 2, 7))), grid_size=2, num_classes=2)
    assert grid.objectness_logits.shape == (1, 2, 2)
    assert grid.class_logits.shape == (1, 2, 2, 2)
    assert grid.box_offsets.shape == (1, 2, 2, 4)


# --------------------------------------------------------------------------
# loss


def _loss_reference(data, targets, classes):
    """Independent recomputation with plain formulas (no shared code)."""
    z = data[..., 0]
    t = targets[..., 0]
    p = 1.0 / (1.0 + np.exp(-z))
    bce = float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))
    pos = t == 1.0
    if not pos.any():
        return bce
    logits = data[..., 1 : 1 + classes][pos]
    onehot = targets[..., 1 : 1 + classes][pos]
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    ce = float(np.mean(-np.log((probs * onehot).sum(axis=1))))
    se = float(np.mean((data[..., 1 + classes :][pos] - targets[..., 1 + classes :][pos]) ** 2))
    return bce + ce + se


def test_loss_matches_reference_formulas():
    rng = np.random.default_rng(8)
    for _ in range(30):
        data = rng.normal(size=(2, 2, 2, 7))
        targets = _random_targets(rng, 2, 2, 2)
        pred = PredictionGrid(Tensor(data), grid_size=2, num_classes=2)
        got = detection_loss(pred, targets).item()
        assert got == pytest.approx(_loss_reference(data, targets, 2), abs=1e-12)


def test_loss_is_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(50):
        data = rng.normal(size=(1, 2, 2, 7)) * 3
        targets = _random_targets(rng, 1, 2, 2)
        pred = PredictionGrid(Tensor(data), grid_size=2, num_classes=2)
        assert detection_loss(pred, targets).item() >= 0.0


def test_saturated_predictions_give_near_zero_loss():
    targets = _random_targets(np.random.default_rng(10), 2, 2, 2)
    data = np.concatenate(
        [
            np.where(targets[..., :1] == 1.0, 20.0, -20.0),
            np.where(targets[..., 1:3] == 1.0, 20.0, -20.0),
            targets[..., 3:],
        ],
        axis=-1,
    )
    pred = PredictionGrid(Tensor(data), grid_size=2, num_classes=2)
    assert detection_loss(pred, targets).item() < 1e-6


def test_loss_with_no_positives_is_objectness_only():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(2, 2, 2, 7))
    targets = np.zeros((2, 2, 2, 7))
    pred = PredictionGrid(Tensor(data), grid_size=2, num_classes=2)
    got = detection_loss(pred, targets).item()
    z = data[..., 0]
    bce = float(np.mean(np.logaddexp(0.0, z)))
    assert got == pytest.approx(bce, abs=1e-15)


def test_loss_shape_mismatch_rejected():
    pred = PredictionGrid(Tensor(np.zeros((1, 2, 2, 7))), grid_size=2, num_classes=2)
    with pytest.raises(ValueError):
        detection_loss(pred, np.zeros((1, 2, 2, 8)))


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    targets = _random_targets(rng, 1, 2, 2)
    data = rng.normal(size=(1, 2, 2, 7))

    pred_tensor = Tensor(data, requires_grad=True)
    with Tape() as tape:
        loss = detection_loss(
            PredictionGrid(pred_tensor, grid_size=2, num_classes=2), targets
        )
    grads = backward(loss, tape)
    analytic = grads[pred_tensor.uid].data

    def func(arr):
        pred = PredictionGrid(Tensor(arr), grid_size=2, num_classes=2)
        return detection_loss(pred, targets).item()

    numeric = fd_gradient(func, [data], 0)
    assert rel_error(analytic, numeric) <= 1e-5


def test_end_to_end_gradient_through_detector():
    rng = np.random.default_rng(13)
    d = build_detector(_tiny_arch(), init_seed=0)
    batch = rng.uniform(0.0, 1.0, size=(1, 1, 8, 8))
    targets = _random_targets(rng, 1, 2, 2)
    params = dict(d.parameters())
    table = d.grad_key_table()

    with Tape() as tape:
        pred = detector_forward(d, Tensor(batch), freeze=0)
        loss = detection_loss(pred, targets)
    grads = {table[uid]: g.data for uid, g in backward(loss, tape).items()}

    # numeric check on one dense weight entry and one conv weight entry
    def loss_at():
        pred = detector_forward(d, Tensor(batch), freeze=0)
        return detection_loss(pred, targets).item()

    for pid, index in (("3.weight", (5, 11)), ("0.weight", (1, 0, 2, 2))):
        tensor = params[pid]
        orig = tensor.data[index]
        h = 1e-6
        tensor.data[index] = orig + h
        hi = loss_at()
        tensor.data[index] = orig - h
        lo = loss_at()
        tensor.data[index] = orig
        numeric = (hi - lo) / (2 * h)
        assert grads[pid][index] == pytest.approx(numeric, rel=1e-4, abs=1e-9)


# --------------------------------------------------------------------------
# target encoding and decoding


def test_encode_single_box():
    gt = GroundTruth(0, 1, BBox(0.0, 0.0, 8.0, 8.0))
    grid = encode_targets([[gt]], grid_size=4, num_classes=3, image_size=32)
    assert grid.shape == (1, 4, 4, 8)
    cell = grid[0, 0, 0]
    assert cell[0] == 1.0
    assert list(cell[1:4]) == [0.0, 1.0, 0.0]
    assert cell[4] == 0.5 and cell[5] == 0.5  # center sits mid-cell
    assert cell[6] == 0.0 and cell[7] == 0.0  # exactly one cell wide/high
    assert grid[0].sum() == cell.sum()  # no other cell is populated


def test_encode_first_box_wins_the_cell():
    a = GroundTruth(0, 0, BBox(0.0, 0.0, 8.0, 8.0))
    b = GroundTruth(0, 1, BBox(1.0, 1.0, 7.0, 7.0))  # same center cell
    grid = encode_targets([[a, b]], grid_size=4, num_classes=3, image_size=32)
    cell = grid[0, 0, 0]
    assert cell[1] == 1.0 and cell[2] == 0.0
    assert cell[6] == 0.0  # log(8/8), from the first box


def test_encode_corner_box_clamps_to_last_cell():
    gt = GroundTruth(0, 0, BBox(28.0, 28.0, 32.0, 32.0))
    grid = encode_targets([[gt]], grid_size=4, num_classes=3, image_size=32)
    assert grid[0, 3, 3, 0] == 1.0


def test_encode_rejects_bad_ground_truth():
    degenerate = GroundTruth(0, 0, BBox(4.0, 4.0, 4.0, 6.0))
    with pytest.raises(ValueError):
        encode_targets([[degenerate]], grid_size=4, num_classes=3, image_size=32)
    out_of_range = GroundTruth(0, 7, BBox(0.0, 0.0, 8.0, 8.0))
    with pytest.raises(ValueError):
        encode_targets([[out_of_range]], grid_size=4, num_classes=3, image_size=32)


def test_decode_round_trips_encoded_box():
    gt = GroundTruth(5, 2, BBox(8.0, 16.0, 20.0, 28.0))
    targets = encode_targets([[gt]], grid_size=4, num_classes=3, image_size=32)
    logits = np.full_like(targets, -20.0)
    logits[..., 0] = np.where(targets[..., 0] == 1.0, 20.0, -20.0)
    logits[..., 1:4] = np.where(targets[..., 1:4] == 1.0, 20.0, -20.0)
    logits[..., 4:] = targets[..., 4:]
    pred = PredictionGrid(Tensor(logits), grid_size=4, num_classes=3)

    dets = decode_predictions(pred, image_ids=[5], image_size=32)
    assert len(dets) == 1
    det = dets[0]
    assert det.image_id == 5 and det.class_id == 2
    assert det.score > 0.99
    assert det.box.xmin == pytest.approx(8.0, abs=1e-9)
    assert det.box.ymin == pytest.approx(16.0, abs=1e-9)
    assert det.box.xmax == pytest.approx(20.0, abs=1e-9)
    assert det.box.ymax == pytest.approx(28.0, abs=1e-9)


def test_decode_quiet_grid_emits_nothing():
    pred = PredictionGrid(Tensor(np.full((1, 2, 2, 7), -5.0)), grid_size=2, num_classes=2)
    assert decode_predictions(pred, image_ids=[0], image_size=32) == []


def test_decode_validates_image_ids():
    pred = PredictionGrid(Tensor(np.zeros((2, 2, 2, 7))), grid_size=2, num_classes=2)
    with pytest.raises(ValueError):
        decode_predictions(pred, image_ids=[0], image_size=32)


def test_decode_score_combines_objectness_and_class():
    logits = np.full((1, 2, 2, 7), -20.0)
    logits[0, 0, 0, 0] = 0.8  # sigmoid ~ 0.69
    logits[0, 0, 0, 1:3] = [2.0, -1.0]
    logits[0, 0, 0, 3:] = [0.5, 0.5, 0.0, 0.0]
    pred = PredictionGrid(Tensor(logits), grid_size=2, num_classes=2)
    (det,) = decode_predictions(pred, image_ids=[0], image_size=32)
    p_obj = 1.0 / (1.0 + np.exp(-0.8))
    p_cls = np.exp(2.0) / (np.exp(2.0) + np.exp(-1.0))
    assert det.class_id == 0
    assert det.score == pytest.approx(p_obj * p_cls, abs=1e-12)


# --------------------------------------------------------------------------
# flops wiring


def test_flops_specs_cover_every_layer():
    d = build_detector(default_desk_arch(), init_seed=0)
    specs = flops_specs(d)
    assert [s.layer_id for s in specs] == [layer.layer_id for layer in d.layers()]
    assert {s.group for s in specs} == {"backbone", "neck", "head"}
    assert all(s.forward_flops_per_sample > 0 for s in specs)
    # first conv: (2*3*3*3) * 8 * 30 * 30 + 8 * 30 * 30
    assert specs[0].forward_flops_per_sample == 54 * 8 * 900 + 8 * 900


# --------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)

    other = build_detector(_tiny_arch(), init_seed=1)
    assert not np.array_equal(
        dict(other.parameters())["0.weight"].data, dict(d.parameters())["0.weight"].data
    )
    restore_checkpoint(other, path)
    for (pid, a), (_, b) in zip(d.parameters(), other.parameters()):
        assert np.array_equal(a.data, b.data), pid


def test_checkpoint_entries_expose_layout(tmp_path):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)
    arrays = load_checkpoint(path)
    assert list(arrays) == ["0.weight", "0.bias", "3.weight", "3.bias"]
    assert arrays["0.weight"].shape == (2, 1, 3, 3)


def test_save_arrays_round_trips_any_parameter_id_map_in_order(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"7.bias": rng.normal(size=3), "2.weight": rng.normal(size=(2, 4)), "0.b.x": np.zeros(())}
    path = tmp_path / "arrays.bin"
    save_arrays(arrays, path)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for pid, values in arrays.items():
        assert loaded[pid].shape == values.shape and loaded[pid].tobytes() == values.tobytes(), pid
    save_arrays({}, path)
    assert load_checkpoint(path) == {}


def test_checkpoint_rejects_wrong_parameter_set(tmp_path):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)

    arch = _tiny_arch()
    arch["head"] = [
        {"kind": "dense", "in_features": 72, "out_features": 16},
        {"kind": "relu"},
        {"kind": "dense", "in_features": 16, "out_features": 28},
    ]
    bigger = build_detector(arch, init_seed=0)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        restore_checkpoint(bigger, path)


def test_checkpoint_rejects_wrong_shapes(tmp_path):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)

    arch = _tiny_arch()
    arch["backbone"][0]["out_channels"] = 3  # same ids, fatter conv
    arch["head"] = [{"kind": "dense", "in_features": 108, "out_features": 28}]
    fatter = build_detector(arch, init_seed=0)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        restore_checkpoint(fatter, path)


def test_checkpoint_rejects_corrupt_files(tmp_path):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        load_checkpoint(junk)

    padded = tmp_path / "padded.bin"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(padded)

    newer = tmp_path / "newer.bin"
    raw = path.read_bytes()
    newer.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    with pytest.raises(ValueError, match=re.escape(f"{newer}: unsupported checkpoint version 2")):
        load_checkpoint(newer)

    twice = tmp_path / "twice.bin"
    save_arrays({"0.weight": np.ones(2), "1.weight": np.ones(2)}, twice)
    twice.write_bytes(twice.read_bytes().replace(struct.pack("<IH", 1, 6), struct.pack("<IH", 0, 6)))
    with pytest.raises(ValueError, match=re.escape(f"{twice} holds '0.weight' twice")):
        load_checkpoint(twice)

    latin = tmp_path / "latin.bin"
    save_arrays({"0.w\u00e9ight": np.ones(2)}, latin)
    latin.write_bytes(latin.read_bytes().replace("\u00e9".encode(), b"\xff\xff"))
    with pytest.raises(ValueError, match=re.escape(f"{latin} has an entry name at byte 16 that is not UTF-8")):
        load_checkpoint(latin)


@pytest.mark.parametrize("cut", [8, 20, 100, -3])
def test_truncated_checkpoint_names_file_and_offset(tmp_path, cut):
    d = build_detector(_tiny_arch(), init_seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(d, path)
    short = tmp_path / "short.bin"
    short.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError) as exc:
        load_checkpoint(short)
    assert f"{short} is truncated at byte " in str(exc.value)
