"""The committed configs under configs/: each loads, leaves every key it
does not name at its `init-config` value, and plans its ledger. The
depth-1 config (the default arch with its second conv block moved from
the backbone to the neck) is held to the default arch by a byte oracle:
at rho=1 the split of the backbone is the only thing it changes."""

import csv
import json
import math
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from freezelab.autodiff import Tape, Tensor, backward
from freezelab.data import generate_dataset
from freezelab.experiment import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    plan_ledger,
    run_experiment,
)
from freezelab.model import build_detector, default_desk_arch, detection_loss, detector_forward, encode_targets
from freezelab.schedule import ScheduleSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def test_the_accuracy_and_depth1_configs_are_committed():
    assert {path.name for path in CONFIGS} >= {"accuracy.json", "depth1.json"}


@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_a_committed_config_loads_with_init_config_defaults_and_plans_its_ledger(path):
    cfg = load_config(path)
    named = json.loads(path.read_text())
    defaults = ExperimentConfig()
    for field in fields(ExperimentConfig):
        if field.name not in named:
            assert getattr(cfg, field.name) == getattr(defaults, field.name), field.name
    assert [record.epoch for record in plan_ledger(cfg).records] == list(range(cfg.total_epochs))


@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_a_committed_config_reads_back_equal_through_its_dict(path):
    cfg = load_config(path)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert replace(cfg) == cfg


def _depth1():
    cfg = load_config(CONFIG_DIR / "depth1.json")
    return replace(cfg, seed=7, scene=replace(cfg.scene, seed=7), n_train=32, n_val=16, total_epochs=8,
                   eval_every=4, schedule=ScheduleSpec([(math.inf, 1)]))


def test_depth1_is_the_default_arch_with_its_second_conv_block_in_the_neck():
    default = default_desk_arch()
    moved = dict(default, backbone=default["backbone"][:3], neck=default["backbone"][3:] + default["neck"])
    assert _depth1().arch == moved


def _ledger(run_dir):
    with open(os.path.join(run_dir, "ledger.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_depth1_trains_the_default_arch_bytes_with_another_backbone_split(tmp_path):
    depth1 = replace(_depth1(), output_dir=str(tmp_path / "depth1"))
    default = replace(depth1, arch=default_desk_arch(), output_dir=str(tmp_path / "default"))
    assert depth1.arch != default.arch
    run_experiment(depth1)
    run_experiment(default)
    for name in ("curves.csv", "summary.csv", "checkpoint.bin"):
        assert (tmp_path / "depth1" / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name

    rows, default_rows = _ledger(depth1.output_dir), _ledger(default.output_dir)
    assert len(rows) == len(default_rows) == 8
    costs = ("fwd_backbone", "bwd_backbone", "fwd_rest", "bwd_rest")
    for row, other in zip(rows, default_rows):
        assert row["n_samples"] == other["n_samples"] == "32"
        assert row["cum_total"] == other["cum_total"]
        assert sum(int(row[k]) for k in costs) == sum(int(other[k]) for k in costs)
        assert (int(row["fwd_backbone"]), int(row["fwd_rest"])) == (13_075_200, 15_598_592)
        assert (int(other["fwd_backbone"]), int(other["fwd_rest"])) == (25_763_584, 2_910_208)


def test_a_frozen_depth1_forward_trains_conv2_and_the_head_but_not_conv1():
    cfg = _depth1()
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    scenes, _ = generate_dataset(cfg.scene, 4, 0)
    batch = Tensor(np.stack([scene.image for scene in scenes]))
    targets = encode_targets([scene.ground_truths for scene in scenes], detector.grid_size,
                             detector.num_classes, cfg.scene.image_size)
    with Tape() as tape:
        loss = detection_loss(detector_forward(detector, batch, 1), targets)
    table = detector.grad_key_table()
    grads = {table[uid]: grad for uid, grad in backward(loss, tape).items()}
    assert {pid.split(".")[0] for pid in grads} == {"3", "7", "9"}
    assert all(np.any(grad != 0) for grad in grads.values())
