"""The per-run cache of frozen backbone features and encoded targets.

The oracle here is the run loop without any cache: every step stacks its
images, encodes its targets and runs the backbone, as training did before
the cache existed. A cached run must write the same bytes. The counting
tests check that the cache engages (a frozen stretch runs each scene
through the backbone once) and never outlives an unfrozen epoch.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from freezelab import experiment
from freezelab.autodiff import Tape, Tensor, backward
from freezelab.data import SceneConfig, generate_dataset
from freezelab.evaluation import map50
from freezelab.experiment import (
    EpochRecord,
    RunCache,
    RunResult,
    default_config,
    evaluate_detector,
    run_experiment,
    summarize_run,
    train_epoch,
    write_run_dir,
)
from freezelab.flops import FlopsLedger
from freezelab.model import (
    backbone_features,
    build_detector,
    decode_predictions,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
)
from freezelab.optim import OptimState, clip_gradients, sgd_step
from freezelab.rng import STREAM_BATCH_SHUFFLE, generator
from freezelab.schedule import ScheduleSpec, lr_at, phase_freeze_signal

STABLE_FILES = ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")

SCHEDULES = {
    "always-active": [(math.inf, 1)],
    "switch4-inf": [(4, 1), (math.inf, math.inf)],
    "switch1-rho2": [(1, 1), (math.inf, 2)],
    "switch1-rho5": [(1, 1), (math.inf, 5)],
}


def _config(phases, *, epochs=8, eval_every=2, n_train=20, n_val=12, seed=3):
    # 20 and 12 scenes in batches of 8 leave a short last batch in both
    # splits, so cached rows are also gathered into batches of 4.
    return default_config(
        seed=seed,
        total_epochs=epochs,
        eval_every=eval_every,
        n_train=n_train,
        n_val=n_val,
        scene=SceneConfig(seed=seed),
        schedule=ScheduleSpec(phases),
    )


def _uncached_run(cfg) -> RunResult:
    """run_experiment rebuilt from the model's public functions, with no
    cache: every step and every evaluation runs the backbone."""
    train_scenes, val_scenes = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    specs = flops_specs(detector)
    ledger = FlopsLedger(specs)
    params = dict(detector.parameters())
    key_of = detector.grad_key_table()
    state = OptimState()
    image_size = detector.input_shape[1]
    bs = cfg.sgd.batch_size

    records = []
    iteration = 0
    report = None
    for epoch in range(cfg.total_epochs):
        freeze = phase_freeze_signal(epoch, cfg.schedule)
        order = generator(cfg.seed, STREAM_BATCH_SHUFFLE, epoch).permutation(len(train_scenes))
        losses = []
        for lo in range(0, len(order), bs):
            chunk = [train_scenes[i] for i in order[lo : lo + bs]]
            batch = Tensor(np.stack([s.image for s in chunk]))
            targets = encode_targets([s.ground_truths for s in chunk],
                                     detector.grid_size, detector.num_classes, image_size)
            with Tape() as tape:
                loss = detection_loss(detector_forward(detector, batch, freeze), targets)
            grads = {key_of[u]: g for u, g in backward(loss, tape).items()}
            grads = clip_gradients(grads, cfg.sgd.clip_max_norm)
            lr = lr_at(iteration, epoch, cfg.lr)
            sgd_step(params, grads, state, lr, cfg.sgd)
            losses.append(loss.item())
            iteration += 1
        ledger.record_epoch(epoch, freeze, specs, len(train_scenes))

        val_map = None
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.total_epochs - 1:
            detections, truths = [], []
            for lo in range(0, len(val_scenes), bs):
                chunk = val_scenes[lo : lo + bs]
                pred = detector_forward(detector, Tensor(np.stack([s.image for s in chunk])), 0)
                detections.extend(decode_predictions(pred, [s.index for s in chunk], image_size))
                for s in chunk:
                    truths.extend(s.ground_truths)
            report = map50(detections, truths)
            val_map = report.map50
        records.append(EpochRecord(epoch=epoch, frozen=freeze, mean_loss=float(np.mean(losses)),
                                   lr=lr, cum_flops=ledger.cumulative_totals()[-1],
                                   val_map50=val_map))
    summary = summarize_run(cfg, records, ledger)
    assert summary["final_map50"] == report.map50
    return RunResult(records=records, ledger=ledger, detector=detector, config=cfg, summary=summary)


def _files(run_dir) -> dict:
    out = {}
    for name in STABLE_FILES:
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_cached_run_writes_the_bytes_of_the_uncached_loop(tmp_path, name):
    cfg = _config(SCHEDULES[name])
    cached = run_experiment(replace(cfg, output_dir=str(tmp_path / "cached")))
    reference = _uncached_run(replace(cfg, output_dir=str(tmp_path / "uncached")))
    write_run_dir(reference)

    for (pid, a), (_, b) in zip(cached.detector.parameters(), reference.detector.parameters()):
        assert a.data.tobytes() == b.data.tobytes(), pid
    assert cached.records == reference.records
    assert _files(tmp_path / "cached") == _files(tmp_path / "uncached")


def _count_backbone_runs(monkeypatch, cfg):
    """Run cfg and return, per train_epoch and per evaluate_detector call,
    the scene ids of every batch that ran through the backbone: image
    batches given to detector_forward and to backbone_features alike.
    Also checks that no frozen training step passes images."""
    train_scenes, val_scenes = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    scene_of = {s.image.tobytes(): ("train", i) for i, s in enumerate(train_scenes)}
    scene_of.update({s.image.tobytes(): ("val", i) for i, s in enumerate(val_scenes)})
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append((label, []))
            return fn(*args, **kwargs)
        return wrapper

    def images(batch):
        calls[-1][1].append([scene_of[image.tobytes()] for image in batch.data])

    real_forward = experiment.detector_forward
    real_features = experiment.backbone_features
    frozen_steps = []

    def forward(d, batch, freeze, features=None):
        if features is None:
            images(batch)
        if freeze and calls[-1][0] == "train":
            frozen_steps.append(batch)
        return real_forward(d, batch, freeze, features=features)

    def backbone_features(d, batch):
        images(batch)
        return real_features(d, batch)

    monkeypatch.setattr(experiment, "_spare_cores", lambda: 0)  # a worker would see no monkeypatch
    monkeypatch.setattr(experiment, "train_epoch", counted("train", experiment.train_epoch))
    monkeypatch.setattr(experiment, "evaluate_detector", counted("eval", experiment.evaluate_detector))
    monkeypatch.setattr(experiment, "detector_forward", forward)
    monkeypatch.setattr(experiment, "backbone_features", backbone_features)
    run_experiment(cfg)
    assert frozen_steps and all(batch is None for batch in frozen_steps)
    return calls


def _scenes(batches):
    return sorted(scene for batch in batches for scene in batch)


# Per schedule of 8 epochs: which train epochs and which evaluations (after
# epochs 1, 3, 5 and 7) run their whole split through the backbone ("all")
# or none of it ("-"). An evaluation stores the val features when none are
# stored; an unfrozen epoch drops what is stored.
BACKBONE_RUNS = {
    # epochs 0-3 train the backbone, epoch 4 fills the store and 5-7
    # reuse it; the evaluation after epoch 3 fills the val store
    "switch4-inf": ("all all all all all - - -", "all all - -"),
    # frozen epochs 1, 3, 5, 7 each follow an unfrozen one: no reuse
    "switch1-rho2": ("all all all all all all all all", "all all all all"),
    # unfrozen at 0 and 5: epochs 1 and 6 fill the store, 2-4 and 7 reuse it
    "switch1-rho5": ("all all - - - all all -", "all - all -"),
}


@pytest.mark.parametrize("name", sorted(BACKBONE_RUNS))
def test_each_frozen_stretch_runs_each_scene_through_the_backbone_once(monkeypatch, name):
    cfg = _config(SCHEDULES[name])
    calls = _count_backbone_runs(monkeypatch, cfg)
    every = {"train": [("train", i) for i in range(cfg.n_train)],
             "eval": [("val", i) for i in range(cfg.n_val)]}
    for kind, expected in zip(("train", "eval"), BACKBONE_RUNS[name]):
        got = ["all" if _scenes(b) == every[kind] else "-" if not b else _scenes(b)
               for label, b in calls if label == kind]
        assert got == expected.split(), kind
    # 12 val scenes run in batches of 8 and 4, as without the store
    assert [len(b) for label, b in calls if label == "eval"][0] == 2


def test_train_epoch_drops_the_store_when_the_backbone_trains():
    cfg = _config(SCHEDULES["always-active"], n_val=0)
    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, 0)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    state = OptimState()
    cache = RunCache(detector, scenes)
    kwargs = dict(lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=cache)

    for epoch, freeze in enumerate((1, 1, 0)):
        train_epoch(detector, scenes, epoch, freeze, state, **kwargs)
        if freeze:
            assert cache.train.shape == (len(scenes),) + detector.feature_shape
        cache.val = np.zeros((1,) + detector.feature_shape)
    assert cache.train is None
    assert cache.val is not None
    train_epoch(detector, scenes, 3, 0, state, **kwargs)
    assert cache.val is None

    expected = encode_targets([s.ground_truths for s in scenes], detector.grid_size,
                              detector.num_classes, detector.input_shape[1])
    assert cache.targets.tobytes() == expected.tobytes()


def test_train_epoch_rejects_a_cache_of_other_scenes():
    cfg = _config(SCHEDULES["always-active"], n_val=0)
    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, 0)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    with pytest.raises(ValueError, match="cache holds 19 scenes, got 20"):
        train_epoch(detector, scenes, 0, 1, OptimState(),
                    lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=RunCache(detector, scenes[:-1]))


def test_evaluate_detector_rejects_a_val_store_of_other_scenes():
    cfg = _config(SCHEDULES["always-active"], n_val=16)
    scenes, val = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    cache = RunCache(detector, scenes)
    evaluate_detector(detector, val, cfg.sgd.batch_size, cache=cache)
    assert len(cache.val) == 16
    with pytest.raises(ValueError, match="cache holds 16 val scenes, got 8"):
        evaluate_detector(detector, val[:8], cfg.sgd.batch_size, cache=cache)


def test_forward_from_stored_features_is_bit_identical():
    cfg = _config(SCHEDULES["always-active"])
    scenes, _ = generate_dataset(cfg.scene, 7, 0)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    images = np.stack([s.image for s in scenes])

    full = detector_forward(detector, Tensor(images), 1)
    features = backbone_features(detector, Tensor(images))
    assert features.shape == (7,) + detector.feature_shape
    # per-scene rows in another batch composition give the same predictions
    rows = np.array([5, 0, 3])
    alone = detector_forward(detector, Tensor(images[rows]), 1)
    assert backbone_features(detector, Tensor(images[rows])).data.tobytes() == features.data[rows].tobytes()
    again = detector_forward(detector, None, 1, features=Tensor(features.data[rows]))
    assert again.tensor.data.tobytes() == alone.tensor.data.tobytes()
    assert again.tensor.data.tobytes() == full.tensor.data[rows].tobytes()


def test_forward_rejects_features_it_cannot_use():
    detector = build_detector(_config(SCHEDULES["always-active"]).arch, init_seed=0)
    good = Tensor(np.zeros((2,) + detector.feature_shape))
    with pytest.raises(ValueError, match="need freeze=1"):
        detector_forward(detector, None, 0, features=good)
    with pytest.raises(ValueError, match="backbone output shape"):
        detector_forward(detector, None, 1, features=Tensor(np.zeros((2, 3, 32, 32))))
