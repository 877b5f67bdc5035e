"""Training-run tests: determinism, freeze equivalences, ledger wiring,
and the run-directory report files."""

import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from freezelab import experiment
from freezelab.autodiff import Tape, Tensor, backward
from freezelab.data import SceneConfig, generate_dataset
from freezelab.evaluation import EvalReport
from freezelab.experiment import (
    CONFIG_VERSION,
    CURVES_COLUMNS,
    SUMMARY_COLUMNS,
    EpochRecord,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    emit_report,
    load_config,
    read_curves_csv,
    read_summary_csv,
    rebuild_summary,
    run_experiment,
    save_config,
    train_epoch,
    write_curves_csv,
    write_run_dir,
)
from freezelab.flops import FlopsLedger, delta_flops, estimate_training_time, read_ledger_csv
from freezelab.model import (
    build_detector,
    decode_predictions,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
    load_checkpoint,
    parameter_groups,
    restore_checkpoint,
)
from freezelab.optim import OptimState, clip_gradients, sgd_step
from freezelab.rng import STREAM_BATCH_SHUFFLE, generator
from freezelab.schedule import ScheduleSpec, lr_at, phase_freeze_signal


def _small_config(schedule_phases, *, seed=0, epochs=6, eval_every=3, n_train=16, n_val=8):
    return default_config(
        seed=seed,
        total_epochs=epochs,
        eval_every=eval_every,
        n_train=n_train,
        n_val=n_val,
        scene=SceneConfig(seed=seed),
        schedule=ScheduleSpec(schedule_phases),
    )


def _group_checksum(detector, group):
    pids = set(parameter_groups(detector)[group])
    digest = hashlib.sha256()
    for pid, tensor in detector.parameters():
        if pid in pids:
            digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()


def _all_params_bytes(detector):
    return b"".join(
        np.ascontiguousarray(t.data).tobytes() for _, t in detector.parameters()
    )


# --------------------------------------------------------------------------
# determinism and freeze behaviour


def test_rerun_reproduces_every_record():
    cfg = _small_config([(2, 1), (math.inf, 2)])
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.records == b.records
    assert a.report.map50 == b.report.map50
    assert _all_params_bytes(a.detector) == _all_params_bytes(b.detector)
    assert a.ledger.total_flops() == b.ledger.total_flops()


def test_frozen_epoch_leaves_backbone_bytes_untouched():
    cfg = _small_config([(math.inf, 1)], epochs=1)
    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, 0)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    ledger = FlopsLedger(flops_specs(detector))
    state = OptimState()

    pattern = [0, 0, 1, 1, 0]
    iteration = 0
    for epoch, freeze in enumerate(pattern):
        before_backbone = _group_checksum(detector, "backbone")
        before_head = _group_checksum(detector, "head")
        _, _, iteration = train_epoch(
            detector, scenes, epoch, freeze, state, ledger,
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, iteration_start=iteration,
        )
        after_backbone = _group_checksum(detector, "backbone")
        if freeze:
            assert after_backbone == before_backbone, f"epoch {epoch}"
        else:
            assert after_backbone != before_backbone, f"epoch {epoch}"
        assert _group_checksum(detector, "head") != before_head, f"epoch {epoch}"


def test_always_active_schedule_matches_scheduler_free_loop():
    """A schedule that never freezes must be invisible: the run equals a
    hand-rolled loop with no freeze logic at all, to the last bit."""
    cfg = _small_config([(math.inf, 1)])
    run = run_experiment(cfg)

    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    params = dict(detector.parameters())
    key_of = detector.grad_key_table()
    state = OptimState()
    image_size = detector.input_shape[1]

    iteration = 0
    mean_losses = []
    for epoch in range(cfg.total_epochs):
        order = generator(cfg.seed, STREAM_BATCH_SHUFFLE, epoch).permutation(len(scenes))
        losses = []
        for lo in range(0, len(order), cfg.sgd.batch_size):
            chunk = [scenes[i] for i in order[lo : lo + cfg.sgd.batch_size]]
            batch = Tensor(np.stack([s.image.data for s in chunk]))
            targets = encode_targets(
                [s.ground_truths for s in chunk],
                detector.grid_size, detector.num_classes, image_size,
            )
            with Tape() as tape:
                pred = detector_forward(detector, batch, 0)
                loss = detection_loss(pred, targets)
            grads = {key_of[u]: g for u, g in backward(loss, tape).items()}
            grads = clip_gradients(grads, cfg.sgd.clip_max_norm)
            sgd_step(params, grads, state, lr_at(iteration, epoch, cfg.lr), cfg.sgd)
            losses.append(loss.item())
            iteration += 1
        mean_losses.append(float(np.mean(losses)))

    assert [r.mean_loss for r in run.records] == mean_losses
    assert all(r.frozen == 0 for r in run.records)
    assert _all_params_bytes(run.detector) == _all_params_bytes(detector)


def test_always_frozen_schedule_matches_headonly_baseline():
    """Permanent freezing equals a baseline whose optimizer never sees the
    backbone parameters at all."""
    cfg = _small_config([(math.inf, math.inf)])
    run = run_experiment(cfg)
    assert all(r.frozen == 1 for r in run.records)

    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    backbone_ids = set(parameter_groups(detector)["backbone"])
    params = {pid: t for pid, t in detector.parameters() if pid not in backbone_ids}
    key_of = detector.grad_key_table()
    state = OptimState()
    image_size = detector.input_shape[1]

    iteration = 0
    mean_losses = []
    for epoch in range(cfg.total_epochs):
        order = generator(cfg.seed, STREAM_BATCH_SHUFFLE, epoch).permutation(len(scenes))
        losses = []
        for lo in range(0, len(order), cfg.sgd.batch_size):
            chunk = [scenes[i] for i in order[lo : lo + cfg.sgd.batch_size]]
            batch = Tensor(np.stack([s.image.data for s in chunk]))
            targets = encode_targets(
                [s.ground_truths for s in chunk],
                detector.grid_size, detector.num_classes, image_size,
            )
            with Tape() as tape:
                pred = detector_forward(detector, batch, 1)
                loss = detection_loss(pred, targets)
            grads = {key_of[u]: g for u, g in backward(loss, tape).items()}
            assert not set(grads) & backbone_ids
            grads = clip_gradients(grads, cfg.sgd.clip_max_norm)
            sgd_step(params, grads, state, lr_at(iteration, epoch, cfg.lr), cfg.sgd)
            losses.append(loss.item())
            iteration += 1
        mean_losses.append(float(np.mean(losses)))

    assert [r.mean_loss for r in run.records] == mean_losses
    assert _all_params_bytes(run.detector) == _all_params_bytes(detector)


def test_period_two_savings_are_half_of_full_freeze():
    epochs, switch = 12, 4
    run2 = run_experiment(_small_config([(switch, 1), (math.inf, 2)], epochs=epochs, n_val=0))
    run_inf = run_experiment(_small_config([(switch, 1), (math.inf, math.inf)], epochs=epochs, n_val=0))
    run1 = run_experiment(_small_config([(math.inf, 1)], epochs=epochs, n_val=0))

    d2 = delta_flops(run2.ledger, run1.ledger)
    d_inf = delta_flops(run_inf.ledger, run1.ledger)
    assert d2 * 2 == d_inf

    backbone_bwd = 2 * sum(
        s.forward_flops_per_sample
        for s in flops_specs(run1.detector)
        if s.group == "backbone"
    )
    frozen2 = sum(r.frozen for r in run2.records)
    assert frozen2 == 4
    assert d2 == -frozen2 * run1.config.n_train * backbone_bwd


def test_cumulative_flops_grow_by_less_exactly_on_frozen_epochs():
    cfg = _small_config([(2, 1), (math.inf, 2)], epochs=8, n_val=0)
    run = run_experiment(cfg)
    cums = [r.cum_flops for r in run.records]
    increments = [cums[0]] + [b - a for a, b in zip(cums, cums[1:])]
    assert all(i > 0 for i in increments)

    backbone_bwd = 2 * sum(
        s.forward_flops_per_sample
        for s in flops_specs(run.detector)
        if s.group == "backbone"
    ) * cfg.n_train
    active = {i for r, i in zip(run.records, increments) if r.frozen == 0}
    frozen = {i for r, i in zip(run.records, increments) if r.frozen == 1}
    assert len(active) == 1 and len(frozen) == 1
    assert active.pop() - frozen.pop() == backbone_bwd


def test_eval_cadence_and_final_epoch():
    cfg = _small_config([(math.inf, 1)], epochs=5, eval_every=2)
    run = run_experiment(cfg)
    have_eval = [r.val_map50 is not None for r in run.records]
    assert have_eval == [False, True, False, True, True]
    assert run.report.map50 == run.records[-1].val_map50


def test_no_validation_set_reports_zero():
    cfg = _small_config([(math.inf, 1)], epochs=2, n_val=0)
    run = run_experiment(cfg)
    assert all(r.val_map50 is None for r in run.records)
    assert run.report == EvalReport(map50=0.0, per_class_ap={}, n_detections=0, n_ground_truth=0)


def test_train_epoch_rejects_empty_scenes():
    cfg = _small_config([(math.inf, 1)])
    detector = build_detector(cfg.arch, init_seed=0)
    with pytest.raises(ValueError):
        train_epoch(
            detector, [], 0, 0, OptimState(), FlopsLedger(flops_specs(detector)),
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=0, iteration_start=0,
        )


def test_recorded_lr_is_the_last_batch_rate():
    cfg = _small_config([(math.inf, 1)], epochs=3, n_val=0)
    run = run_experiment(cfg)
    batches_per_epoch = -(-cfg.n_train // cfg.sgd.batch_size)
    for r in run.records:
        last_iteration = (r.epoch + 1) * batches_per_epoch - 1
        assert r.lr == lr_at(last_iteration, r.epoch, cfg.lr)


# --------------------------------------------------------------------------
# config serialization


def test_config_dict_round_trip():
    cfg = _small_config([(3, 1), (9, 5), (math.inf, math.inf)], seed=7)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert back.schedule.describe() == "3:1|9:5|inf:inf"


def test_config_file_round_trip_is_byte_stable(tmp_path):
    cfg = _small_config([(4, 1), (math.inf, 10)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(cfg, p1)
    assert load_config(p1) == cfg
    save_config(load_config(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_rejects_unknown_keys():
    raw = config_to_dict(default_config())
    raw["optimizer"] = {}
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(raw)

    raw = config_to_dict(default_config())
    raw["sgd"]["nesterov"] = True
    with pytest.raises(ValueError, match="sgd"):
        config_from_dict(raw)


def test_config_rejects_other_versions():
    raw = config_to_dict(default_config())
    raw["version"] = CONFIG_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        config_from_dict(raw)


def test_config_rejects_malformed_schedule_phase():
    raw = config_to_dict(default_config())
    raw["schedule"] = [[4, "1", "extra"]]
    with pytest.raises(ValueError):
        config_from_dict(raw)


def test_scene_seed_must_match_run_seed():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=0, scene=SceneConfig(seed=1))


def test_default_schedule_never_freezes():
    cfg = default_config()
    assert cfg.schedule.describe() == "inf:1"
    assert all(phase_freeze_signal(e, cfg.schedule) == 0 for e in range(cfg.total_epochs))


# --------------------------------------------------------------------------
# curves and summary files


def test_curves_round_trip_preserves_missing_map(tmp_path):
    records = [
        EpochRecord(epoch=0, frozen=0, mean_loss=1.25, lr=0.05, cum_flops=1000, val_map50=None),
        EpochRecord(epoch=1, frozen=1, mean_loss=0.5, lr=0.025, cum_flops=1800, val_map50=0.625),
    ]
    path = tmp_path / "curves.csv"
    write_curves_csv(records, path)
    assert read_curves_csv(path) == records
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CURVES_COLUMNS)


def test_curves_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("epoch,loss\n0,1.0\n")
    with pytest.raises(ValueError):
        read_curves_csv(path)


@pytest.mark.parametrize("reader,columns", [
    (read_curves_csv, CURVES_COLUMNS),
    (read_summary_csv, SUMMARY_COLUMNS),
], ids=["curves", "summary"])
def test_readers_name_the_file_and_line_of_a_fault(tmp_path, reader, columns):
    path = tmp_path / "report.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="is empty"):
        reader(path)
    header = ",".join(columns) + "\n"
    path.write_text(header + "0,1\n")
    with pytest.raises(ValueError, match="line 2: expected 6 fields, got 2"):
        reader(path)
    path.write_text(header + "x,0,0.5,0.1,7,NA\n")
    with pytest.raises(ValueError, match="line 2: ") as exc:
        reader(path)
    assert str(path) in str(exc.value)


def test_summary_reader_needs_exactly_one_row(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(",".join(SUMMARY_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="0 summary rows"):
        read_summary_csv(path)


def test_emit_report_is_byte_identical(tmp_path):
    cfg = _small_config([(2, 1), (math.inf, 2)], epochs=4)
    run = run_experiment(cfg)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(run.records, run.ledger, run.report, cfg, dir_a)
    emit_report(run.records, run.ledger, run.report, cfg, dir_b)
    for name in ("curves.csv", "ledger.csv", "summary.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_summary_without_baseline_has_na_marker(tmp_path):
    cfg = _small_config([(math.inf, 2)], epochs=2, n_val=0)
    run = run_experiment(cfg)
    emit_report(run.records, run.ledger, run.report, cfg, tmp_path)
    summary = read_summary_csv(tmp_path / "summary.csv")
    assert summary["delta_flops_vs_baseline"] is None
    assert "NA" in (tmp_path / "summary.csv").read_text()
    assert summary["schedule"] == "inf:2"
    assert summary["total_flops"] == run.ledger.total_flops()
    assert summary["estimated_minutes"] == estimate_training_time(
        cfg.time_model, cfg.schedule, cfg.total_epochs
    )


def test_summary_with_baseline_has_exact_delta(tmp_path):
    cfg = _small_config([(1, 1), (math.inf, 2)], epochs=4, n_val=0)
    base_cfg = _small_config([(math.inf, 1)], epochs=4, n_val=0)
    run = run_experiment(cfg)
    base = run_experiment(base_cfg)
    emit_report(run.records, run.ledger, run.report, cfg, tmp_path, baseline_ledger=base.ledger)
    summary = read_summary_csv(tmp_path / "summary.csv")
    assert summary["delta_flops_vs_baseline"] == delta_flops(run.ledger, base.ledger)
    assert summary["delta_flops_vs_baseline"] < 0


def test_run_dir_holds_all_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = default_config(
        seed=0, total_epochs=4, eval_every=2, n_train=16, n_val=8,
        scene=SceneConfig(seed=0),
        schedule=ScheduleSpec([(2, 1), (math.inf, 2)]),
        output_dir=str(out),
    )
    run = run_experiment(cfg)

    assert load_config(out / "config.json") == cfg
    assert read_curves_csv(out / "curves.csv") == run.records
    assert read_ledger_csv(out / "ledger.csv").total_flops() == run.ledger.total_flops()
    assert read_summary_csv(out / "summary.csv")["final_map50"] == run.report.map50

    fresh = build_detector(cfg.arch, init_seed=99)
    restore_checkpoint(fresh, out / "checkpoint.bin")
    assert _all_params_bytes(fresh) == _all_params_bytes(run.detector)


def test_write_run_dir_requires_output_dir():
    cfg = _small_config([(math.inf, 1)], epochs=1, n_val=0)
    run = run_experiment(cfg)
    with pytest.raises(ValueError):
        write_run_dir(run)


def test_rebuild_summary_fills_delta_after_the_fact(tmp_path):
    run_dir, base_dir = str(tmp_path / "frozen"), str(tmp_path / "active")
    cfg = default_config(
        seed=0, total_epochs=4, eval_every=2, n_train=16, n_val=8,
        scene=SceneConfig(seed=0),
        schedule=ScheduleSpec([(math.inf, math.inf)]),
        output_dir=run_dir,
    )
    base_cfg = default_config(
        seed=0, total_epochs=4, eval_every=2, n_train=16, n_val=8,
        scene=SceneConfig(seed=0),
        schedule=ScheduleSpec([(math.inf, 1)]),
        output_dir=base_dir,
    )
    run = run_experiment(cfg)
    base = run_experiment(base_cfg)

    before = read_summary_csv(f"{run_dir}/summary.csv")
    assert before["delta_flops_vs_baseline"] is None

    rebuild_summary(run_dir, base_dir)
    after = read_summary_csv(f"{run_dir}/summary.csv")
    assert after["delta_flops_vs_baseline"] == delta_flops(run.ledger, base.ledger)
    assert after["final_map50"] == run.records[-1].val_map50
    assert after["total_flops"] == before["total_flops"]


@pytest.mark.parametrize("writer", ["write_ledger_csv", "save_checkpoint"])
def test_interrupted_write_keeps_whole_files_and_marks_the_run_incomplete(tmp_path, monkeypatch, writer):
    out = tmp_path / "run"
    run = run_experiment(replace(_small_config([(math.inf, 1)], epochs=1, n_val=0), output_dir=str(out)))
    names = ["checkpoint.bin", "config.json", "curves.csv", "ledger.csv", "summary.csv"]
    assert sorted(os.listdir(out)) == names
    before = {name: (out / name).read_bytes() for name in names}

    def crash(obj, path):
        with open(path, "wb") as fh:
            fh.write(b"FZCK")
        raise OSError("disk full")

    monkeypatch.setattr(experiment, writer, crash)
    with pytest.raises(OSError):
        write_run_dir(run)
    assert sorted(os.listdir(out)) == names[1:]
    for name in names[1:]:
        assert (out / name).read_bytes() == before[name], name
    with pytest.raises(ValueError, match="no checkpoint.bin") as exc:
        rebuild_summary(str(out), str(out))
    assert str(out) in str(exc.value)
