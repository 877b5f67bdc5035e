"""Training-run tests: determinism, freeze equivalences, ledger wiring,
and the run-directory report files."""

import hashlib
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from freezelab import experiment
from freezelab.autodiff import Tape, Tensor, backward
from freezelab.data import SceneConfig, generate_dataset
from freezelab.experiment import (
    CONFIG_VERSION,
    CURVES_COLUMNS,
    SUMMARY_COLUMNS,
    EpochRecord,
    ExperimentConfig,
    RunCache,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    read_curves_csv,
    read_summary_csv,
    read_run_dir,
    rebuild_summary,
    run_experiment,
    save_config,
    summarize_run,
    train_epoch,
    write_curves_csv,
    write_run_dir,
    write_summary_csv,
)
from freezelab.flops import TimeModel, delta_flops, estimate_training_time
from freezelab.model import (
    build_detector,
    decode_predictions,
    default_desk_arch,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
    load_checkpoint,
    parameter_groups,
    restore_checkpoint,
)
from freezelab.optim import OptimState, SgdConfig, clip_gradients, sgd_step
from freezelab.rng import STREAM_BATCH_SHUFFLE, generator
from freezelab.schedule import LrConfig, ScheduleSpec, lr_at, phase_freeze_signal


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
    assert a.summary == b.summary
    assert _all_params_bytes(a.detector) == _all_params_bytes(b.detector)
    assert a.ledger.total_flops() == b.ledger.total_flops()


def test_frozen_epoch_leaves_backbone_bytes_untouched():
    cfg = _small_config([(math.inf, 1)], epochs=1)
    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, 0)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    state = OptimState()

    pattern = [0, 0, 1, 1, 0]
    for epoch, freeze in enumerate(pattern):
        before_backbone = _group_checksum(detector, "backbone")
        before_head = _group_checksum(detector, "head")
        train_epoch(
            detector, scenes, epoch, freeze, state,
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=RunCache(detector, scenes),
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
            batch = Tensor(np.stack([s.image for s in chunk]))
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
            batch = Tensor(np.stack([s.image for s in chunk]))
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
    assert run.summary["final_map50"] == run.records[-1].val_map50


def test_no_validation_set_reports_zero():
    cfg = _small_config([(math.inf, 1)], epochs=2, n_val=0)
    run = run_experiment(cfg)
    assert all(r.val_map50 is None for r in run.records)
    assert run.summary["final_map50"] == 0.0


def test_train_epoch_rejects_empty_scenes():
    cfg = _small_config([(math.inf, 1)])
    detector = build_detector(cfg.arch, init_seed=0)
    with pytest.raises(ValueError):
        train_epoch(
            detector, [], 0, 0, OptimState(),
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=0, cache=RunCache(detector, []),
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


@pytest.mark.parametrize("phases", [
    [(math.inf, 1)],
    [(4, 1), (math.inf, math.inf)],
], ids=["full", "switch4-inf"])
def test_ledger_csv_reads_back_the_run_ledger(tmp_path, phases):
    cfg = replace(_small_config(phases, n_val=0), output_dir=str(tmp_path))
    run = run_experiment(cfg)
    _, ledger, _ = read_run_dir(tmp_path)  # which holds ledger.csv to the planned rows
    assert ledger.records == run.ledger.records


def test_config_accepts_an_integer_for_a_float_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"lr": {"base_lr": 1}, "time_model": {"minutes_frozen": 10}}')
    cfg = load_config(path)
    assert cfg.lr.base_lr == 1 and cfg.time_model.minutes_frozen == 10


def test_config_dict_round_trip():
    cfg = _small_config([(3, 1), (9, 5), (math.inf, math.inf)], seed=7)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert back.schedule.describe() == "3:1|9:5|inf:inf"


def _listed_config_dict(cfg, schedule):
    """config_to_dict as it was once written out field by field, with the
    expected JSON schedule given literally."""
    return {
        "version": CONFIG_VERSION,
        "seed": cfg.seed,
        "total_epochs": cfg.total_epochs,
        "eval_every": cfg.eval_every,
        "n_train": cfg.n_train,
        "n_val": cfg.n_val,
        "arch": cfg.arch,
        "scene": asdict(cfg.scene),
        "lr": asdict(cfg.lr),
        "sgd": asdict(cfg.sgd),
        "schedule": schedule,
        "time_model": asdict(cfg.time_model),
        "output_dir": cfg.output_dir,
    }


def _non_default_config():
    arch = default_desk_arch()
    arch["backbone"][3]["out_channels"] = 8
    arch["head"][0]["in_features"] = 288
    return ExperimentConfig(
        seed=3, total_epochs=9, eval_every=2, n_train=12, n_val=5, arch=arch,
        scene=SceneConfig(seed=3, num_classes=2, noise_std=0.05, background=0.2),
        lr=LrConfig(base_lr=0.01, warmup_iters=7, warmup_end_fraction=0.5, decay_epoch=6, decay_factor=0.5),
        sgd=SgdConfig(momentum=0.5, weight_decay=0.001, clip_max_norm=10.0, batch_size=4),
        schedule=ScheduleSpec([(2, 1), (5, 3), (math.inf, math.inf)]),
        time_model=TimeModel(minutes_unfrozen=20.0, minutes_frozen=10.0),
        output_dir="runs/x",
    )


def test_config_dict_lists_every_field():
    assert config_to_dict(default_config()) == _listed_config_dict(default_config(), [["inf", "1"]])
    cfg = _non_default_config()
    assert config_to_dict(cfg) == _listed_config_dict(cfg, [[2, "1"], [5, "3"], ["inf", "inf"]])
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_dict_shares_no_object_with_the_config():
    cfg = default_config()
    raw = config_to_dict(cfg)
    raw["arch"]["grid_size"] = 9
    raw["arch"]["backbone"][0]["out_channels"] = 9
    assert cfg.arch == default_desk_arch()


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
    for schedule in ([[4, "1", "extra"]], None, 5, [5], [[4, 1], ["inf", 2], 7], {"a": 1}, ["i5"]):
        raw["schedule"] = schedule
        with pytest.raises(ValueError) as exc:
            config_from_dict(raw)
        assert str(exc.value) == ("config key 'schedule' must be a list of [end_epoch, rho] pairs, "
                                  f"got {schedule!r}")


def test_a_key_a_config_leaves_out_takes_the_init_config_value(tmp_path):
    assert default_config is ExperimentConfig and ExperimentConfig().lr == LrConfig()
    assert config_from_dict({}) == default_config()
    lr = config_from_dict({"lr": {"base_lr": 0.1}}).lr
    assert lr.base_lr == 0.1 and lr.warmup_iters == 50
    path = tmp_path / "cfg.json"
    path.write_text('{"n_train": 1024, "n_val": 1024}')
    assert load_config(path) == default_config(n_train=1024, n_val=1024)


# A config file and the keyword arguments of the same config made in
# Python. A section goes in as its instance where the instance takes the
# value; LrConfig refuses a string base_lr and TimeModel a -inf
# minutes_frozen themselves, before any config exists, so those two
# sections go in as their JSON objects (the instances are left out).
PYTHON_TWINS = [
    ('{"scene": {"image_size": 16}}', {"scene": SceneConfig(image_size=16)}),
    ('{"seed": "x"}', {"seed": "x"}),
    ('{"total_epochs": 2.5}', {"total_epochs": 2.5}),
    ('{"n_train": true, "total_epochs": 1, "n_val": 0}', {"n_train": True, "total_epochs": 1, "n_val": 0}),
    ('{"arch": 5}', {"arch": 5}),
    ('{"output_dir": 5}', {"output_dir": 5}),
    ('{"scene": 5}', {"scene": 5}),
    ('{"lr": {"base_lr": "0.1"}}', {"lr": {"base_lr": "0.1"}}),
    ('{"lr": {"base_lr": Infinity}}', {"lr": LrConfig(base_lr=math.inf)}),
    ('{"sgd": {"clip_max_norm": NaN}}', {"sgd": SgdConfig(clip_max_norm=math.nan)}),
    ('{"scene": {"noise_std": NaN}}', {"scene": SceneConfig(noise_std=math.nan)}),
    ('{"time_model": {"minutes_frozen": -Infinity}}', {"time_model": {"minutes_frozen": -math.inf}}),
    ('{"schedule": "4:1|inf:2"}', {"schedule": "4:1|inf:2"}),
    ('{"schedule": [[4, 1, 2], ["inf", 2, 1]]}', {"schedule": [[4, 1, 2], ["inf", 2, 1]]}),
]


def test_a_config_made_in_python_is_checked_as_a_loaded_one(tmp_path):
    path = tmp_path / "cfg.json"
    for text, kwargs in PYTHON_TWINS:
        path.write_text(text)
        with pytest.raises(ValueError) as loaded:
            load_config(path)
        for make in (lambda: ExperimentConfig(**kwargs), lambda: replace(default_config(), **kwargs)):
            with pytest.raises(ValueError) as made:
                make()
            assert str(loaded.value) == f"{path}: {made.value}", text
    # a schedule, like a section, is its object or its JSON form
    spec, text = ScheduleSpec([(4, 1), (math.inf, 2)]), [[4, 1], ["inf", 2]]
    for make in (ExperimentConfig, lambda **kw: replace(default_config(), **kw)):
        assert make(schedule=text) == make(schedule=spec) == config_from_dict({"schedule": text})
        assert make(schedule=text).schedule == spec


def test_a_section_is_its_instance_or_its_json_object():
    made = ExperimentConfig(seed=2, scene={"noise_std": 0.1}, lr={"base_lr": 0.01},
                            sgd={"batch_size": 4}, time_model={"minutes_frozen": 10.0})
    assert made == ExperimentConfig(seed=2, scene=SceneConfig(seed=2, noise_std=0.1), lr=LrConfig(base_lr=0.01),
                                    sgd=SgdConfig(batch_size=4), time_model=TimeModel(minutes_frozen=10.0))
    assert (type(made.scene), type(made.lr), type(made.sgd), type(made.time_model)) == \
        (SceneConfig, LrConfig, SgdConfig, TimeModel)


def test_a_left_out_section_means_what_a_left_out_json_section_means():
    assert ExperimentConfig(seed=5) == config_from_dict({"seed": 5})
    assert ExperimentConfig(seed=5).scene == SceneConfig(seed=5)
    assert ExperimentConfig(seed=5, scene={"noise_std": 0.1}).scene == SceneConfig(seed=5, noise_std=0.1)


@pytest.mark.parametrize("key,fault", [
    ("output_dir", lambda out: {"output_dir": out}),
    ("n_train", lambda out: {"n_train": np.int64(16)}),
], ids=["output-dir-path", "n-train-int64"])
def test_a_faulty_config_trains_nothing_and_creates_no_directory(tmp_path, monkeypatch, key, fault):
    monkeypatch.setattr(experiment, "_spare_cores", lambda: 0)
    trained = []
    real = experiment.train_epoch

    def counted(*args, **kwargs):
        trained.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "train_epoch", counted)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        run_experiment(ExperimentConfig(**{"total_epochs": 1, "n_train": 16, "n_val": 0, "output_dir": str(out),
                                           **fault(out)}))
    assert trained == []
    assert not out.exists()


def test_scene_seed_must_match_run_seed():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=0, scene=SceneConfig(seed=1))
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=5, scene={"seed": 1})


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


def test_write_run_dir_is_byte_identical(tmp_path):
    cfg = _small_config([(2, 1), (math.inf, 2)], epochs=4)
    run = run_experiment(cfg)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_run_dir(replace(run, config=replace(cfg, output_dir=str(dir_a))))
    write_run_dir(replace(run, config=replace(cfg, output_dir=str(dir_b))))
    for name in ("curves.csv", "ledger.csv", "summary.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_summary_without_baseline_has_na_marker(tmp_path):
    cfg = _small_config([(math.inf, 2)], epochs=2, n_val=0)
    run = run_experiment(cfg)
    write_summary_csv(run.summary, tmp_path / "summary.csv")
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
    write_summary_csv(summarize_run(cfg, run.records, run.ledger, base.ledger), tmp_path / "summary.csv")
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

    config, ledger, records = read_run_dir(out)
    assert config == cfg and records == run.records and ledger.records == run.ledger.records
    assert read_summary_csv(out / "summary.csv")["final_map50"] == run.records[-1].val_map50

    fresh = build_detector(cfg.arch, init_seed=99)
    restore_checkpoint(fresh, out / "checkpoint.bin")
    assert _all_params_bytes(fresh) == _all_params_bytes(run.detector)


@pytest.mark.parametrize("with_baseline", [False, True], ids=["no-baseline", "baseline"])
def test_in_memory_summary_equals_the_written_one(tmp_path, with_baseline):
    base = run_experiment(_small_config([(math.inf, 1)], epochs=4)) if with_baseline else None
    cfg = replace(_small_config([(1, 1), (math.inf, 2)], epochs=4), output_dir=str(tmp_path))
    run = run_experiment(cfg, baseline_ledger=base.ledger if with_baseline else None)
    assert run.summary == read_summary_csv(tmp_path / "summary.csv")
    assert (run.summary["delta_flops_vs_baseline"] is not None) == with_baseline


def test_write_run_dir_requires_output_dir():
    cfg = _small_config([(math.inf, 1)], epochs=1, n_val=0)
    run = run_experiment(cfg)
    with pytest.raises(ValueError):
        write_run_dir(run)


@pytest.mark.parametrize("n_val", [0, 8])
def test_rebuild_summary_fills_delta_after_the_fact(tmp_path, n_val):
    run_dir, base_dir = str(tmp_path / "frozen"), str(tmp_path / "active")
    cfg = default_config(
        seed=0, total_epochs=4, eval_every=2, n_train=16, n_val=n_val,
        scene=SceneConfig(seed=0),
        schedule=ScheduleSpec([(math.inf, math.inf)]),
        output_dir=run_dir,
    )
    base_cfg = default_config(
        seed=0, total_epochs=4, eval_every=2, n_train=16, n_val=n_val,
        scene=SceneConfig(seed=0),
        schedule=ScheduleSpec([(math.inf, 1)]),
        output_dir=base_dir,
    )
    run = run_experiment(cfg)
    base = run_experiment(base_cfg)

    before = read_summary_csv(f"{run_dir}/summary.csv")
    assert before["delta_flops_vs_baseline"] is None

    rebuilt = rebuild_summary(run_dir, base_dir)
    assert rebuilt == {**run.summary, "delta_flops_vs_baseline": delta_flops(run.ledger, base.ledger)}
    assert read_summary_csv(f"{run_dir}/summary.csv") == rebuilt


@pytest.mark.parametrize("writer", ["write_ledger_csv", "save_checkpoint"])
def test_interrupted_write_keeps_whole_files_and_marks_the_run_incomplete(tmp_path, monkeypatch, writer):
    out = tmp_path / "run"
    run = run_experiment(replace(_small_config([(math.inf, 1)], epochs=1, n_val=0), output_dir=str(out)))
    names = ["checkpoint.bin", "config.json", "curves.csv", "ledger.csv", "summary.csv"]
    assert sorted(os.listdir(out)) == names
    before = {name: (out / name).read_bytes() for name in names}

    # The low-level writer that the file goes through, and its temp file:
    # every table file goes through _write_rows, so the crash hits the
    # ledger's table only.
    inner, victim = {"write_ledger_csv": ("_write_rows", "ledger.csv.tmp"),
                     "save_checkpoint": ("save_checkpoint", "checkpoint.bin.tmp")}[writer]
    write = getattr(experiment, inner)

    def crash(*args):
        path = args[-1]
        if os.path.basename(path) != victim:
            return write(*args)
        with open(path, "wb") as fh:
            fh.write(b"FZCK")
        raise OSError("disk full")

    monkeypatch.setattr(experiment, inner, crash)
    with pytest.raises(OSError):
        write_run_dir(run)
    assert sorted(os.listdir(out)) == names[1:]
    for name in names[1:]:
        assert (out / name).read_bytes() == before[name], name
    with pytest.raises(ValueError, match="no checkpoint.bin") as exc:
        rebuild_summary(str(out), str(out))
    assert str(out) in str(exc.value)
