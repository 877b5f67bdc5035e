"""End-to-end checks of the command-line front end."""

import csv
import json
import math
import re
import shutil

import pytest

from freezelab import experiment
from freezelab.cli import DELTA_MAP_COLUMNS, GRID_SUMMARY_COLUMNS, main
from freezelab.data import SceneConfig
from freezelab.experiment import default_config, load_config, read_summary_csv, save_config
from freezelab.model import default_desk_arch
from freezelab.schedule import ScheduleSpec


def _small_config_file(path, *, epochs=3, n_train=16, schedule=None):
    cfg = default_config(
        total_epochs=epochs,
        eval_every=2,
        n_train=n_train,
        n_val=8,
        scene=SceneConfig(seed=0),
        schedule=schedule if schedule is not None else ScheduleSpec([(math.inf, 1)]),
    )
    save_config(cfg, path)
    return cfg


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def test_init_config_writes_loadable_defaults(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    assert main(["init-config", str(path)]) == 0
    assert load_config(path) == default_config()
    assert str(path) in capsys.readouterr().out


def test_run_writes_the_run_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("config.json", "curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "run complete" in stdout
    assert read_summary_csv(out / "summary.csv")["delta_flops_vs_baseline"] is None


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, schedule=ScheduleSpec([(1, 1), (math.inf, 2)]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_with_baseline_run_dir_fills_delta(tmp_path):
    base_cfg = tmp_path / "base.json"
    _small_config_file(base_cfg)
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0

    frozen_cfg = tmp_path / "frozen.json"
    _small_config_file(frozen_cfg, schedule=ScheduleSpec([(1, 1), (math.inf, math.inf)]))
    frozen_out = tmp_path / "frozen"
    assert main([
        "run", "--config", str(frozen_cfg), "--out", str(frozen_out),
        "--baseline", str(base_out),
    ]) == 0
    summary = read_summary_csv(frozen_out / "summary.csv")
    assert summary["delta_flops_vs_baseline"] is not None
    assert summary["delta_flops_vs_baseline"] < 0


@pytest.mark.parametrize("epochs,n_train", [(3, 16), (4, 8)])
def test_run_rejects_a_baseline_of_another_shape_before_training(tmp_path, capsys, monkeypatch, epochs, n_train):
    cfg_path, base_cfg = tmp_path / "cfg.json", tmp_path / "base.json"
    _small_config_file(cfg_path, epochs=4)
    _small_config_file(base_cfg, epochs=epochs, n_train=n_train)
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0
    trained = []
    monkeypatch.setattr(experiment, "train_epoch", lambda *args, **kwargs: trained.append(args))

    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--baseline", str(base_out)]) == 1
    assert trained == []
    assert "ledgers describe different runs" in capsys.readouterr().err
    assert not out.exists()


SHAPE_ERROR = "ledgers describe different runs (model, epochs, or sample counts differ)"


def test_run_names_the_baseline_of_another_shape(tmp_path, capsys, monkeypatch):
    cfg_path, base_cfg = tmp_path / "a.json", tmp_path / "b.json"
    _small_config_file(cfg_path, epochs=1, n_train=16)
    _small_config_file(base_cfg, epochs=1, n_train=24)
    base_out = tmp_path / "runB"
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0
    trained = []
    monkeypatch.setattr(experiment, "train_epoch", lambda *args, **kwargs: trained.append(args))

    capsys.readouterr()
    out = tmp_path / "runC"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--baseline", str(base_out)]) == 1
    assert capsys.readouterr().err == f"error: {out} cannot be compared with baseline {base_out}: {SHAPE_ERROR}\n"
    assert trained == []
    assert not out.exists()


def test_report_names_the_run_and_the_baseline_of_another_shape(tmp_path, capsys):
    cfg_path, base_cfg = tmp_path / "a.json", tmp_path / "b.json"
    _small_config_file(cfg_path, epochs=1, n_train=16)
    _small_config_file(base_cfg, epochs=1, n_train=24)
    run_out, base_out = tmp_path / "runA", tmp_path / "runB"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_out)]) == 0
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0
    summary = (run_out / "summary.csv").read_bytes()

    capsys.readouterr()
    assert main(["report", "--run", str(run_out), "--baseline", str(base_out)]) == 1
    assert capsys.readouterr().err == f"error: {run_out} cannot be compared with baseline {base_out}: {SHAPE_ERROR}\n"
    assert (run_out / "summary.csv").read_bytes() == summary


def test_report_rebuilds_the_summary(tmp_path, capsys):
    base_cfg = tmp_path / "base.json"
    _small_config_file(base_cfg)
    base_out, run_out = tmp_path / "base", tmp_path / "run"
    run_cfg = tmp_path / "run.json"
    _small_config_file(run_cfg, schedule=ScheduleSpec([(1, 1), (math.inf, 2)]))
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0
    assert main(["run", "--config", str(run_cfg), "--out", str(run_out)]) == 0
    assert read_summary_csv(run_out / "summary.csv")["delta_flops_vs_baseline"] is None

    capsys.readouterr()
    assert main(["report", "--run", str(run_out), "--baseline", str(base_out)]) == 0
    assert "summary rebuilt" in capsys.readouterr().out
    assert read_summary_csv(run_out / "summary.csv")["delta_flops_vs_baseline"] < 0


@pytest.mark.parametrize("incomplete", ["run", "base"])
def test_report_refuses_a_run_directory_without_checkpoint(tmp_path, capsys, incomplete):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=1)
    dirs = {"run": tmp_path / "run", "base": tmp_path / "base"}
    assert main(["run", "--config", str(cfg_path), "--out", str(dirs["run"])]) == 0
    shutil.copytree(dirs["run"], dirs["base"])
    (dirs[incomplete] / "checkpoint.bin").unlink()
    summary = (dirs["run"] / "summary.csv").read_bytes()

    capsys.readouterr()
    assert main(["report", "--run", str(dirs["run"]), "--baseline", str(dirs["base"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(dirs[incomplete]) in err and "checkpoint.bin" in err
    assert (dirs["run"] / "summary.csv").read_bytes() == summary


def _edit_rows(path, edit):
    """Rewrite the CSV file at `path` with its data rows passed through
    `edit`, which changes the list of rows in place."""
    header, rows = _read_rows(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _freeze_last_ledger_row(rows):
    """Mark the last epoch frozen, with no backbone backward and a
    running total that fits, so the ledger passes every row check."""
    last = rows[-1]
    last[1], last[4] = "1", "0"
    last[7] = str(int(rows[-2][7]) + sum(int(x) for x in last[3:7]))


def _set_cell(row, column, value):
    def edit(rows):
        rows[row][column] = value
    return edit


def _swap_first_rows(rows):
    rows[0], rows[1] = rows[1], rows[0]


# A 4-epoch inf:1 run with eval_every=2: epochs 1 and 3 are evaluated.
@pytest.mark.parametrize("where,name,edit,message", [
    ("run", "ledger.csv", _freeze_last_ledger_row, "differs from the ledger its config.json plans"),
    ("base", "ledger.csv", _freeze_last_ledger_row, "differs from the ledger its config.json plans"),
    ("run", "curves.csv", list.clear, "holds 0 curves rows; its config.json plans 4"),
    ("run", "curves.csv", lambda rows: rows.pop(2), "holds 3 curves rows; its config.json plans 4"),
    ("run", "curves.csv", _swap_first_rows, "data row 1: (1, 0, "),
    ("run", "curves.csv", _set_cell(2, 1, "7"), "data row 3: (2, 7, "),
    ("run", "curves.csv", _set_cell(2, 4, "1"), ", 1, None) differs from the curves its config.json plans ((2, 0, "),
    ("run", "curves.csv", _set_cell(0, 5, "0.5"), ", 0.5) differs from the curves its config.json plans ((0, 0, "),
    ("run", "curves.csv", _set_cell(3, 5, "NA"), ", None) differs from the curves its config.json plans ((3, 0, "),
    ("run", "curves.csv", _set_cell(3, 5, "nan"), "line 5: val_map50 must be NA or in [0, 1], got nan"),
    ("run", "curves.csv", _set_cell(3, 5, "1.5"), "line 5: val_map50 must be NA or in [0, 1], got 1.5"),
    ("run", "curves.csv", _set_cell(1, 3, "99.0"), ", 99.0, "),
    ("base", "curves.csv", _set_cell(1, 3, "99.0"), ", 99.0, "),
], ids=["ledger-frozen", "baseline-ledger-frozen", "curves-header-only", "curves-row-deleted",
        "curves-rows-swapped", "curves-frozen-7", "curves-cum-flops", "curves-map-unevaluated",
        "curves-map-missing", "curves-map-nan", "curves-map-above-1", "curves-lr", "baseline-curves-lr"])
def test_report_refuses_a_run_directory_that_is_not_its_config_plan(tmp_path, capsys, where, name, edit, message):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=4)
    dirs = {"run": tmp_path / "run", "base": tmp_path / "base"}
    assert main(["run", "--config", str(cfg_path), "--out", str(dirs["run"])]) == 0
    shutil.copytree(dirs["run"], dirs["base"])
    path = dirs[where] / name
    _edit_rows(path, edit)
    summary = (dirs["run"] / "summary.csv").read_bytes()

    capsys.readouterr()
    assert main(["report", "--run", str(dirs["run"]), "--baseline", str(dirs["base"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err
    assert len(err.splitlines()) == 1
    assert (dirs["run"] / "summary.csv").read_bytes() == summary


def _negative_backbone_backward(rows):
    """Charge every epoch -5 backbone backward FLOPs, with running totals
    that fit, so the ledger passes every row check."""
    running = 0
    for row in rows:
        row[4] = "-5"
        running += sum(int(x) for x in row[3:7])
        row[7] = str(running)


def _remove_checkpoint(base_out):
    (base_out / "checkpoint.bin").unlink()
    return base_out


def _tamper(name, edit):
    def tamper(base_out):
        _edit_rows(base_out / name, edit)
        return base_out / name
    return tamper


# A 2-epoch inf:1 run with eval_every=2, and a run of the same config
# against it as its baseline.
@pytest.mark.parametrize("tamper,message", [
    (_tamper("ledger.csv", _negative_backbone_backward), "differs from the ledger its config.json plans"),
    (_remove_checkpoint, "is not a completed run directory: it has no checkpoint.bin"),
    (_tamper("curves.csv", _set_cell(0, 3, "99.0")), ", 99.0, "),
], ids=["ledger-negative-bwd-backbone", "no-checkpoint", "curves-lr"])
def test_run_refuses_a_baseline_that_is_not_its_config_plan_before_training(tmp_path, capsys, monkeypatch,
                                                                            tamper, message):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=2)
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(cfg_path), "--out", str(base_out)]) == 0
    named = tamper(base_out)
    trained = []
    monkeypatch.setattr(experiment, "train_epoch", lambda *args, **kwargs: trained.append(args))

    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--baseline", str(base_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and message in err
    assert len(err.splitlines()) == 1
    assert trained == []
    assert not out.exists()


def test_report_names_a_curves_file_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=1)
    run_out, base_out = tmp_path / "run", tmp_path / "base"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_out)]) == 0
    shutil.copytree(run_out, base_out)
    curves = run_out / "curves.csv"
    curves.write_bytes(curves.read_bytes() + b"\xff\n")
    summary = (run_out / "summary.csv").read_bytes()

    capsys.readouterr()
    assert main(["report", "--run", str(run_out), "--baseline", str(base_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curves}: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1
    assert (run_out / "summary.csv").read_bytes() == summary


def test_grid_sweeps_and_aggregates(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=4)
    out = tmp_path / "grid"
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2,2,inf",
        "--out", str(out), "--switch", "1",
    ]) == 0

    for label in ("1", "2", "inf"):
        run_dir = out / "seed_0" / f"rho_{label}"
        assert (run_dir / "summary.csv").exists(), label

    header, rows = _read_rows(out / "grid_summary.csv")
    assert tuple(header) == GRID_SUMMARY_COLUMNS
    assert [(r[0], r[1]) for r in rows] == [("0", "1"), ("0", "2"), ("0", "inf")]
    by_rho = {r[1]: r for r in rows}
    assert by_rho["1"][4] == "NA" and by_rho["1"][6] == "NA"
    # switch after epoch 1 of 4: rho=2 freezes epochs {1,3}, rho=inf {1,2,3}
    assert 3 * int(by_rho["2"][4]) == 2 * int(by_rho["inf"][4])
    assert int(by_rho["inf"][4]) < 0

    header, rows = _read_rows(out / "delta_map.csv")
    assert tuple(header) == DELTA_MAP_COLUMNS
    assert [r[0] for r in rows] == ["2", "inf"]
    for row in rows:
        assert row[1] == "1"
        assert row[3] == "NA"  # one seed: no spread
        assert row[4] == f"{float(row[2]):+.4f} (n=1)"

    stdout = capsys.readouterr().out
    assert "grid complete" in stdout
    assert "delta mAP@50" in stdout


def test_grid_aggregates_multiple_seeds(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    out = tmp_path / "grid"
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "inf",
        "--out", str(out), "--switch", "1", "--seeds", "0,1",
    ]) == 0
    assert (out / "seed_1" / "rho_inf" / "curves.csv").exists()

    _, rows = _read_rows(out / "delta_map.csv")
    assert rows[0][1] == "2"  # n_seeds
    deltas = []
    _, grid_rows = _read_rows(out / "grid_summary.csv")
    for row in grid_rows:
        if row[1] == "inf":
            deltas.append(float(row[6]))
    mean = sum(deltas) / 2
    assert float(rows[0][2]) == pytest.approx(mean, abs=1e-12)
    sample_std = abs(deltas[0] - deltas[1]) / math.sqrt(2)  # n - 1 = 1
    assert float(rows[0][3]) == pytest.approx(sample_std, abs=1e-12)
    assert rows[0][4] == f"{mean:+.4f} +/- {sample_std:.4f} (n=2)"


def test_grid_trains_a_repeated_seed_once(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=2)
    out = tmp_path / "grid"
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2,inf",
        "--out", str(out), "--switch", "1", "--seeds", "0,0",
    ]) == 0
    _, grid_rows = _read_rows(out / "grid_summary.csv")
    assert [row[:2] for row in grid_rows] == [["0", "1"], ["0", "2"], ["0", "inf"]]
    _, rows = _read_rows(out / "delta_map.csv")
    assert [(row[0], row[1], row[3]) for row in rows] == [("2", "1", "NA"), ("inf", "1", "NA")]


def test_grid_names_the_bad_part_of_seeds(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2",
        "--out", str(tmp_path / "g"), "--seeds", "0,x",
    ]) == 1
    assert capsys.readouterr().err == "error: --seeds takes integers, got 'x'\n"
    assert not (tmp_path / "g").exists()


def test_grid_names_the_bad_part_of_rhos(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "1,x",
        "--out", str(tmp_path / "g"),
    ]) == 1
    assert capsys.readouterr().err == "error: --rhos takes positive integers or inf, got 'x'\n"
    assert not (tmp_path / "g").exists()


def test_grid_rejects_switch_outside_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=3)
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2",
        "--out", str(tmp_path / "g"), "--switch", "3",
    ]) == 1
    assert capsys.readouterr().err == "error: --switch must fall inside (0, total_epochs=3), got 3\n"
    assert not (tmp_path / "g").exists()


def test_run_needs_an_output_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: config has no output_dir and --out was not given\n"


def test_grid_needs_an_output_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    assert main(["grid", "--config", str(cfg_path), "--rhos", "2"]) == 1
    assert capsys.readouterr().err == "error: config has no output_dir and --out was not given\n"


def _a_file_in_the_way(tmp_path, monkeypatch):
    """A small config, a regular file `afile` beside it, and the list of
    train_epoch calls from here on."""
    cfg_path, afile = tmp_path / "cfg.json", tmp_path / "afile"
    _small_config_file(cfg_path)
    afile.write_bytes(b"not a directory")
    trained = []
    monkeypatch.setattr(experiment, "train_epoch", lambda *args, **kwargs: trained.append(args))
    return cfg_path, afile, trained


@pytest.mark.parametrize("name", ["afile", "afile/sub"])
def test_run_refuses_an_output_path_at_or_under_a_file_before_training(tmp_path, capsys, monkeypatch, name):
    cfg_path, afile, trained = _a_file_in_the_way(tmp_path, monkeypatch)
    out = tmp_path / name
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write run directory {out}: {afile} is not a directory\n"
    assert trained == []
    assert afile.read_bytes() == b"not a directory"
    assert sorted(tmp_path.iterdir()) == [afile, cfg_path]


@pytest.mark.parametrize("name", ["afile", "afile/sub"])
def test_grid_refuses_an_output_path_at_or_under_a_file_before_training(tmp_path, capsys, monkeypatch, name):
    cfg_path, afile, trained = _a_file_in_the_way(tmp_path, monkeypatch)
    out = tmp_path / name
    assert main(["grid", "--config", str(cfg_path), "--rhos", "2", "--switch", "1", "--out", str(out)]) == 1
    run_dir = out / "seed_0" / "rho_1"
    assert capsys.readouterr().err == f"error: cannot write run directory {run_dir}: {afile} is not a directory\n"
    assert trained == []
    assert afile.read_bytes() == b"not a directory"
    assert sorted(tmp_path.iterdir()) == [afile, cfg_path]


def test_missing_config_is_one_diagnostic_line(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text,message", [
    ("[]", "expected a JSON object, got list"),
    ('{"seed": 0,', "Expecting property name"),
    ('{"scene": 5}', "config section 'scene' must be an object, got int"),
    ('{"bogus": 1}', "unknown config keys: ['bogus']"),
    ('{"seed": "x"}', "config key 'seed' must be an integer, got str"),
    ('{"total_epochs": 2.5}', "config key 'total_epochs' must be an integer, got float"),
    ('{"arch": 5}', "config key 'arch' must be an object, got int"),
    ('{"n_train": true, "total_epochs": 1, "n_val": 0}', "config key 'n_train' must be an integer, got bool"),
    ('{"lr": {"base_lr": "0.1"}}', "config key 'lr.base_lr' must be a number, got str"),
    ('{"schedule": [[2, "1"], ["inf", 2.5]]}', "rho must be a positive integer or inf, got 2.5"),
    ('{"schedule": [[2.5, "1"], ["inf", "2"]]}', "phase end epoch must be a positive integer or inf, got 2.5"),
    ('{"schedule": [["inf", null]]}', "rho must be a positive integer or inf, got None"),
    ('{"schedule": null}', "config key 'schedule' must be a list of [end_epoch, rho] pairs, got None"),
    ('{"schedule": 5}', "config key 'schedule' must be a list of [end_epoch, rho] pairs, got 5"),
    ('{"schedule": [5]}', "config key 'schedule' must be a list of [end_epoch, rho] pairs, got [5]"),
    ('{"schedule": [[4, 1], ["inf", 2], 7]}',
     "config key 'schedule' must be a list of [end_epoch, rho] pairs, got [[4, 1], ['inf', 2], 7]"),
    ('{"schedule": {"a": 1}}', "config key 'schedule' must be a list of [end_epoch, rho] pairs, got {'a': 1}"),
    ('{"schedule": ["i5"]}', "config key 'schedule' must be a list of [end_epoch, rho] pairs, got ['i5']"),
    ('{"sgd": {"clip_max_norm": NaN}}', "config key 'sgd.clip_max_norm' must be a finite number, got nan"),
    ('{"lr": {"base_lr": Infinity}}', "config key 'lr.base_lr' must be a finite number, got inf"),
    ('{"scene": {"noise_std": NaN}}', "config key 'scene.noise_std' must be a finite number, got nan"),
    ('{"time_model": {"minutes_frozen": -Infinity}}',
     "config key 'time_model.minutes_frozen' must be a finite number, got -inf"),
    ('{"output_dir": 5}', "config key 'output_dir' must be a string or null, got int"),
    (json.dumps({"arch": {**default_desk_arch(), "input_shape": [3, 32]}}),
     "input_shape must be [channels, H, W], got (3, 32)"),
    (json.dumps({"arch": {**default_desk_arch(), "grid_size": 3}}),
     "head output shape (128,) cannot form a 3x3 grid"),
    (json.dumps({"arch": {**default_desk_arch(), "grid_size": 4.7}}),
     "grid_size must be a positive integer, got 4.7"),
    (json.dumps({"arch": {**default_desk_arch(), "num_classes": "3"}}),
     "num_classes must be a positive integer, got '3'"),
    (json.dumps({"arch": {**default_desk_arch(), "input_shape": [3, 32, 32.9]}}),
     "input_shape[2] must be a positive integer, got 32.9"),
    (json.dumps({"arch": {**default_desk_arch(), "backbone": [
        {"kind": "conv2d", "in_channels": 3, "out_channels": 8, "kernel": 3, "stride": True}]}}),
     "conv2d layer 0 stride must be a positive integer, got True"),
    ('{"scene": {"channels": 1}}', "scene images of shape [1, 32, 32] do not fit the arch's input_shape [3, 32, 32]"),
    ('{"scene": {"image_size": 16}}', "scene images of shape [3, 16, 16] do not fit the arch's input_shape [3, 32, 32]"),
    ('{"scene": {"num_classes": 5}}', "scene.num_classes 5 exceeds the arch's num_classes 3"),
    ('{"version": true}', "unsupported config version True (this build reads version 1)"),
    ('{"version": 1.0}', "unsupported config version 1.0 (this build reads version 1)"),
], ids=["list", "truncated", "scene-int", "unknown-key", "seed-str", "epochs-float", "arch-int",
        "n-train-bool", "lr-str", "rho-float", "end-float", "rho-null", "schedule-null", "schedule-int",
        "schedule-flat", "schedule-phase-int", "schedule-object", "schedule-str", "clip-nan", "lr-inf",
        "noise-nan", "time-minus-inf", "output-dir-int",
        "arch-input-2d", "arch-grid-3", "arch-grid-float", "arch-classes-str", "arch-input-float",
        "arch-stride-bool", "scene-channels", "scene-size", "scene-classes", "version-bool",
        "version-float"])
def test_run_rejects_a_bad_config_with_one_error_naming_the_file(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{cfg_path}: ")) as exc:
        load_config(cfg_path)
    assert message in str(exc.value)

    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc.value}\n"
    assert not out.exists()


def test_report_rewrites_only_the_summary(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=2)
    run_cfg = tmp_path / "run.json"
    _small_config_file(run_cfg, epochs=2, schedule=ScheduleSpec([(1, 1), (math.inf, math.inf)]))
    base_out, run_out = tmp_path / "base", tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(base_out)]) == 0
    assert main(["run", "--config", str(run_cfg), "--out", str(run_out)]) == 0

    def stamps():
        return {(d.name, name): ((d / name).stat().st_ino, (d / name).stat().st_mtime_ns)
                for d in (run_out, base_out)
                for name in ("config.json", "curves.csv", "ledger.csv", "checkpoint.bin")}

    before = stamps()
    assert main(["report", "--run", str(run_out), "--baseline", str(base_out)]) == 0
    assert stamps() == before
    assert sorted(p.name for p in run_out.iterdir()) == [
        "checkpoint.bin", "config.json", "curves.csv", "ledger.csv", "summary.csv"]
    assert read_summary_csv(run_out / "summary.csv")["delta_flops_vs_baseline"] < 0


def test_grid_summary_rows_equal_the_run_summaries(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    out = tmp_path / "grid"
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2,inf",
        "--out", str(out), "--switch", "1", "--seeds", "0,1",
    ]) == 0
    _, rows = _read_rows(out / "grid_summary.csv")
    assert len(rows) == 6
    for row in rows:
        seed, label, fmap, flops_, dflops, minutes, _ = row
        summary = read_summary_csv(out / f"seed_{seed}" / f"rho_{label}" / "summary.csv")
        assert float(fmap) == summary["final_map50"]
        assert int(flops_) == summary["total_flops"]
        assert (None if dflops == "NA" else int(dflops)) == summary["delta_flops_vs_baseline"]
        assert float(minutes) == summary["estimated_minutes"]
