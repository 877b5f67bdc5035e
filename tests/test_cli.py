"""End-to-end checks of the command-line front end."""

import csv
import math
import shutil

import pytest

from freezelab.cli import DELTA_MAP_COLUMNS, GRID_SUMMARY_COLUMNS, main
from freezelab.data import SceneConfig
from freezelab.experiment import default_config, load_config, read_summary_csv, save_config
from freezelab.schedule import ScheduleSpec


def _small_config_file(path, *, epochs=3, schedule=None):
    cfg = default_config(
        total_epochs=epochs,
        eval_every=2,
        n_train=16,
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


def test_run_with_baseline_ledger_fills_delta(tmp_path):
    base_cfg = tmp_path / "base.json"
    _small_config_file(base_cfg)
    base_out = tmp_path / "base"
    assert main(["run", "--config", str(base_cfg), "--out", str(base_out)]) == 0

    frozen_cfg = tmp_path / "frozen.json"
    _small_config_file(frozen_cfg, schedule=ScheduleSpec([(1, 1), (math.inf, math.inf)]))
    frozen_out = tmp_path / "frozen"
    assert main([
        "run", "--config", str(frozen_cfg), "--out", str(frozen_out),
        "--baseline", str(base_out / "ledger.csv"),
    ]) == 0
    summary = read_summary_csv(frozen_out / "summary.csv")
    assert summary["delta_flops_vs_baseline"] is not None
    assert summary["delta_flops_vs_baseline"] < 0


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
        assert float(row[3]) == 0.0  # one seed: no spread
        assert row[4].endswith("+/- 0.0000")

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


def test_grid_rejects_switch_outside_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path, epochs=3)
    assert main([
        "grid", "--config", str(cfg_path), "--rhos", "2",
        "--out", str(tmp_path / "g"), "--switch", "3",
    ]) == 1
    assert "--switch" in capsys.readouterr().err


def test_run_needs_an_output_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _small_config_file(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "output_dir" in capsys.readouterr().err


def test_missing_config_is_one_diagnostic_line(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
