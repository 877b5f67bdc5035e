"""FLOP accounting tests: per-layer counts, the epoch ledger, cost deltas,
the period-scaling law, and the epoch-time estimator."""

import csv
import math
import re
import shutil
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from freezelab.data import SceneConfig
from freezelab.experiment import default_config, read_run_dir, run_experiment, write_ledger_csv
from freezelab.flops import (
    FlopsLedger,
    LayerFlopsSpec,
    TimeModel,
    delta_flops,
    estimate_training_time,
    layer_forward_flops,
)
from freezelab.model import Layer
from freezelab.schedule import ScheduleSpec, phase_freeze_signal

INF = math.inf


def _two_group_model():
    return [LayerFlopsSpec(0, "backbone", 100), LayerFlopsSpec(1, "head", 50)]


# --------------------------------------------------------------------------
# per-layer counts


def test_dense_flops():
    layer = Layer("dense", 0, in_features=3, out_features=2)
    assert layer_forward_flops(layer, (3,)) == 14


def test_relu_flops():
    layer = Layer("relu", 0)
    assert layer_forward_flops(layer, (10,)) == 10
    assert layer_forward_flops(layer, (2, 5)) == 10


def test_conv2d_flops():
    layer = Layer("conv2d", 0, in_channels=1, out_channels=1, kernel=2, stride=1)
    assert layer_forward_flops(layer, (1, 3, 3)) == 36


def test_maxpool_flops_counts_comparisons():
    layer = Layer("maxpool2d", 0, kernel=2)
    # 3 comparisons per 2x2 window, 4 windows per channel, 2 channels
    assert layer_forward_flops(layer, (2, 4, 4)) == 3 * 4 * 2


def test_flatten_flops():
    layer = Layer("flatten", 0)
    assert layer_forward_flops(layer, (4, 2, 2)) == 16


def test_layer_flops_rejects_wrong_shape():
    layer = Layer("dense", 0, in_features=3, out_features=2)
    with pytest.raises(ValueError):
        layer_forward_flops(layer, (4,))
    conv = Layer("conv2d", 1, in_channels=1, out_channels=1, kernel=5)
    with pytest.raises(ValueError):
        layer_forward_flops(conv, (1, 3, 3))


def test_counts_are_python_ints():
    layer = Layer("dense", 0, in_features=10**6, out_features=10**6)
    n = layer_forward_flops(layer, (10**6,))
    assert isinstance(n, int)
    assert n == 2 * 10**12 + 10**6  # would overflow int64 territory soon after


# --------------------------------------------------------------------------
# epoch recording


def test_unfrozen_epoch_total():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 0, _two_group_model(), n_samples=10)
    assert ledger.records[-1].total() == 4500  # 10 * 3 * (100 + 50)


def test_frozen_epoch_total():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 1, _two_group_model(), n_samples=10)
    assert ledger.records[-1].total() == 2500  # 10 * (100 + 3 * 50)


def test_empty_epoch_changes_nothing():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 0, _two_group_model(), n_samples=0)
    assert ledger.total_flops() == 0


def test_two_epoch_totals():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 0, _two_group_model(), n_samples=10)
    ledger.record_epoch(1, 1, _two_group_model(), n_samples=10)
    assert ledger.total_flops() == 7000
    assert ledger.cumulative_totals() == [4500, 7000]


def test_duplicate_epoch_rejected():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 0, _two_group_model(), n_samples=1)
    with pytest.raises(ValueError):
        ledger.record_epoch(0, 1, _two_group_model(), n_samples=1)


def test_model_mismatch_rejected():
    ledger = FlopsLedger(_two_group_model())
    ledger.record_epoch(0, 0, _two_group_model(), n_samples=1)
    other = [LayerFlopsSpec(0, "backbone", 100), LayerFlopsSpec(1, "head", 51)]
    with pytest.raises(ValueError):
        ledger.record_epoch(1, 0, other, n_samples=1)


def test_a_ledger_built_for_a_model_rejects_another_model_spec():
    ledger = FlopsLedger(_two_group_model())
    other = [LayerFlopsSpec(0, "backbone", 100), LayerFlopsSpec(1, "neck", 50)]
    with pytest.raises(ValueError, match="model spec does not match the one this ledger was built for"):
        ledger.record_epoch(0, 0, other, n_samples=1)
    assert ledger.records == []


def test_bad_freeze_and_sample_count_rejected():
    ledger = FlopsLedger(_two_group_model())
    with pytest.raises(ValueError):
        ledger.record_epoch(0, 2, _two_group_model(), n_samples=1)
    with pytest.raises(ValueError):
        ledger.record_epoch(0, 0, _two_group_model(), n_samples=-1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LayerFlopsSpec(0, "torso", 10)
    with pytest.raises(ValueError):
        LayerFlopsSpec(0, "head", -1)


# --------------------------------------------------------------------------
# deltas


def _run_ledger(model, signals, n_samples):
    ledger = FlopsLedger(model)
    for epoch, sig in enumerate(signals):
        ledger.record_epoch(epoch, sig, model, n_samples)
    return ledger


def test_delta_against_itself_is_zero():
    ledger = _run_ledger(_two_group_model(), [0, 1, 0], 10)
    assert delta_flops(ledger, ledger) == 0


def test_all_frozen_vs_all_unfrozen_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n_layers = int(rng.integers(1, 6))
        model = [
            LayerFlopsSpec(i, ("backbone", "neck", "head")[int(rng.integers(0, 3))], int(rng.integers(0, 500)))
            for i in range(n_layers)
        ]
        epochs = int(rng.integers(1, 30))
        n = int(rng.integers(0, 40))
        frozen = _run_ledger(model, [1] * epochs, n)
        unfrozen = _run_ledger(model, [0] * epochs, n)
        backbone_fwd = sum(s.forward_flops_per_sample for s in model if s.group == "backbone")
        assert delta_flops(frozen, unfrozen) == -epochs * n * 2 * backbone_fwd


def test_mismatched_runs_rejected():
    model = _two_group_model()
    a = _run_ledger(model, [0, 0], 10)
    b = _run_ledger(model, [0, 0, 0], 10)  # extra epoch
    with pytest.raises(ValueError):
        delta_flops(a, b)
    c = _run_ledger(model, [0, 0], 11)  # different sample count
    with pytest.raises(ValueError):
        delta_flops(a, c)
    other = [LayerFlopsSpec(0, "backbone", 101), LayerFlopsSpec(1, "head", 50)]
    d = _run_ledger(other, [0, 0], 10)
    with pytest.raises(ValueError):
        delta_flops(a, d)


def test_ledgers_of_one_run_shape_but_different_models_are_rejected():
    # The same forward cost per group and epoch, split over other layers.
    a = _run_ledger(_two_group_model(), [0, 1], 10)
    split = [LayerFlopsSpec(0, "backbone", 60), LayerFlopsSpec(1, "backbone", 40), LayerFlopsSpec(2, "head", 50)]
    b = _run_ledger(split, [0, 0], 10)
    with pytest.raises(ValueError, match="ledgers describe different models"):
        delta_flops(a, b)


def test_freeze_flags_alone_may_differ():
    model = _two_group_model()
    a = _run_ledger(model, [0, 1, 0, 1], 10)
    b = _run_ledger(model, [0, 0, 0, 0], 10)
    assert delta_flops(a, b) == -2 * 10 * 2 * 100  # two frozen epochs in a


# --------------------------------------------------------------------------
# brute-force totals oracle


def test_totals_match_triple_sum_oracle():
    # independent per-(epoch, sample, layer) recomputation, exact equality
    rng = np.random.default_rng(23)
    for _ in range(50):
        n_layers = int(rng.integers(1, 7))
        model = [
            LayerFlopsSpec(i, ("backbone", "neck", "head")[int(rng.integers(0, 3))], int(rng.integers(0, 300)))
            for i in range(n_layers)
        ]
        epochs = int(rng.integers(1, 25))
        n = int(rng.integers(0, 20))
        rho = INF if rng.integers(0, 5) == 0 else int(rng.integers(1, 8))
        signals = [phase_freeze_signal(e, ScheduleSpec([(math.inf, rho)])) for e in range(epochs)]
        ledger = _run_ledger(model, signals, n)

        expected = 0
        for epoch in range(epochs):
            for _sample in range(n):
                for spec in model:
                    expected += spec.forward_flops_per_sample
                    trained = spec.group != "backbone" or signals[epoch] == 0
                    if trained:
                        expected += 2 * spec.forward_flops_per_sample
        assert ledger.total_flops() == expected


# --------------------------------------------------------------------------
# the period-scaling law on the aligned window


def _window_ledger(model, rho, total_epochs=400, switch=50, n=4):
    spec = ScheduleSpec([(switch, 1), (INF, rho)])
    signals = [phase_freeze_signal(e, spec) for e in range(total_epochs)]
    return _run_ledger(model, signals, n)


def test_savings_scale_by_one_minus_inverse_rho():
    model = [
        LayerFlopsSpec(0, "backbone", 700),
        LayerFlopsSpec(1, "neck", 90),
        LayerFlopsSpec(2, "head", 210),
    ]
    baseline = _window_ledger(model, 1)
    d_inf = delta_flops(_window_ledger(model, INF), baseline)
    assert d_inf == -350 * 4 * 2 * 700
    for rho in (2, 5, 10):
        d = delta_flops(_window_ledger(model, rho), baseline)
        assert Fraction(d, d_inf) == Fraction(rho - 1, rho)


def test_reported_delta_integers_match_the_scaling_law():
    # published per-rho deltas, in scaled units: the three smaller savings
    # are the rho=inf value times (1 - 1/rho), rounded to integers
    d_inf = 2_340_676
    printed = {2: 1_170_338, 5: 1_872_541, 10: 2_106_608}
    for rho, value in printed.items():
        exact = Fraction(rho - 1, rho) * d_inf
        assert abs(Fraction(value) - exact) <= Fraction(1, 2)


def test_total_flops_non_increasing_in_rho():
    model = [LayerFlopsSpec(0, "backbone", 123), LayerFlopsSpec(1, "head", 45)]
    rhos = list(range(1, 21)) + [INF]
    totals = [_window_ledger(model, rho, total_epochs=120, switch=10).total_flops() for rho in rhos]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


# --------------------------------------------------------------------------
# time estimation


def test_time_model_table():
    tm = TimeModel(23.0, 16.0)
    rows = {
        9_200.0: ScheduleSpec([(INF, 1)]),
        6_400.0: ScheduleSpec([(INF, INF)]),
        7_975.0: ScheduleSpec([(50, 1), (INF, 2)]),
        7_240.0: ScheduleSpec([(50, 1), (INF, 5)]),
        6_995.0: ScheduleSpec([(50, 1), (INF, 10)]),
        6_750.0: ScheduleSpec([(50, 1), (INF, INF)]),
    }
    for minutes, spec in rows.items():
        assert estimate_training_time(tm, spec, 400) == minutes


def test_time_model_validation():
    with pytest.raises(ValueError):
        TimeModel(16.0, 23.0)  # frozen slower than unfrozen
    with pytest.raises(ValueError):
        TimeModel(0.0, 0.0)
    with pytest.raises(ValueError):
        estimate_training_time(TimeModel(), ScheduleSpec([(INF, 1)]), 0)


# --------------------------------------------------------------------------
# ledger.csv against its plan: read_run_dir accepts a run directory's
# ledger.csv only when its rows are those its config.json plans


@pytest.fixture(scope="module")
def planned_run(tmp_path_factory):
    """A completed 2-epoch run directory whose epochs are unfrozen, then frozen."""
    out = tmp_path_factory.mktemp("planned") / "run"
    run_experiment(default_config(total_epochs=2, n_train=8, n_val=0, scene=SceneConfig(seed=0),
                                  schedule=ScheduleSpec([(1, 1), (INF, INF)]), output_dir=str(out)))
    return out


def _rewrite_ledger(planned_run, tmp_path, mangle):
    """A copy of the run directory whose ledger.csv lines went through `mangle`."""
    run_dir = tmp_path / "run"
    shutil.copytree(planned_run, run_dir)
    path = run_dir / "ledger.csv"
    lines = mangle(path.read_text().splitlines())
    # a lone surrogate escape stands for the one raw byte it encodes
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    return run_dir, path


def _refusal(run_dir):
    with pytest.raises(ValueError) as exc:
        read_run_dir(run_dir)
    return str(exc.value)


def test_ledger_csv_round_trip(planned_run, tmp_path):
    _, ledger, _ = read_run_dir(planned_run)
    assert [r.frozen for r in ledger.records] == [0, 1]
    # the planned ledger the reader returns writes the file's bytes
    path = tmp_path / "again.csv"
    write_ledger_csv(ledger, path)
    assert path.read_bytes() == (planned_run / "ledger.csv").read_bytes()
    # an integer field may carry spaces around it
    run_dir, _ = _rewrite_ledger(planned_run, tmp_path, lambda lines: [
        lines[0], *(" " + line.replace(",", " , ") + " " for line in lines[1:])])
    assert read_run_dir(run_dir)[1].records == ledger.records


def test_ledger_csv_rejects_foreign_header(planned_run, tmp_path):
    run_dir, path = _rewrite_ledger(planned_run, tmp_path, lambda lines: ["epoch,stuff", "0,1"])
    message = _refusal(run_dir)
    assert message == f"unexpected header in {path}: ['epoch', 'stuff']"


def test_ledger_csv_rejects_duplicate_epochs(planned_run, tmp_path):
    run_dir, path = _rewrite_ledger(planned_run, tmp_path, lambda lines: lines + [lines[1]])
    assert _refusal(run_dir) == f"{path} holds 3 ledger rows; its config.json plans 2"


def _with_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


def _fixed_totals(lines):
    """The lines with every cum_total the running sum of the rows' charges."""
    out, running = lines[:1], 0
    for line in lines[1:]:
        fields = line.split(",")
        running += sum(int(x) for x in fields[3:7])
        out.append(_with_field(line, 7, str(running)))
    return out


PLAN_FAULT = "...] differs from the ledger its config.json plans ([..."


@pytest.mark.parametrize("mangle,message", [
    (lambda lines: [], "is empty"),
    (lambda lines: lines[:1], "holds 0 ledger rows; its config.json plans 2"),
    (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], lines[2]], "line 2: expected 8 fields, got 7"),
    (lambda lines: [lines[0], _with_field(lines[1], 1, "7"), lines[2]], "data row 1: [0, 7, 8," + PLAN_FAULT),
    (lambda lines: [lines[0], lines[1], _with_field(lines[2], 7, "1")], "data row 2: [1, 1, 8," + PLAN_FAULT),
    (lambda lines: [lines[0], _with_field(lines[1], 3, "x"), lines[2]], "line 2: invalid literal"),
    (lambda lines: _fixed_totals([lines[0], _with_field(lines[1], 2, "-5"), lines[2]]),
     "data row 1: [0, 0, -5," + PLAN_FAULT),
    (lambda lines: [lines[0], _with_field(lines[1], 3, "\udcff"), lines[2]],
     ": 'utf-8' codec can't decode byte 0xff"),
    (lambda lines: [lines[0], _with_field(lines[1], 3, "9" * (csv.field_size_limit() + 1)), lines[2]],
     "line 2: field larger than field limit"),
    (lambda lines: [lines[0], lines[2], lines[1]], "data row 1: [1, 1, 8," + PLAN_FAULT),
], ids=["empty", "header-only", "short-row", "frozen-7", "cum-total", "not-an-int", "negative-samples",
        "not-utf8", "field-over-limit", "swapped-rows"])
def test_ledger_csv_rejects_malformed_files(planned_run, tmp_path, mangle, message):
    # a parse fault names the line, a plan fault the data row; "..." in
    # `message` stands for any text
    run_dir, path = _rewrite_ledger(planned_run, tmp_path, mangle)
    refusal = _refusal(run_dir)
    assert str(path) in refusal and "\n" not in refusal
    assert re.search(".*".join(map(re.escape, message.split("..."))), refusal)
