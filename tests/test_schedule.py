"""Freeze-signal scheduling and learning-rate schedule tests."""

import math

import numpy as np
import pytest

from freezelab.schedule import (
    BACKBONE_FROZEN,
    BACKBONE_UNFROZEN,
    LrConfig,
    ScheduleSpec,
    format_rho,
    lr_at,
    parse_rho,
    phase_freeze_signal,
)


# --------------------------------------------------------------------------
# one-phase schedules: a fixed period from epoch 0


def _step(epoch, rho):
    """The freeze signal at `epoch` of the one-phase schedule of period rho."""
    return phase_freeze_signal(epoch, ScheduleSpec([(math.inf, rho)]))


def test_rho_one_always_updates():
    assert _step(7, 1) == BACKBONE_UNFROZEN
    for epoch in range(40):
        assert _step(epoch, 1) == BACKBONE_UNFROZEN


def test_rho_inf_always_frozen():
    for epoch in (0, 1, 17, 399, 10**9):
        assert _step(epoch, math.inf) == BACKBONE_FROZEN


def test_fine_tune_window_rho_five_unfrozen_count():
    signals = [_step(e, 5) for e in range(50, 400)]
    zeros = [e for e, s in zip(range(50, 400), signals) if s == BACKBONE_UNFROZEN]
    assert len(zeros) == 70
    assert zeros == list(range(50, 400, 5))


def test_step_rejects_bad_rho():
    # a period is checked where its schedule is made
    for bad in (0, -1, 2.5, "5"):
        with pytest.raises(ValueError):
            ScheduleSpec([(math.inf, bad)])


def test_step_rejects_negative_epoch():
    with pytest.raises(ValueError):
        _step(-1, 2)


def test_frozen_count_matches_multiple_count_over_random_windows():
    # over any window [a, b): frozen = (b - a) - #(multiples of rho in window)
    rng = np.random.default_rng(41)
    for _ in range(200):
        a = int(rng.integers(0, 500))
        b = a + int(rng.integers(1, 300))
        rho = int(rng.integers(1, 25))
        frozen = sum(_step(e, rho) for e in range(a, b))
        multiples = sum(1 for e in range(a, b) if e % rho == 0)
        assert frozen == (b - a) - multiples
        assert sum(_step(e, math.inf) for e in range(a, b)) == b - a


def test_aligned_window_unfrozen_counts():
    for rho in (2, 5, 10):
        unfrozen = sum(
            1 for e in range(50, 400) if _step(e, rho) == BACKBONE_UNFROZEN
        )
        assert unfrozen == 350 // rho
    assert all(_step(e, math.inf) == BACKBONE_FROZEN for e in range(50, 400))


# --------------------------------------------------------------------------
# phased scheduler


def test_phase_boundary_is_exclusive():
    spec = ScheduleSpec([(50, 1), (math.inf, math.inf)])
    assert phase_freeze_signal(49, spec) == BACKBONE_UNFROZEN
    assert phase_freeze_signal(50, spec) == BACKBONE_FROZEN


def test_single_phase_full_training():
    spec = ScheduleSpec([(math.inf, 1)])
    assert all(phase_freeze_signal(e, spec) == BACKBONE_UNFROZEN for e in range(400))


def test_switch_then_alternate_counts():
    spec = ScheduleSpec([(50, 1), (math.inf, 2)])
    unfrozen = sum(
        1 for e in range(400) if phase_freeze_signal(e, spec) == BACKBONE_UNFROZEN
    )
    assert unfrozen == 225  # 50 warm epochs + 175 even epochs in [50, 400)


def test_single_phase_matches_step_scheduler():
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = math.inf if rng.integers(0, 4) == 0 else int(rng.integers(1, 12))
        spec = ScheduleSpec([(math.inf, rho)])
        epoch = int(rng.integers(0, 1000))
        unfrozen = rho != math.inf and epoch % rho == 0
        assert phase_freeze_signal(epoch, spec) == (BACKBONE_UNFROZEN if unfrozen else BACKBONE_FROZEN)


def test_rho_at_picks_first_covering_phase():
    spec = ScheduleSpec([(10, 1), (20, 5), (math.inf, math.inf)])
    assert spec.rho_at(0) == 1
    assert spec.rho_at(9) == 1
    assert spec.rho_at(10) == 5
    assert spec.rho_at(19) == 5
    assert spec.rho_at(20) == math.inf
    assert spec.rho_at(10**6) == math.inf


def test_schedule_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec([])
    with pytest.raises(ValueError):
        ScheduleSpec([(50, 1)])  # no inf tail
    with pytest.raises(ValueError):
        ScheduleSpec([(50, 1), (50, 2), (math.inf, 1)])  # not increasing
    with pytest.raises(ValueError):
        ScheduleSpec([(60, 1), (50, 2), (math.inf, 1)])  # decreasing
    with pytest.raises(ValueError):
        ScheduleSpec([(math.inf, 1), (math.inf, 2)])  # inf before last
    with pytest.raises(ValueError):
        ScheduleSpec([(50, 0), (math.inf, 1)])  # rho zero
    with pytest.raises(ValueError):
        ScheduleSpec([(50, -2), (math.inf, 1)])  # rho negative
    for end in (2.5, 2.0, True, "2.5", "4", "inf"):  # rejected, not truncated or read as text
        with pytest.raises(ValueError, match="phase end epoch must be a positive integer or inf"):
            ScheduleSpec([(end, 1), (math.inf, 2)])
    for rho in ("1", "inf"):  # a period is a number too
        with pytest.raises(ValueError, match="rho must be a positive integer or inf"):
            ScheduleSpec([(4, rho), (math.inf, 2)])


@pytest.mark.parametrize("raw,phases", [
    ([["4", "1"], ["inf", "2"]], [(4, 1), (math.inf, 2)]),
    ([[4, 1], ["Infinity", "inf"]], [(4, 1), (math.inf, math.inf)]),
])
def test_from_json_reads_text_ends_and_periods_as_numbers(raw, phases):
    assert ScheduleSpec.from_json(raw) == ScheduleSpec(phases)


def test_describe_is_compact():
    spec = ScheduleSpec([(50, 1), (math.inf, math.inf)])
    assert spec.describe() == "50:1|inf:inf"


# --------------------------------------------------------------------------
# rho parsing


def test_parse_and_format_rho():
    assert parse_rho("5") == 5
    assert parse_rho(5) == 5
    assert parse_rho("inf") == math.inf
    assert parse_rho("Infinity") == math.inf
    assert parse_rho(math.inf) == math.inf
    assert format_rho(5) == "5"
    assert format_rho(math.inf) == "inf"
    for text in ("0", "-3", "abc", 2.5, 2.0, True, "2.5", None, "²"):
        with pytest.raises(ValueError, match="rho must be a positive integer or inf"):
            parse_rho(text)


def test_rho_round_trips_through_text():
    for rho in (1, 2, 5, 10, math.inf):
        assert parse_rho(format_rho(rho)) == rho


# --------------------------------------------------------------------------
# learning rate


def test_first_iteration_rate():
    cfg = LrConfig(base_lr=0.005, warmup_iters=500)
    expected = 0.005 * (1.0 / 3.0) * 1 / 500
    assert lr_at(0, 0, cfg) == pytest.approx(expected, rel=1e-12)
    assert lr_at(0, 0, cfg) == pytest.approx(3.333e-6, rel=1e-3)


def test_post_warmup_rate_is_base():
    cfg = LrConfig(base_lr=0.005, warmup_iters=500)
    assert lr_at(500, 1, cfg) == 0.005


def test_decayed_rate():
    cfg = LrConfig(base_lr=0.005, warmup_iters=500)
    assert lr_at(10**6, 13, cfg) == 0.005 * 0.25
    assert lr_at(10**6, 12, cfg) == 0.005  # decay applies strictly after
    assert lr_at(10**6, 12 + 1, cfg) == 0.00125


def test_warmup_is_monotone_then_flat():
    cfg = LrConfig()
    rates = [lr_at(i, 0, cfg) for i in range(0, 700)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert all(r > 0 for r in rates)
    assert rates[500] == rates[699] == cfg.base_lr


def test_zero_warmup_skips_ramp():
    cfg = LrConfig(warmup_iters=0)
    assert lr_at(0, 0, cfg) == cfg.base_lr


def test_lr_rejects_negative_iteration():
    with pytest.raises(ValueError):
        lr_at(-1, 0, LrConfig())


def test_lr_config_validation():
    with pytest.raises(ValueError):
        LrConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        LrConfig(warmup_end_fraction=0.0)
    with pytest.raises(ValueError):
        LrConfig(warmup_end_fraction=1.5)
    with pytest.raises(ValueError):
        LrConfig(decay_factor=0.0)
    with pytest.raises(ValueError):
        LrConfig(warmup_iters=-5)
