"""Acceptance gate: ten checks covering the package's headline guarantees.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL (...)` line, visible
under `pytest -s`. Nine checks pass. Check 9 is split: the measured savings
law holds exactly in its integer form (9a), while the idealized fractional
form is marked as an expected failure (9b) because a scheduler that freezes
whole epochs cannot produce fractional frozen-epoch counts; the printed
line carries the arithmetic.
"""

import csv
import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from freezelab import autodiff as ad
from freezelab.autodiff import PRIMITIVE_KINDS, Tape, Tensor, backward
from freezelab.cli import GRID_SUMMARY_COLUMNS, main
from freezelab.data import SceneConfig, generate_dataset
from freezelab.evaluation import BBox, Detection, GroundTruth, map50
from freezelab.experiment import (
    RunCache,
    default_config,
    read_curves_csv,
    run_experiment,
    save_config,
    train_epoch,
)
from freezelab.flops import (
    FlopsLedger,
    GROUPS,
    LayerFlopsSpec,
    TimeModel,
    delta_flops,
    estimate_training_time,
)
from freezelab.model import (
    build_detector,
    default_desk_arch,
    detection_loss,
    detector_forward,
    encode_targets,
    parameter_groups,
)
from freezelab.optim import OptimState, clip_gradients, sgd_step
from freezelab.rng import STREAM_BATCH_SHUFFLE, generator
from freezelab.schedule import ScheduleSpec, lr_at, phase_freeze_signal

from helpers import analytic_gradients, fd_gradient, rel_error


def _stamp(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")


def _param_bytes(detector):
    return b"".join(
        np.ascontiguousarray(t.data).tobytes() for _, t in detector.parameters()
    )


def _backbone_bytes(detector):
    pids = set(parameter_groups(detector)["backbone"])
    return b"".join(
        np.ascontiguousarray(t.data).tobytes()
        for pid, t in detector.parameters()
        if pid in pids
    )


# --------------------------------------------------------------------------
# 1. gradient oracle


def _kink_free(rng, shape, gap=1e-3):
    vals = rng.uniform(-2.0, 2.0, size=shape)
    return np.where(np.abs(vals) < gap, vals + np.sign(vals + 1e-12) * gap * 2, vals)


def _gradient_case(kind, trial, rng):
    sq = lambda t: ad.reduce_sum(ad.multiply(t, t))
    if kind == "add":
        if trial % 2:
            arrays = [_kink_free(rng, (3, 4)), _kink_free(rng, (3, 4))]
        else:
            arrays = [_kink_free(rng, (2, 5)), _kink_free(rng, (5,))]
        return (lambda a, b: sq(ad.add(a, b)),
                lambda a, b: float(np.sum((a + b) ** 2)), arrays)
    if kind == "multiply":
        shape_b = (4, 3) if trial % 2 else ()
        arrays = [_kink_free(rng, (4, 3)), _kink_free(rng, shape_b)]
        return (lambda a, b: sq(ad.multiply(a, b)),
                lambda a, b: float(np.sum((a * b) ** 2)), arrays)
    if kind == "matmul":
        arrays = [_kink_free(rng, (3, 4)), _kink_free(rng, (4, 2))]
        return (lambda a, b: sq(ad.matmul(a, b)),
                lambda a, b: float(np.sum((a @ b) ** 2)), arrays)
    if kind == "conv2d":
        stride = 1 + trial % 2
        arrays = [_kink_free(rng, (2, 2, 5, 5)), _kink_free(rng, (3, 2, 2, 2)),
                  _kink_free(rng, (3,))]

        def func(x, w, b, _s=stride):
            ho = (5 - 2) // _s + 1
            out = np.zeros((2, 3, ho, ho))
            for bi in range(2):
                for oc in range(3):
                    for oy in range(ho):
                        for ox in range(ho):
                            patch = x[bi, :, oy * _s : oy * _s + 2, ox * _s : ox * _s + 2]
                            out[bi, oc, oy, ox] = np.sum(patch * w[oc]) + b[oc]
            return float(np.sum(out**2))

        return (lambda x, w, b: sq(ad.conv2d(x, w, bias=b, stride=stride)), func, arrays)
    if kind == "relu":
        arrays = [_kink_free(rng, (4, 4))]
        return (lambda a: sq(ad.relu(a)),
                lambda a: float(np.sum(np.maximum(a, 0.0) ** 2)), arrays)
    if kind == "maxpool2d":
        arrays = [_kink_free(rng, (2, 2, 4, 4))]
        return (lambda a: sq(ad.maxpool2d(a, kernel=2, stride=2)),
                lambda a: float(np.sum(a.reshape(2, 2, 2, 2, 2, 2).max(axis=(3, 5)) ** 2)),
                arrays)
    if kind == "flatten":
        arrays = [_kink_free(rng, (2, 3, 4))]
        return (lambda a: sq(ad.flatten(a)),
                lambda a: float(np.sum(a.reshape(2, -1) ** 2)), arrays)
    if kind == "mean":
        arrays = [_kink_free(rng, (6, 3))]
        return (lambda a: ad.reduce_mean(ad.multiply(a, a)),
                lambda a: float(np.mean(a**2)), arrays)
    arrays = [_kink_free(rng, (5, 2))]  # sum
    return (lambda a: ad.reduce_sum(ad.multiply(a, a)),
            lambda a: float(np.sum(a**2)), arrays)


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(811)
    start = time.monotonic()
    worst = 0.0
    covered = set()
    for trial in range(100):
        kind = PRIMITIVE_KINDS[trial % len(PRIMITIVE_KINDS)]
        covered.add(kind)
        build, func, arrays = _gradient_case(kind, trial, rng)
        analytic = analytic_gradients(build, arrays)
        for i, arr in enumerate(arrays):
            numeric = fd_gradient(func, arrays, i)
            got = analytic[i] if analytic[i] is not None else np.zeros_like(numeric)
            worst = max(worst, rel_error(got, numeric))
    elapsed = time.monotonic() - start

    ok = worst <= 1e-6 and covered == set(PRIMITIVE_KINDS) and elapsed < 30.0
    _stamp(1, "gradient-oracle", ok,
           f"100 randomized instances, all {len(covered)} primitives, "
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert covered == set(PRIMITIVE_KINDS)
    assert worst <= 1e-6
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 2. detach semantics


def _random_targets(rng, batch, grid, classes):
    t = np.zeros((batch, grid, grid, 1 + classes + 4))
    for bi in range(batch):
        for sy in range(grid):
            for sx in range(grid):
                if rng.uniform() < 0.4:
                    t[bi, sy, sx, 0] = 1.0
                    t[bi, sy, sx, 1 + int(rng.integers(classes))] = 1.0
                    t[bi, sy, sx, 1 + classes :] = rng.normal(size=4)
    return t


def _random_arch(rng):
    channels = int(rng.choice([1, 3]))
    size = int(rng.choice([8, 12]))
    out_channels = int(rng.integers(2, 5))
    backbone = [
        {"kind": "conv2d", "in_channels": channels, "out_channels": out_channels, "kernel": 3},
        {"kind": "relu"},
    ]
    side = size - 2
    if rng.integers(2):
        backbone.append({"kind": "maxpool2d", "kernel": 2})
        side //= 2
    classes = int(rng.integers(2, 4))
    flat = out_channels * side * side
    head_out = 2 * 2 * (1 + classes + 4)
    if rng.integers(2):
        head = [
            {"kind": "dense", "in_features": flat, "out_features": 16},
            {"kind": "relu"},
            {"kind": "dense", "in_features": 16, "out_features": head_out},
        ]
    else:
        head = [{"kind": "dense", "in_features": flat, "out_features": head_out}]
    arch = {
        "input_shape": [channels, size, size],
        "grid_size": 2,
        "num_classes": classes,
        "backbone": backbone,
        "neck": [{"kind": "flatten"}],
        "head": head,
    }
    return arch, size, channels, classes


def test_criterion_02_detach_semantics():
    rng = np.random.default_rng(822)
    start = time.monotonic()
    for trial in range(20):
        arch, size, channels, classes = _random_arch(rng)
        detector = build_detector(arch, init_seed=trial)
        batch = Tensor(rng.uniform(0.0, 1.0, size=(2, channels, size, size)))
        targets = _random_targets(rng, 2, 2, classes)
        table = detector.grad_key_table()
        backbone_ids = set(parameter_groups(detector)["backbone"])

        live = detector_forward(detector, batch, freeze=0)
        frozen = detector_forward(detector, batch, freeze=1)
        assert live.tensor.data.tobytes() == frozen.tensor.data.tobytes(), trial

        with Tape() as tape:
            pred = detector_forward(detector, batch, freeze=1)
            loss = detection_loss(pred, targets)
        grads = {table[u]: g for u, g in backward(loss, tape).items()}
        assert not set(grads) & backbone_ids, trial  # absent == exactly zero
        head_ids = set(parameter_groups(detector)["head"])
        assert set(grads) & head_ids, trial
    elapsed = time.monotonic() - start

    ok = elapsed < 10.0
    _stamp(2, "detach-semantics", ok,
           "20 randomized detectors: forward bit-identical under the freeze "
           f"signal, zero frozen-backbone gradients, {elapsed:.1f}s")
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 3. schedule equivalences


def _reference_training(cfg, freeze_flag, drop_backbone):
    """The run loop rebuilt by hand, with the freeze machinery replaced by
    a constant: either plain full training, or a backbone the optimizer
    never sees."""
    scenes, _ = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    dropped = set(parameter_groups(detector)["backbone"]) if drop_backbone else set()
    params = {pid: t for pid, t in detector.parameters() if pid not in dropped}
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
                pred = detector_forward(detector, batch, freeze_flag)
                loss = detection_loss(pred, targets)
            grads = {key_of[u]: g for u, g in backward(loss, tape).items()}
            grads = clip_gradients(grads, cfg.sgd.clip_max_norm)
            sgd_step(params, grads, state, lr_at(iteration, epoch, cfg.lr), cfg.sgd)
            losses.append(loss.item())
            iteration += 1
        mean_losses.append(float(np.mean(losses)))
    return detector, mean_losses


def test_criterion_03_schedule_equivalence():
    start = time.monotonic()

    cfg_active = default_config(total_epochs=12)
    run_active = run_experiment(cfg_active)
    ref_active, losses_active = _reference_training(cfg_active, 0, False)
    active_ok = (
        [r.mean_loss for r in run_active.records] == losses_active
        and _param_bytes(run_active.detector) == _param_bytes(ref_active)
    )

    cfg_frozen = default_config(
        total_epochs=12, schedule=ScheduleSpec([(math.inf, math.inf)])
    )
    run_frozen = run_experiment(cfg_frozen)
    ref_frozen, losses_frozen = _reference_training(cfg_frozen, 1, True)
    frozen_ok = (
        [r.mean_loss for r in run_frozen.records] == losses_frozen
        and _param_bytes(run_frozen.detector) == _param_bytes(ref_frozen)
    )
    elapsed = time.monotonic() - start

    ok = active_ok and frozen_ok and elapsed < 120.0
    _stamp(3, "schedule-equivalence", ok,
           "12-epoch desk runs bit-identical to scheduler-free and "
           f"never-registered references, {elapsed:.1f}s")
    assert active_ok
    assert frozen_ok
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# 4. frozen-epoch preservation


def test_criterion_04_frozen_preservation():
    start = time.monotonic()
    cfg = default_config()
    scenes, _ = generate_dataset(cfg.scene, 256, 0)
    detector = build_detector(cfg.arch, init_seed=0)
    state = OptimState()

    pattern = [0, 1, 1, 0]
    preserved, updated = 0, 0
    for epoch, freeze in enumerate(pattern):
        before = _backbone_bytes(detector)
        train_epoch(
            detector, scenes, epoch, freeze, state,
            lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=RunCache(detector, scenes),
        )
        after = _backbone_bytes(detector)
        if freeze:
            assert after == before, f"epoch {epoch}: frozen backbone changed"
            preserved += 1
        else:
            assert after != before, f"epoch {epoch}: active backbone did not move"
            updated += 1
    elapsed = time.monotonic() - start

    ok = preserved == 2 and updated == 2 and elapsed < 60.0
    _stamp(4, "frozen-preservation", ok,
           f"backbone checksum fixed on {preserved} frozen epochs, moved on "
           f"{updated} active epochs, {elapsed:.1f}s")
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 5. cost-ledger oracle


def test_criterion_05_ledger_brute_force():
    rng = np.random.default_rng(855)
    for trial in range(50):
        n_layers = int(rng.integers(1, 7))
        specs = [
            LayerFlopsSpec(i, GROUPS[int(rng.integers(3))], int(rng.integers(1, 2000)))
            for i in range(n_layers)
        ]
        ledger = FlopsLedger(specs)
        rows = []
        for epoch in range(int(rng.integers(1, 16))):
            freeze = int(rng.integers(2))
            n_samples = int(rng.integers(1, 40))
            ledger.record_epoch(epoch, freeze, specs, n_samples)
            rows.append((freeze, n_samples))

        brute = 0
        prefix = []
        for freeze, n_samples in rows:
            for _ in range(n_samples):
                for spec in specs:
                    brute += spec.forward_flops_per_sample
                    if not (freeze == 1 and spec.group == "backbone"):
                        brute += 2 * spec.forward_flops_per_sample
            prefix.append(brute)

        assert ledger.total_flops() == brute, trial
        assert ledger.cumulative_totals() == prefix, trial

    _stamp(5, "ledger-oracle", True,
           "50 randomized models and schedules match the per-(epoch, sample, "
           "layer) triple sum exactly")


# --------------------------------------------------------------------------
# 6. savings-ratio law at the published scale


def test_criterion_06_savings_ratio_law():
    specs = [LayerFlopsSpec(0, "backbone", 700), LayerFlopsSpec(1, "head", 300)]

    def window_ledger(rho):
        spec = ScheduleSpec([(50, 1), (math.inf, rho)])
        ledger = FlopsLedger(specs)
        for epoch in range(400):
            ledger.record_epoch(epoch, phase_freeze_signal(epoch, spec), specs, 4)
        return ledger

    base = window_ledger(1)
    d_inf = delta_flops(window_ledger(math.inf), base)
    fractions = {}
    for rho, want in ((2, Fraction(1, 2)), (5, Fraction(4, 5)), (10, Fraction(9, 10))):
        d = delta_flops(window_ledger(rho), base)
        fractions[rho] = Fraction(d, d_inf)
        assert fractions[rho] == want, rho

    # the published savings quadruple obeys the same 1-1/rho law up to
    # integer rounding of each entry
    full = 2_340_676
    published = {2: 1_170_338, 5: 1_872_541, 10: 2_106_608}
    for rho, value in published.items():
        assert abs(value - (1 - Fraction(1, rho)) * full) <= Fraction(1, 2), rho

    _stamp(6, "savings-ratio-law", True,
           "400-epoch ledger, switch at 50: delta(rho)/delta(inf) = 1/2, 4/5, "
           "9/10 exactly; 1170338:1872541:2106608:2340676 consistent within "
           "integer rounding")


# --------------------------------------------------------------------------
# 7. wall-clock table exactness


def test_criterion_07_time_table():
    tm = TimeModel(minutes_unfrozen=23.0, minutes_frozen=16.0)
    rows = (
        (ScheduleSpec([(math.inf, 1)]), 9200.0),
        (ScheduleSpec([(math.inf, math.inf)]), 6400.0),
        (ScheduleSpec([(50, 1), (math.inf, 2)]), 7975.0),
        (ScheduleSpec([(50, 1), (math.inf, 5)]), 7240.0),
        (ScheduleSpec([(50, 1), (math.inf, 10)]), 6995.0),
        (ScheduleSpec([(50, 1), (math.inf, math.inf)]), 6750.0),
    )
    got = []
    for spec, expected in rows:
        minutes = estimate_training_time(tm, spec, 400)
        assert minutes == expected, spec.describe()
        got.append(int(minutes))

    _stamp(7, "time-table", True,
           f"23/16-minute epochs over 400: {got} minutes, all six rows exact")


# --------------------------------------------------------------------------
# 8. detection-quality oracle


def _iou_exact(a, b):
    ix = max(0, min(a.xmax, b.xmax) - max(a.xmin, b.xmin))
    iy = max(0, min(a.ymax, b.ymax) - max(a.ymin, b.ymin))
    inter = ix * iy
    union = ((a.xmax - a.xmin) * (a.ymax - a.ymin)
             + (b.xmax - b.xmin) * (b.ymax - b.ymin) - inter)
    if union <= 0:
        return Fraction(0)
    return Fraction(int(inter), int(union))


def _exact_map50(detections, ground_truths):
    """Rational-arithmetic reference: greedy matching per class in score
    order, average precision as the sum of best-achievable precision at
    each recall step."""
    classes = sorted({g.class_id for g in ground_truths})
    if not classes:
        return 0.0
    ap_sum = Fraction(0)
    for cls in classes:
        gts = [g for g in ground_truths if g.class_id == cls]
        dets = sorted(
            (d for d in detections if d.class_id == cls), key=lambda d: -d.score
        )
        claimed = [False] * len(gts)
        flags = []
        for det in dets:
            best, best_iou = -1, Fraction(0)
            for j, gt in enumerate(gts):
                if claimed[j]:
                    continue
                overlap = _iou_exact(det.box, gt.box)
                if overlap > best_iou:
                    best, best_iou = j, overlap
            if best >= 0 and best_iou >= Fraction(1, 2):
                claimed[best] = True
                flags.append(True)
            else:
                flags.append(False)

        running, precisions = 0, []
        for rank, hit in enumerate(flags):
            running += hit
            precisions.append(Fraction(running, rank + 1))
        ap = Fraction(0)
        for rank, hit in enumerate(flags):
            if hit:
                ap += max(precisions[rank:])
        ap_sum += ap / len(gts)
    return float(ap_sum / len(classes))


def test_criterion_08_map_oracle():
    start = time.monotonic()
    boxes = (BBox(0, 0, 2, 2), BBox(1, 1, 3, 3), BBox(0, 0, 2, 3))
    combos = [(cls, box) for cls in (0, 1) for box in boxes]
    scores = (0.9, 0.7, 0.5, 0.3)

    det_sets = []
    for n_det in range(5):
        for picked in product(combos, repeat=n_det):
            det_sets.append(
                [Detection(0, cls, scores[i], box) for i, (cls, box) in enumerate(picked)]
            )

    checked = 0
    worst = 0.0
    for n_gt in range(4):
        for picked in combinations_with_replacement(combos, n_gt):
            gts = [GroundTruth(0, cls, box) for cls, box in picked]
            for dets in det_sets:
                got = map50(dets, gts).map50
                want = _exact_map50(dets, gts)
                diff = abs(got - want)
                if diff > worst:
                    worst = diff
                checked += 1

    perfect_gts = [GroundTruth(0, 0, boxes[0]), GroundTruth(0, 1, boxes[1])]
    perfect_dets = [Detection(0, 0, 0.9, boxes[0]), Detection(0, 1, 0.8, boxes[1])]
    assert map50(perfect_dets, perfect_gts).map50 == 1.0
    assert map50([], perfect_gts).map50 == 0.0
    elapsed = time.monotonic() - start

    ok = worst <= 1e-12 and elapsed < 60.0
    _stamp(8, "map-oracle", ok,
           f"{checked} exhaustive instances (each up to 4 detections and 3 "
           f"boxes) vs the rational reference, worst diff {worst:.1e}, plus "
           f"perfect=1.0 and empty=0.0, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 9. end-to-end sweep


def test_criterion_09a_end_to_end_sweep(tmp_path):
    start = time.monotonic()
    cfg_path = tmp_path / "cfg.json"
    save_config(default_config(), cfg_path)
    out = tmp_path / "grid"
    code = main([
        "grid", "--config", str(cfg_path), "--rhos", "1,2,5,10,inf",
        "--out", str(out), "--switch", "4", "--seeds", "0,1",
    ])
    assert code == 0
    elapsed = time.monotonic() - start

    with open(out / "grid_summary.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == GRID_SUMMARY_COLUMNS
        rows = list(reader)

    worst_ratio = 0.0
    deltas = {}
    frozen_counts = {}
    for seed, label, *_ in rows:
        curves = read_curves_csv(out / f"seed_{seed}" / f"rho_{label}" / "curves.csv")
        ratio = curves[-1].mean_loss / curves[0].mean_loss
        worst_ratio = max(worst_ratio, ratio)
        assert ratio < 0.5, (seed, label, ratio)
        frozen_counts[(seed, label)] = sum(r.frozen for r in curves)
    for row in rows:
        seed, label = row[0], row[1]
        deltas[(seed, label)] = None if row[4] == "NA" else int(row[4])

    # savings follow the frozen-epoch count exactly: each freezing period
    # saves its own frozen share of what permanent freezing saves
    for seed in ("0", "1"):
        d_inf = deltas[(seed, "inf")]
        f_inf = frozen_counts[(seed, "inf")]
        assert d_inf < 0 and f_inf == 12
        for label in ("2", "5", "10"):
            assert Fraction(deltas[(seed, label)], d_inf) == Fraction(
                frozen_counts[(seed, label)], f_inf
            ), (seed, label)
        assert Fraction(deltas[(seed, "2")], d_inf) == Fraction(1, 2)

    # the accuracy cost is reported, never thresholded
    with open(out / "delta_map.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        report_lines = [f"rho={row[0]}: {row[4]}" for row in reader]
    assert len(report_lines) == 4

    ok = elapsed < 600.0
    _stamp(9, "end-to-end-sweep", ok,
           "2 seeds x 5 periods, all losses fell below 50% of epoch 0 "
           f"(worst {worst_ratio:.2f}), integer savings law exact, mAP@50 "
           f"deltas vs rho=1 [{'; '.join(report_lines)}], {elapsed:.0f}s")
    assert elapsed < 600.0


@pytest.mark.xfail(
    strict=True,
    reason="a 16-epoch run switched at epoch 4 leaves a 12-epoch window; "
    "freezing whole epochs gives savings fractions 9/12 and 11/12 for "
    "periods 5 and 10, so the idealized 4/5 and 9/10 are unreachable",
)
def test_criterion_09b_idealized_savings_fractions():
    specs = [LayerFlopsSpec(0, "backbone", 700), LayerFlopsSpec(1, "head", 300)]

    def window_ledger(rho):
        spec = ScheduleSpec([(4, 1), (math.inf, rho)])
        ledger = FlopsLedger(specs)
        for epoch in range(16):
            ledger.record_epoch(epoch, phase_freeze_signal(epoch, spec), specs, 4)
        return ledger

    base = window_ledger(1)
    d_inf = delta_flops(window_ledger(math.inf), base)
    got = {
        rho: Fraction(delta_flops(window_ledger(rho), base), d_inf)
        for rho in (5, 10)
    }
    _stamp(9, "idealized-savings-fractions", False,
           f"period 5 saves {got[5]} and period 10 saves {got[10]} of the "
           "full-freeze delta; 4/5 and 9/10 would need 9.6 and 10.8 frozen "
           "epochs out of 12, which no whole-epoch schedule can produce")
    assert got[5] == Fraction(4, 5) and got[10] == Fraction(9, 10)


# --------------------------------------------------------------------------
# 10. run determinism


def test_criterion_10_run_determinism(tmp_path):
    start = time.monotonic()
    cfg_path = tmp_path / "cfg.json"
    save_config(default_config(schedule=ScheduleSpec([(4, 1), (math.inf, 5)])), cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    identical = []
    for name in ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin"):
        same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        identical.append(same)
        assert same, name
    elapsed = time.monotonic() - start

    ok = all(identical) and elapsed < 300.0
    _stamp(10, "run-determinism", ok,
           "rerun reproduced curves.csv, ledger.csv, summary.csv (and the "
           f"checkpoint) byte for byte, {elapsed:.0f}s")
    assert elapsed < 300.0
