"""Detection-metric tests: IoU, greedy matching, AP, and mAP against an
independently written reference implementation."""

import itertools

import numpy as np
import pytest

from freezelab.evaluation import (
    BBox,
    Detection,
    EvalReport,
    GroundTruth,
    average_precision,
    iou,
    map50,
    match_detections,
    precision_recall,
)


# --------------------------------------------------------------------------
# IoU


def test_iou_identical_boxes():
    box = BBox(1.0, 2.0, 4.0, 6.0)
    assert iou(box, box) == 1.0


def test_iou_disjoint_boxes():
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0


def test_iou_partial_overlap():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-15)


def test_iou_zero_area_boxes():
    point = BBox(1.0, 1.0, 1.0, 1.0)
    assert point.area == 0.0
    assert iou(point, point) == 0.0  # union has no area
    assert iou(point, BBox(0, 0, 2, 2)) == 0.0


def test_iou_touching_edges_is_zero():
    assert iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        BBox(2.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 2.0, 1.0, 1.0)


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        vals = rng.uniform(0, 10, size=8)
        a = BBox(min(vals[0], vals[1]), min(vals[2], vals[3]), max(vals[0], vals[1]), max(vals[2], vals[3]))
        b = BBox(min(vals[4], vals[5]), min(vals[6], vals[7]), max(vals[4], vals[5]), max(vals[6], vals[7]))
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


# --------------------------------------------------------------------------
# matching


def _det(score, box, image_id=0, class_id=0):
    return Detection(image_id, class_id, score, box)


def _gt(box, image_id=0, class_id=0):
    return GroundTruth(image_id, class_id, box)


def test_perfect_match_is_tp():
    box = BBox(0, 0, 2, 2)
    assert match_detections([_det(0.9, box)], [_gt(box)]) == [True]


def test_low_overlap_is_fp():
    # IoU((0,0,2,2), (1,1,3,3)) = 1/7 < 0.5; and a 0.4 case
    assert match_detections([_det(0.9, BBox(0, 0, 2, 2))], [_gt(BBox(1, 1, 3, 3))]) == [False]
    # overlap 2, union 5: IoU exactly 0.4, just under the threshold
    a = BBox(0, 0, 3, 1)
    b = BBox(1, 0, 5, 1)
    assert iou(a, b) == pytest.approx(0.4, abs=1e-15)
    assert match_detections([_det(0.9, a)], [_gt(b)]) == [False]


def test_duplicate_detection_is_fp():
    box = BBox(0, 0, 4, 4)
    near = BBox(0, 0, 4, 3.5)
    dets = [_det(0.9, box), _det(0.8, near)]
    assert match_detections(dets, [_gt(box)]) == [True, False]
    # same outcome when the duplicates arrive in the other input order
    assert match_detections(dets[::-1], [_gt(box)]) == [False, True]


def test_higher_score_claims_the_gt_first():
    box = BBox(0, 0, 4, 4)
    dets = [_det(0.8, box), _det(0.9, box)]
    assert match_detections(dets, [_gt(box)]) == [False, True]


def test_max_iou_gt_is_claimed():
    det_box = BBox(0, 0, 4, 4)
    close = BBox(0, 0, 4, 4)
    far = BBox(0, 0, 4, 2)
    flags = match_detections([_det(0.9, det_box)], [_gt(far), _gt(close)])
    assert flags == [True]
    # the second detection can only have the leftover, lower-IoU box
    flags = match_detections(
        [_det(0.9, det_box), _det(0.8, det_box)], [_gt(far), _gt(close)]
    )
    assert flags == [True, True]


def test_class_and_image_must_both_agree():
    box = BBox(0, 0, 2, 2)
    assert match_detections([_det(0.9, box, class_id=1)], [_gt(box, class_id=0)]) == [False]
    assert match_detections([_det(0.9, box, image_id=1)], [_gt(box, image_id=0)]) == [False]


def test_match_independent_of_input_permutation():
    rng = np.random.default_rng(57)
    boxes = [BBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 6, size=(8, 4))]
    dets = [
        _det(float(s), b, image_id=int(i % 2), class_id=int(i % 2))
        for i, (s, b) in enumerate(zip(rng.permutation(8) / 8.0, boxes))
    ]  # distinct scores, so ordering is score-only
    gts = [_gt(BBox(x, y, x + w, y + h), image_id=int(i % 2), class_id=int(i % 2))
           for i, (x, y, w, h) in enumerate(rng.uniform(0, 6, size=(5, 4)))]
    base = match_detections(dets, gts)
    for _ in range(10):
        perm = rng.permutation(len(dets))
        shuffled = [dets[i] for i in perm]
        flags = match_detections(shuffled, gts)
        assert [flags[list(perm).index(i)] for i in range(len(dets))] == base


def test_threshold_validation():
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=0.0)
    with pytest.raises(ValueError):
        match_detections([], [], iou_threshold=1.5)


# --------------------------------------------------------------------------
# precision / recall / AP


def test_precision_recall_curve():
    precisions, recalls = precision_recall([True, False, True], [0.9, 0.8, 0.7], 2)
    assert precisions == [1.0, 0.5, 2 / 3]
    assert recalls == [0.5, 0.5, 1.0]


def test_perfect_detector_ap():
    assert average_precision([True, True], [0.9, 0.8], 2) == 1.0


def test_no_detections_ap_is_zero():
    assert average_precision([], [], 3) == 0.0


def test_tp_fp_tp_ap():
    ap = average_precision([True, False, True], [0.9, 0.8, 0.7], 2)
    assert ap == pytest.approx(5 / 6, abs=1e-15)


def test_ap_requires_ground_truth():
    with pytest.raises(ValueError):
        average_precision([True], [0.9], 0)


def test_ap_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        flags = [bool(b) for b in rng.integers(0, 2, size=n)]
        scores = list(rng.uniform(0, 1, size=n))
        n_gt = max(1, sum(flags) + int(rng.integers(0, 4)))
        ap = average_precision(flags, scores, n_gt)
        assert 0.0 <= ap <= 1.0


def test_ap_invariant_under_monotone_score_rescaling():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        flags = [bool(b) for b in rng.integers(0, 2, size=n)]
        scores = list(rng.uniform(0.01, 1, size=n))
        n_gt = max(1, sum(flags))
        base = average_precision(flags, scores, n_gt)
        squashed = average_precision(flags, [0.05 + 0.9 * s for s in scores], n_gt)
        cubed = average_precision(flags, [s**3 for s in scores], n_gt)
        assert base == pytest.approx(squashed, abs=1e-12)
        assert base == pytest.approx(cubed, abs=1e-12)


def test_trailing_fp_never_raises_ap():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        flags = [bool(b) for b in rng.integers(0, 2, size=n)]
        scores = list(rng.uniform(0.2, 1, size=n))
        n_gt = max(1, sum(flags))
        before = average_precision(flags, scores, n_gt)
        after = average_precision(flags + [False], scores + [0.1], n_gt)
        assert after <= before + 1e-12


def test_leading_tp_never_lowers_ap():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        flags = [bool(b) for b in rng.integers(0, 2, size=n)]
        scores = list(rng.uniform(0, 0.9, size=n))
        n_gt = sum(flags) + 1  # one ground truth is still unmatched
        before = average_precision(flags, scores, n_gt)
        after = average_precision([True] + flags, [1.0] + scores, n_gt)
        assert after >= before - 1e-12


# --------------------------------------------------------------------------
# mAP and the brute-force reference


def _reference_map50(detections, ground_truths, iou_threshold=0.5):
    """Straight-line reference: per-class greedy matching and AP computed
    as a sum of envelope precisions at the TP ranks."""
    class_ids = sorted({g.class_id for g in ground_truths})
    if not class_ids:
        return 0.0
    aps = []
    for cid in class_ids:
        dets = sorted(
            (d for d in detections if d.class_id == cid),
            key=lambda d: (-d.score, detections.index(d)),
        )
        gts = [g for g in ground_truths if g.class_id == cid]
        taken = set()
        flags = []
        for det in dets:
            best, best_overlap = None, 0.0
            for gi, g in enumerate(gts):
                if gi in taken or g.image_id != det.image_id:
                    continue
                overlap = iou(det.box, g.box)
                if overlap > best_overlap:
                    best, best_overlap = gi, overlap
            if best is not None and best_overlap >= iou_threshold:
                taken.add(best)
                flags.append(True)
            else:
                flags.append(False)
        n_gt = len(gts)
        precisions = []
        tp = 0
        for rank, flag in enumerate(flags, start=1):
            tp += flag
            precisions.append(tp / rank)
        ap = 0.0
        for k, flag in enumerate(flags):
            if flag:
                ap += max(precisions[k:]) / n_gt
        aps.append(ap)
    return sum(aps) / len(aps)


def test_map_means_over_represented_classes_only():
    box = BBox(0, 0, 2, 2)
    dets = [
        _det(0.9, box, class_id=0),
        _det(0.8, box, class_id=7),  # no GT for class 7: ignored by the mean
    ]
    gts = [_gt(box, class_id=0), _gt(BBox(4, 4, 6, 6), class_id=1)]
    report = map50(dets, gts)
    assert set(report.per_class_ap) == {0, 1}
    assert report.per_class_ap[0] == 1.0
    assert report.per_class_ap[1] == 0.0
    assert report.map50 == 0.5
    assert report.n_detections == 2 and report.n_ground_truth == 2


def test_map_empty_inputs():
    assert map50([], []) == EvalReport(0.0, {}, 0, 0)
    box = BBox(0, 0, 2, 2)
    assert map50([_det(0.9, box)], []).map50 == 0.0
    assert map50([], [_gt(box)]).map50 == 0.0


def test_map_matches_reference_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(150):
        def rand_box():
            x, y = rng.uniform(0, 5, size=2)
            w, h = rng.uniform(0.5, 4, size=2)
            return BBox(float(x), float(y), float(x + w), float(y + h))

        n_det, n_gt = int(rng.integers(0, 9)), int(rng.integers(0, 6))
        scores = rng.permutation(n_det) / max(1, n_det)  # distinct
        dets = [
            _det(float(scores[i]), rand_box(), image_id=int(rng.integers(0, 2)),
                 class_id=int(rng.integers(0, 3)))
            for i in range(n_det)
        ]
        gts = [
            _gt(rand_box(), image_id=int(rng.integers(0, 2)), class_id=int(rng.integers(0, 3)))
            for _ in range(n_gt)
        ]
        report = map50(dets, gts)
        assert report.map50 == pytest.approx(_reference_map50(dets, gts), abs=1e-12)


def test_map_matches_reference_exhaustively_on_small_grid():
    # every instance with <= 3 detections and <= 2 ground truths drawn from
    # a fixed pool of grid boxes and two classes
    pool = [BBox(0, 0, 2, 2), BBox(1, 1, 3, 3), BBox(0, 0, 4, 4)]
    options = [(c, b) for c in (0, 1) for b in pool]
    scores = (0.9, 0.6, 0.3)

    checked = 0
    for n_gt in range(0, 3):
        for gt_combo in itertools.combinations_with_replacement(options, n_gt):
            gts = [_gt(b, class_id=c) for c, b in gt_combo]
            for n_det in range(0, 4):
                for det_combo in itertools.product(options, repeat=n_det):
                    dets = [
                        _det(scores[i], b, class_id=c)
                        for i, (c, b) in enumerate(det_combo)
                    ]
                    got = map50(dets, gts).map50
                    want = _reference_map50(dets, gts)
                    assert got == pytest.approx(want, abs=1e-12), (dets, gts)
                    checked += 1
    assert checked > 5000
