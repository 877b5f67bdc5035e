"""Detection quality scoring: IoU, greedy matching, and mAP at IoU 0.5.

Matching follows the usual benchmark protocol. Detections are visited in
order of descending score (original order breaks ties), each one may claim
at most one still-unmatched ground-truth box of the same image and class,
and it claims the one with the highest overlap provided that overlap
reaches the threshold. Everything else is a false positive. Average
precision integrates the precision envelope over the exact recall steps
(all-points interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "BBox",
    "Detection",
    "GroundTruth",
    "EvalReport",
    "iou",
    "match_detections",
    "precision_recall",
    "average_precision",
    "map50",
]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in corner form; zero-area boxes are legal."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax >= self.xmin and self.ymax >= self.ymin):
            raise ValueError(f"inverted box {self!r}")

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


@dataclass(frozen=True)
class Detection:
    image_id: int
    class_id: int
    score: float
    box: BBox


@dataclass(frozen=True)
class GroundTruth:
    image_id: int
    class_id: int
    box: BBox


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area; 0.0 when disjoint or when the
    union itself has no area."""
    ix0, iy0 = max(a.xmin, b.xmin), max(a.ymin, b.ymin)
    ix1, iy1 = min(a.xmax, b.xmax), min(a.ymax, b.ymax)
    iw, ih = ix1 - ix0, iy1 - iy0
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def match_detections(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
) -> list[bool]:
    """True/false-positive flag per detection, in the original order.

    Greedy: detections are ranked by (score desc, original index asc); each
    takes the highest-IoU unmatched ground truth of its own image and class
    if that IoU is >= iou_threshold. A ground truth matches at most once.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")

    gt_by_key: dict[tuple[int, int], list[int]] = {}
    for gi, gt in enumerate(ground_truths):
        gt_by_key.setdefault((gt.image_id, gt.class_id), []).append(gi)
    claimed = [False] * len(ground_truths)

    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    flags = [False] * len(detections)
    for di in order:
        det = detections[di]
        best_gi, best_iou = -1, 0.0
        for gi in gt_by_key.get((det.image_id, det.class_id), ()):
            if claimed[gi]:
                continue
            overlap = iou(det.box, ground_truths[gi].box)
            if overlap > best_iou:
                best_gi, best_iou = gi, overlap
        if best_gi >= 0 and best_iou >= iou_threshold:
            claimed[best_gi] = True
            flags[di] = True
    return flags


def precision_recall(
    tp_flags: Sequence[bool], scores: Sequence[float], n_ground_truth: int
) -> tuple[list[float], list[float]]:
    """Cumulative precision and recall along the score-ranked detections."""
    if len(tp_flags) != len(scores):
        raise ValueError("tp_flags and scores differ in length")
    if n_ground_truth < 1:
        raise ValueError("need at least one ground truth for a recall axis")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    precisions, recalls = [], []
    tp = 0
    for rank, i in enumerate(order, start=1):
        if tp_flags[i]:
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / n_ground_truth)
    return precisions, recalls


def average_precision(
    tp_flags: Sequence[bool],
    scores: Sequence[float],
    n_ground_truth: int,
) -> float:
    """Area under the interpolated precision-recall curve: precision is
    replaced by its running maximum from the right, then integrated over
    the exact recall steps."""
    if n_ground_truth < 1:
        raise ValueError("need at least one ground truth")
    if not tp_flags:
        return 0.0
    precisions, recalls = precision_recall(tp_flags, scores, n_ground_truth)

    # Precision envelope, right to left.
    env = list(precisions)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])

    ap = 0.0
    prev_r = 0.0
    for pi, ri in zip(env, recalls):
        if ri > prev_r:
            ap += (ri - prev_r) * pi
            prev_r = ri
    return ap


@dataclass(frozen=True)
class EvalReport:
    map50: float
    per_class_ap: dict  # class_id -> float, only classes with >= 1 ground truth
    n_detections: int
    n_ground_truth: int


def map50(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Mean AP over every class that has at least one ground-truth box.

    Classes that appear only in detections contribute nothing (their false
    positives still hurt no other class, because matching is per class).
    With no ground truth at all the mean is defined as 0.0.
    """
    flags = match_detections(detections, ground_truths, iou_threshold)

    class_ids = sorted({gt.class_id for gt in ground_truths})
    per_class: dict[int, float] = {}
    for cid in class_ids:
        det_idx = [i for i, d in enumerate(detections) if d.class_id == cid]
        n_gt = sum(1 for gt in ground_truths if gt.class_id == cid)
        per_class[cid] = average_precision(
            [flags[i] for i in det_idx], [detections[i].score for i in det_idx], n_gt)

    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return EvalReport(
        map50=mean,
        per_class_ap=per_class,
        n_detections=len(detections),
        n_ground_truth=len(ground_truths),
    )
