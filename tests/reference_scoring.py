"""The per-cell decode and the per-rank precision-recall loops, kept as
oracles for the array forms in `model.decode_predictions` and
`evaluation.average_precision`, and the per-batch
evaluation path that `experiment.evaluate_detector` replaced.

These are the loops the package used before it scored with arrays. They
take the same arguments and return the same kinds of values, except that
the decode loop's box corners may be numpy floats. On finite input the
decode loop is the oracle bit for bit; it knows nothing of the
non-finite rule (a NaN score or box is emitted here, never by the
package).
"""

import numpy as np

from freezelab.autodiff import Tensor
from freezelab.evaluation import BBox, Detection, map50
from freezelab.model import detector_forward


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def decode_reference(pred, image_ids, image_size):
    """Per-cell decoding: a cell emits one detection when its objectness
    sigmoid exceeds 0.5; score = objectness times the best class
    probability. Boxes are clipped to the image; cells whose box clips to
    nothing are dropped."""
    data = pred.tensor.data
    if data.shape[0] != len(image_ids):
        raise ValueError(f"got {len(image_ids)} image ids for a batch of {data.shape[0]}")
    s = pred.grid_size
    cell = image_size / s

    p_obj = _sigmoid(pred.objectness_logits)
    logits = pred.class_logits
    m = logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits - m)
    probs /= probs.sum(axis=-1, keepdims=True)
    offsets = pred.box_offsets

    detections = []
    for bi, image_id in enumerate(image_ids):
        for sy in range(s):
            for sx in range(s):
                if p_obj[bi, sy, sx] <= 0.5:
                    continue
                cls = int(np.argmax(probs[bi, sy, sx]))
                score = float(p_obj[bi, sy, sx] * probs[bi, sy, sx, cls])
                dx, dy, tw, th = offsets[bi, sy, sx]
                cx, cy = (sx + dx) * cell, (sy + dy) * cell
                w = float(np.exp(np.clip(tw, -12.0, 12.0))) * cell
                h = float(np.exp(np.clip(th, -12.0, 12.0))) * cell
                x0, x1 = max(0.0, cx - w / 2), min(float(image_size), cx + w / 2)
                y0, y1 = max(0.0, cy - h / 2), min(float(image_size), cy + h / 2)
                if x1 <= x0 or y1 <= y0:
                    continue
                detections.append(
                    Detection(image_id=int(image_id), class_id=cls, score=score,
                              box=BBox(x0, y0, x1, y1))
                )
    return detections


def precision_recall_reference(tp_flags, scores, n_ground_truth):
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


def average_precision_reference(tp_flags, scores, n_ground_truth):
    """Precision envelope from the right, integrated over the exact recall
    steps one rank at a time."""
    if n_ground_truth < 1:
        raise ValueError("need at least one ground truth")
    if not tp_flags:
        return 0.0
    precisions, recalls = precision_recall_reference(tp_flags, scores, n_ground_truth)

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


def evaluate_reference(detector, scenes, batch_size, features):
    """mAP@50 the per-batch way: run the head on each batch of the stored
    backbone `features`, decode that batch with the loop above, and
    collect its ground truths."""
    detections, ground_truths = [], []
    for lo in range(0, len(scenes), batch_size):
        chunk = scenes[lo : lo + batch_size]
        pred = detector_forward(detector, None, 1, features=Tensor(features[lo : lo + batch_size]))
        detections.extend(decode_reference(pred, [s.index for s in chunk], detector.input_shape[1]))
        for s in chunk:
            ground_truths.extend(s.ground_truths)
    return map50(detections, ground_truths)
