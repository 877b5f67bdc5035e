"""Spans at the package's module boundaries, recorded from outside it.

The package imports its callees by name (`from .model import
detector_forward` and so on), so a wrapper only takes effect when it
replaces the name in the *caller's* namespace: `experiment` for the
per-step calls, `cli` for run_experiment, and `freezelab.autodiff` for
the primitives that `model` reaches through `ad.<name>`. Every wrapper is
removed again when the `installed` block ends.

A span is [id, parent_id, run_id, name, start_ns, end_ns, attrs]. Spans
stay in memory until `write_csv` is called at the end of the run.
"""

from __future__ import annotations

import csv
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import freezelab.autodiff as ad
from freezelab import cli, experiment

from stats import median_metric

_now = time.perf_counter_ns

ID, PARENT, RUN, NAME, START, END, ATTRS = range(7)

PRIMITIVES = ("conv2d", "relu", "maxpool2d", "matmul", "add", "flatten", "reshape")
BACKWARD_KINDS = ("conv2d", "maxpool2d", "relu", "matmul", "add", "flatten", "reshape",
                  "detection_loss")
_BACKBONE = {"part": "backbone"}


@contextmanager
def patched(replacements):
    """Set (module, name, value) triples for the duration of the block."""
    saved = []
    try:
        for module, name, value in replacements:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def backbone_primitive_count(detector) -> int:
    """Primitive calls detector_forward makes for the backbone: a dense
    layer is matmul + add, every other layer kind is one primitive."""
    return sum(2 if layer.kind == "dense" else 1 for layer in detector.backbone)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.run_id = 0
        self._backbone_left = 0

    def open(self, name, attrs=None) -> list:
        span = [len(self.spans), self._stack[-1][ID] if self._stack else -1,
                self.run_id, name, 0, 0, attrs]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = _now()
        return span

    def close(self, span) -> None:
        span[END] = _now()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before(args, kwargs)` gives the span's
        attrs, `after(span, args, kwargs, result)` may add to them."""
        def traced(*args, **kwargs):
            span = self.open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(span, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- hooks ---------------------------------------------------------

    @staticmethod
    def _epoch_attrs(args, kwargs):
        return {"epoch": _arg(args, kwargs, 2, "epoch"), "freeze": _arg(args, kwargs, 3, "freeze"),
                "samples": len(_arg(args, kwargs, 1, "scenes"))}

    def _forward_before(self, args, kwargs):
        self._backbone_left = backbone_primitive_count(_arg(args, kwargs, 0, "d"))
        return {"freeze": _arg(args, kwargs, 2, "freeze")}

    def _forward_after(self, span, args, kwargs, result):
        self._backbone_left = 0

    def _primitive_before(self, args, kwargs):
        if self._backbone_left > 0:
            self._backbone_left -= 1
            return _BACKBONE
        return None

    @staticmethod
    def _clip_after(span, args, kwargs, result):
        grads = _arg(args, kwargs, 0, "grads")
        span[ATTRS] = {"fired": any(result[k] is not grads[k] for k in result)}

    @staticmethod
    def _sgd_before(args, kwargs):
        return {"stepped": len(_arg(args, kwargs, 1, "grads"))}

    @staticmethod
    def _evaluate_after(span, args, kwargs, result):
        span[ATTRS] = {"detections": result.n_detections}

    def _backward(self, fn):
        def traced(loss, tape):
            counts = {"nodes": len(tape.nodes), "built": 0, "consumed": 0}
            for node in tape.nodes:
                node.backward_fn = self._node(node, tape, counts)
            span = self.open("autodiff.backward", counts)
            try:
                return fn(loss, tape)
            finally:
                self.close(span)
        traced.__wrapped__ = fn
        return traced

    def _node(self, node, tape, counts):
        """Time one tape node's backward_fn and count the adjoints it
        builds and how many of them a later node or a leaf consumes."""
        name, fn, parents = "autodiff.bwd." + node.kind, node.backward_fn, node.parent_uids

        def timed(g):
            span = self.open(name)
            try:
                grads = fn(g)
            finally:
                self.close(span)
            for uid, pg in zip(parents, grads):
                if pg is not None:
                    counts["built"] += 1
                    leaf = tape.leaves.get(uid)
                    if tape.produced(uid) or (leaf is not None and leaf.requires_grad):
                        counts["consumed"] += 1
            return grads
        return timed

    def replacements(self) -> list:
        w = self.wrap
        ex = experiment
        out = [
            (ex, "run_experiment", w("experiment.run_experiment", ex.run_experiment)),
            (cli, "main", w("cli.main", cli.main)),
            (cli, "run_experiment", w("experiment.run_experiment", cli.run_experiment)),
            (ex, "generate_dataset", w("data.generate_dataset", ex.generate_dataset)),
            (ex, "build_detector", w("model.build_detector", ex.build_detector)),
            (ex, "train_epoch", w("experiment.train_epoch", ex.train_epoch, self._epoch_attrs)),
            (ex, "evaluate_detector", w("experiment.evaluate_detector", ex.evaluate_detector,
                                        after=self._evaluate_after)),
            (ex, "write_run_dir", w("experiment.write_run_dir", ex.write_run_dir)),
            (ex, "encode_targets", w("model.encode_targets", ex.encode_targets)),
            (ex, "detector_forward", w("model.detector_forward", ex.detector_forward,
                                       self._forward_before, self._forward_after)),
            (ex, "detection_loss", w("model.detection_loss", ex.detection_loss)),
            (ex, "backward", self._backward(ex.backward)),
            (ex, "clip_gradients", w("optim.clip_gradients", ex.clip_gradients,
                                     after=self._clip_after)),
            (ex, "sgd_step", w("optim.sgd_step", ex.sgd_step, self._sgd_before)),
            (ex, "decode_predictions", w("model.decode_predictions", ex.decode_predictions)),
            (ex, "map50", w("evaluation.map50", ex.map50)),
        ]
        for kind in PRIMITIVES:
            out.append((ad, kind, w("autodiff." + kind, getattr(ad, kind), self._primitive_before)))
        return out

    def installed(self):
        return patched(self.replacements())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "parent", "run", "name", "start_ns", "end_ns", "attrs"))
            for span in self.spans:
                writer.writerow(span[:ATTRS] + [json.dumps(span[ATTRS]) if span[ATTRS] else ""])


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

def _dur(span) -> float:
    return (span[END] - span[START]) / 1e9


def _share(numerator, denominator) -> dict:
    return {"value": numerator / denominator if denominator else 0.0, "unit": "1",
            "summary": {"n": denominator}}


def layer_metrics(spans, grid_switch: int) -> dict:
    """Every span-derived per-layer metric, by name."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
        by_name[span[NAME]].append(span)

    def self_time(span):
        return _dur(span) - sum(_dur(c) for c in children[span[ID]])

    steps = defaultdict(list)  # freeze -> [(forward span, backward span) of each step]
    for epoch in by_name["experiment.train_epoch"]:
        freeze = epoch[ATTRS]["freeze"]
        calls = children[epoch[ID]]
        for fwd, bwd in zip((c for c in calls if c[NAME] == "model.detector_forward"),
                            (c for c in calls if c[NAME] == "autodiff.backward")):
            steps[freeze].append((fwd, bwd))
    all_steps = steps[0] + steps[1]

    def backbone(fwd):
        return sum(_dur(c) for c in children[fwd[ID]] if c[ATTRS] is _BACKBONE)

    def bwd_by_kind(bwd, kind):
        return [_dur(c) for c in children[bwd[ID]] if c[NAME] == "autodiff.bwd." + kind]

    def in_train(name):
        return [_dur(s) for s in by_name[name] if spans[s[PARENT]][NAME] == "experiment.train_epoch"]

    m = {}
    for freeze, label in ((0, "unfrozen"), (1, "frozen")):
        m[f"autodiff.backward_ms.{label}"] = median_metric([_dur(b) for _, b in steps[freeze]], "ms", 1e3)
    for kind in BACKWARD_KINDS:  # over unfrozen steps, where every kind is on the tape
        per_step = [sum(t) for t in (bwd_by_kind(b, kind) for _, b in steps[0]) if t]
        m[f"autodiff.bwd_us.{kind}"] = median_metric(per_step, "us", 1e6)
    for freeze, label in ((0, "unfrozen"), (1, "frozen")):
        m[f"autodiff.tape_nodes.{label}"] = median_metric([b[ATTRS]["nodes"] for _, b in steps[freeze]], "count")
    built = sum(b[ATTRS]["built"] for _, b in all_steps)
    m["autodiff.adjoint_useful_ratio"] = _share(sum(b[ATTRS]["consumed"] for _, b in all_steps), built)
    calls = [s for s in spans if s[PARENT] == -1]
    m["autodiff.adjoints_built"] = {"value": built / len(calls), "unit": "count",
                                    "summary": {"n": len(calls)}}

    for freeze, label in ((0, "unfrozen"), (1, "frozen")):
        m[f"model.backbone_fwd_ms.{label}"] = median_metric([backbone(f) for f, _ in steps[freeze]], "ms", 1e3)
    m["model.rest_fwd_ms"] = median_metric([_dur(f) - backbone(f) for f, _ in all_steps], "ms", 1e3)
    m["model.loss_us"] = median_metric(in_train("model.detection_loss"), "us", 1e6)
    m["model.encode_targets_us"] = median_metric(in_train("model.encode_targets"), "us", 1e6)
    m["model.decode_ms"] = median_metric([_dur(s) for s in by_name["model.decode_predictions"]], "ms", 1e3)

    clips = by_name["optim.clip_gradients"]
    m["optim.clip_us"] = median_metric([_dur(s) for s in clips], "us", 1e6)
    m["optim.sgd_step_us"] = median_metric([_dur(s) for s in by_name["optim.sgd_step"]], "us", 1e6)
    m["optim.clip_fired_share"] = _share(sum(s[ATTRS]["fired"] for s in clips), len(clips))
    frozen_steps = [s[ATTRS]["stepped"] for s in by_name["optim.sgd_step"]
                    if spans[s[PARENT]][ATTRS]["freeze"] == 1]
    m["optim.params_stepped.frozen"] = median_metric(frozen_steps, "count")

    evals = by_name["experiment.evaluate_detector"]
    m["evaluation.evaluate_ms"] = median_metric([_dur(s) for s in evals], "ms", 1e3)
    m["evaluation.map50_ms"] = median_metric([_dur(s) for s in by_name["evaluation.map50"]], "ms", 1e3)
    m["evaluation.detections"] = median_metric([s[ATTRS]["detections"] for s in evals], "count")
    m["data.generate_dataset_s"] = median_metric([_dur(s) for s in by_name["data.generate_dataset"]], "s")

    m["experiment.write_run_dir_ms"] = median_metric(
        [_dur(s) for s in by_name["experiment.write_run_dir"]], "ms", 1e3)
    m["experiment.self_s"] = median_metric([self_time(s) for s in by_name["experiment.run_experiment"]], "s")
    grids = by_name["cli.main"]
    m["cli.grid_self_s"] = median_metric([self_time(s) for s in grids], "s")
    m["cli.prefix_epochs_trained"] = median_metric(
        [sum(1 for run in children[g[ID]] for e in children[run[ID]]
             if e[NAME] == "experiment.train_epoch" and e[ATTRS]["epoch"] < grid_switch)
         for g in grids], "count")
    return m


def epoch_seconds(spans) -> list:
    """(freeze, seconds, samples) of every traced train_epoch call."""
    return [(s[ATTRS]["freeze"], _dur(s), s[ATTRS]["samples"])
            for s in spans if s[NAME] == "experiment.train_epoch"]


def coverage(spans) -> list:
    """(root name, seconds, share covered by direct children) of every
    root span."""
    children = defaultdict(float)
    for span in spans:
        children[span[PARENT]] += _dur(span)
    return [(s[NAME], _dur(s), children[s[ID]] / _dur(s)) for s in spans if s[PARENT] == -1]

