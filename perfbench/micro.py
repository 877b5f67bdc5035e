"""Per-primitive forward and backward time at batch 8.

Each layer of the default architecture that does real work is run on
its own: the `autodiff` primitive under a `Tape`, then `backward` from a
sum of its output. Only the primitive's own tape node is timed in the
backward pass. Inputs are the activations a batch of 8 training scenes
produces at that layer, with the initial weights of the given seed, and
an input requires grad exactly when it does in training (the image does
not).

    python3 perfbench/micro.py [--seed N]
"""

from __future__ import annotations

import env  # first: pins BLAS threads before numpy loads

import argparse
import sys
import time

import numpy as np

env.import_package()
import freezelab.autodiff as ad  # noqa: E402
from freezelab import data, model  # noqa: E402

from stats import format_metric, summarize  # noqa: E402

BATCH = 8
REPS = 50
# (name, layer index in the default architecture)
LAYERS = (("conv2d_L0", 0), ("relu_L1", 1), ("maxpool2d_L2", 2), ("conv2d_L3", 3),
          ("relu_L4", 4), ("maxpool2d_L5", 5), ("matmul_L7", 7), ("matmul_L9", 9))


def _apply(layer, x):
    if layer.kind == "conv2d":
        return ad.conv2d(x, layer.params["weight"], bias=layer.params["bias"], stride=layer.stride)
    if layer.kind == "relu":
        return ad.relu(x)
    if layer.kind == "maxpool2d":
        return ad.maxpool2d(x, kernel=layer.kernel, stride=layer.stride)
    if layer.kind == "flatten":
        return ad.flatten(x)
    if layer.kind == "dense":
        return ad.matmul(x, layer.params["weight"])
    raise ValueError(f"no primitive for layer kind {layer.kind!r}")


def _layer_inputs(seed: int):
    """(layers, input of each layer) for one batch of training scenes."""
    train, _ = data.generate_dataset(data.SceneConfig(seed=seed), BATCH, 0)
    detector = model.build_detector(model.default_desk_arch(), init_seed=seed)
    layers = detector.layers()
    x = ad.Tensor(np.stack([s.image.data for s in train]))
    inputs = []
    for layer in layers:
        inputs.append(x)
        x = _apply(layer, x)
        if layer.kind == "dense":
            x = ad.add(x, layer.params["bias"])
    return layers, inputs


def measure(seed: int) -> dict:
    """{"<layer>.fwd_us": samples, "<layer>.bwd_us": samples} in us."""
    layers, inputs = _layer_inputs(seed)
    out = {}
    for name, index in LAYERS:
        layer = layers[index]
        x = ad.Tensor(inputs[index].data, requires_grad=index > 0)
        fwd, bwd = [], []
        for rep in range(REPS + 1):  # the first repetition warms up
            with ad.Tape() as tape:
                t0 = time.perf_counter_ns()
                y = _apply(layer, x)
                t1 = time.perf_counter_ns()
                loss = ad.reduce_sum(y)
            node = tape.nodes[y.node_id]
            timed = [0]

            def backward_fn(g, fn=node.backward_fn, timed=timed):
                s = time.perf_counter_ns()
                grads = fn(g)
                timed[0] = time.perf_counter_ns() - s
                return grads
            node.backward_fn = backward_fn
            ad.backward(loss, tape)
            if rep:
                fwd.append((t1 - t0) / 1e3)
                bwd.append(timed[0] / 1e3)
        out[f"{name}.fwd_us"] = fwd
        out[f"{name}.bwd_us"] = bwd
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"per-primitive time at batch {BATCH}, seed {args.seed}, {REPS} repetitions")
    for name, samples in measure(args.seed).items():
        summary = summarize(samples)
        print(format_metric("micro." + name, "us", summary["median"], summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
