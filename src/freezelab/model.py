"""Layers, the backbone/neck/head detector, and its freeze-aware forward.

The detector is deliberately tiny: a conv stack as the backbone, an
optional flatten/dense neck, and a dense head that emits one prediction
vector per cell of an S x S grid (objectness logit, C class logits, and
4 box offsets). The freeze signal gates the backbone as a single unit:
with freeze=1 the backbone runs without tape recording, so its output
requires no grad: the forward values are bit-identical to the unfrozen
pass while no gradient can reach any backbone parameter. That output is
`backbone_features`; a frozen forward may be handed it instead of the
images, and then runs only the neck and head.

The backbone reads only the image rows and columns that reach the head
(`Detector.read_hw`): a window sweep that does not tile its input leaves
its last rows and columns unread, and a crop of every batch to that
extent makes each layer compute exactly what the next one reads. Layer
shapes, and so the FLOP ledger, stay the arch's nominal ones.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluation import BBox, Detection, GroundTruth
from .flops import GROUPS, LayerFlopsSpec, layer_forward_flops
from .rng import STREAM_PARAM_INIT, generator

__all__ = [
    "Layer",
    "Detector",
    "PredictionGrid",
    "ShapeChainError",
    "LAYER_KINDS",
    "default_desk_arch",
    "plan_detector",
    "build_detector",
    "backbone_features",
    "detector_forward",
    "detection_loss",
    "encode_targets",
    "decode_predictions",
    "parameter_groups",
    "flops_specs",
    "save_arrays",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
]

# The spec keys each layer kind takes, besides `kind` itself.
_SPEC_KEYS = {
    "dense": ("in_features", "out_features"),
    "conv2d": ("in_channels", "out_channels", "kernel", "stride"),
    "relu": (),
    "maxpool2d": ("kernel", "stride"),
    "flatten": (),
}
LAYER_KINDS = tuple(_SPEC_KEYS)


class ShapeChainError(ValueError):
    """Adjacent layers in an architecture disagree about shapes."""


def _positive_int(value, what: str) -> int:
    """`value` if it is an int >= 1; anything else, a bool too, raises."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


class Layer:
    """One architectural unit: kind, hyperparameters, and named parameters.

    `spec` holds the hyperparameters, only those `_SPEC_KEYS` lists for the
    kind. Parameter shapes follow the engine's conventions: dense weight is
    [in_features, out_features], conv weight is [out_ch, in_ch, k, k].
    `params` is populated by build_detector; parameterless kinds keep it
    empty.
    """

    __slots__ = ("kind", "layer_id", "in_features", "out_features",
                 "in_channels", "out_channels", "kernel", "stride",
                 "params", "input_shape")

    def __init__(self, kind: str, layer_id: int, **spec):
        if kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind!r}; expected one of {LAYER_KINDS}")
        for key in spec:
            if key not in _SPEC_KEYS[kind]:
                raise ValueError(f"{kind} layer {layer_id} does not take {key!r}")
        if "stride" in _SPEC_KEYS[kind] and spec.get("stride") is None:  # conv slides by one, pools tile
            spec["stride"] = 1 if kind == "conv2d" else spec.get("kernel")
        self.kind = kind
        self.layer_id = int(layer_id)
        self.in_features = self.out_features = self.in_channels = self.out_channels = None
        self.kernel = self.stride = None
        for key in _SPEC_KEYS[kind]:
            setattr(self, key, _positive_int(spec.get(key), f"{kind} layer {layer_id} {key}"))
        self.params: dict[str, Tensor] = {}
        self.input_shape: Optional[tuple[int, ...]] = None

    def describe(self) -> str:
        if self.kind == "dense":
            return f"dense({self.in_features}->{self.out_features})"
        if self.kind == "conv2d":
            return f"conv2d({self.in_channels}->{self.out_channels},k{self.kernel},s{self.stride})"
        if self.kind == "maxpool2d":
            return f"maxpool2d(k{self.kernel},s{self.stride})"
        return self.kind

    def output_shape(self, input_shape: Sequence[int]) -> tuple[int, ...]:
        """Per-sample output shape, or raise if this layer cannot consume
        `input_shape`."""
        shape = tuple(int(s) for s in input_shape)
        if self.kind == "dense":
            if len(shape) != 1 or shape[0] != self.in_features:
                raise ShapeChainError(
                    f"layer {self.layer_id} ({self.describe()}) expects a flat "
                    f"input of size {self.in_features}, got shape {shape}"
                )
            return (self.out_features,)
        if self.kind in ("conv2d", "maxpool2d"):
            conv = self.kind == "conv2d"
            if len(shape) != 3 or (conv and shape[0] != self.in_channels):
                expect = f"[{self.in_channels}, H, W]" if conv else "[C, H, W]"
                raise ShapeChainError(
                    f"layer {self.layer_id} ({self.describe()}) expects {expect}, got shape {shape}"
                )
            c, h, w = shape
            if h < self.kernel or w < self.kernel:
                raise ShapeChainError(
                    f"layer {self.layer_id} ({self.describe()}) window does not fit input {shape}"
                )
            ho, wo = ad.conv_out_hw(h, w, self.kernel, self.kernel, self.stride)
            return (self.out_channels if conv else c, ho, wo)
        if self.kind == "flatten":
            return (math.prod(shape),)
        return shape  # relu


@dataclass
class Detector:
    backbone: tuple
    neck: tuple  # may be empty
    head: tuple
    input_shape: tuple
    grid_size: int
    num_classes: int
    read_hw: tuple  # the input (rows, columns) the layer chain reads; see _read_hw
    feature_shape: tuple  # per-sample shape of the backbone's output from read_hw

    def layers(self) -> tuple:
        return self.backbone + self.neck + self.head

    def parameters(self) -> list[tuple[str, Tensor]]:
        """All (param_id, tensor) pairs in a fixed order; param_id is
        '<layer_id>.<name>'."""
        return list(_parameters(self.layers()))

    def grad_key_table(self) -> dict[int, str]:
        """Map tensor uid -> param_id, for translating backward() output."""
        return {tensor.uid: pid for pid, tensor in self.parameters()}


@dataclass(frozen=True)
class PredictionGrid:
    """Dense per-cell predictions: [batch, S, S, 1 + C + 4].

    Channel 0 is the objectness logit, channels 1..C are class logits,
    and the last four are box offsets (center dx, dy within the cell,
    then log-width and log-height in cell units).
    """

    tensor: Tensor
    grid_size: int
    num_classes: int

    def __post_init__(self):
        s, c = self.grid_size, self.num_classes
        expect = (self.tensor.shape[0], s, s, 1 + c + 4)
        if self.tensor.shape != expect:
            raise ValueError(f"prediction tensor shape {self.tensor.shape}, expected {expect}")

    @property
    def objectness_logits(self) -> np.ndarray:
        return self.tensor.data[..., 0]

    @property
    def class_logits(self) -> np.ndarray:
        return self.tensor.data[..., 1 : 1 + self.num_classes]

    @property
    def box_offsets(self) -> np.ndarray:
        return self.tensor.data[..., 1 + self.num_classes :]


def default_desk_arch() -> dict:
    """The stock desk-scale architecture: 32x32x3 in, 4x4 grid, 3 classes."""
    return {
        "input_shape": [3, 32, 32],
        "grid_size": 4,
        "num_classes": 3,
        "backbone": [
            {"kind": "conv2d", "in_channels": 3, "out_channels": 8, "kernel": 3, "stride": 1},
            {"kind": "relu"},
            {"kind": "maxpool2d", "kernel": 2, "stride": 2},
            {"kind": "conv2d", "in_channels": 8, "out_channels": 16, "kernel": 3, "stride": 1},
            {"kind": "relu"},
            {"kind": "maxpool2d", "kernel": 2, "stride": 2},
        ],
        "neck": [
            {"kind": "flatten"},
        ],
        "head": [
            {"kind": "dense", "in_features": 576, "out_features": 64},
            {"kind": "relu"},
            {"kind": "dense", "in_features": 64, "out_features": 128},
        ],
    }


def _init_layer_params(layer: Layer, init_seed: int) -> None:
    # Weights are uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out));
    # biases start at zero. Each layer draws from its own stream keyed by
    # layer_id, so initialization does not depend on build order.
    if layer.kind == "dense":
        n_in, n_out, taps = layer.in_features, layer.out_features, 1
        shape = (n_in, n_out)
    elif layer.kind == "conv2d":
        n_in, n_out, taps = layer.in_channels, layer.out_channels, layer.kernel * layer.kernel
        shape = (n_out, n_in, layer.kernel, layer.kernel)
    else:
        return
    a = np.sqrt(6.0 / (n_in * taps + n_out * taps))
    w = generator(init_seed, STREAM_PARAM_INIT, layer.layer_id).uniform(-a, a, size=shape)
    layer.params["weight"] = Tensor(w, requires_grad=True)
    layer.params["bias"] = Tensor(np.zeros(n_out), requires_grad=True)


def plan_detector(arch_config: dict) -> Detector:
    """The detector an architecture dict describes, with no parameters
    drawn: it checks the arch without building it.

    The dict carries input_shape, grid_size, num_classes, and one list of
    layer specs per group ('neck' may be absent or empty); a fault in them
    is one ValueError that names the key or group. Shapes are chained
    through every layer; a mismatch raises ShapeChainError naming both.
    """
    required = {"input_shape", "grid_size", "num_classes", "backbone", "head"}
    missing, unknown = required - set(arch_config), set(arch_config) - required - {"neck"}
    if missing or unknown:
        raise ValueError(f"arch config keys: missing {sorted(missing)}, unknown {sorted(unknown)}")

    input_shape = arch_config["input_shape"]
    if isinstance(input_shape, list):
        input_shape = tuple(input_shape)
    if not isinstance(input_shape, tuple) or len(input_shape) != 3:
        raise ValueError(f"input_shape must be [channels, H, W], got {input_shape!r}")
    input_shape = tuple(_positive_int(s, f"input_shape[{i}]") for i, s in enumerate(input_shape))
    grid_size = _positive_int(arch_config["grid_size"], "grid_size")
    num_classes = _positive_int(arch_config["num_classes"], "num_classes")

    groups = {}
    next_id = 0
    for group in GROUPS:
        specs = arch_config.get(group, [])
        if not (isinstance(specs, (list, tuple)) and all(isinstance(spec, dict) for spec in specs)
                and (specs or group == "neck")):
            raise ValueError(f"arch group {group!r} must be a list of layers ('neck' may be empty), got {specs!r}")
        layers = []
        for spec in specs:
            spec = dict(spec)
            kind = spec.pop("kind", None)
            layers.append(Layer(kind, next_id, **spec))
            next_id += 1
        groups[group] = tuple(layers)

    shape = input_shape
    prev: Optional[Layer] = None
    for layer in groups["backbone"] + groups["neck"] + groups["head"]:
        layer.input_shape = shape
        try:
            shape = layer.output_shape(shape)
        except ShapeChainError as err:
            if prev is not None:
                raise ShapeChainError(
                    f"{err} (previous layer {prev.layer_id} ({prev.describe()}) emits {shape})"
                ) from None
            raise
        prev = layer

    head_out = 1 + num_classes + 4
    expect = (grid_size * grid_size * head_out,)
    if shape != expect:
        raise ShapeChainError(
            f"head output shape {shape} cannot form a {grid_size}x{grid_size} grid "
            f"of {head_out}-channel predictions (needs {expect})"
        )

    read_hw = _read_hw(groups["backbone"] + groups["neck"] + groups["head"], input_shape)
    feature_shape = (input_shape[0], *read_hw)
    for layer in groups["backbone"]:
        feature_shape = layer.output_shape(feature_shape)
    return Detector(
        backbone=groups["backbone"],
        neck=groups["neck"],
        head=groups["head"],
        input_shape=input_shape,
        grid_size=grid_size,
        num_classes=num_classes,
        read_hw=read_hw,
        feature_shape=feature_shape,
    )


def _read_hw(layers: Sequence[Layer], input_shape: tuple) -> tuple[int, int]:
    """The input rows and columns, counted from the top left, that reach the
    output of `layers`, a chained arch. The last conv or pool's output is
    read whole (what follows it is elementwise, flatten or dense); walking
    back, a window sweep with `n` outputs reads `(n - 1) * stride + kernel`
    of its input. An arch whose windows tile exactly reads all of it."""
    spatial = [layer for layer in layers if layer.kind in ("conv2d", "maxpool2d")]
    if not spatial:
        return tuple(input_shape[1:])
    hw = spatial[-1].output_shape(spatial[-1].input_shape)[1:]
    for layer in reversed(spatial):
        hw = tuple((n - 1) * layer.stride + layer.kernel for n in hw)
    return hw


def build_detector(arch_config: dict, init_seed: int) -> Detector:
    """Instantiate and initialize a detector from an architecture dict (see
    plan_detector). Two calls with the same config and seed produce
    parameter-wise bit-identical detectors."""
    d = plan_detector(arch_config)
    for layer in d.layers():
        _init_layer_params(layer, init_seed)
    return d


def _apply_layer(layer: Layer, x: Tensor) -> Tensor:
    if layer.kind == "dense":
        return ad.add(ad.matmul(x, layer.params["weight"]), layer.params["bias"])
    if layer.kind == "conv2d":
        return ad.conv2d(x, layer.params["weight"], bias=layer.params["bias"], stride=layer.stride)
    if layer.kind == "relu":
        return ad.relu(x)
    if layer.kind == "maxpool2d":
        return ad.maxpool2d(x, kernel=layer.kernel, stride=layer.stride)
    if layer.kind == "flatten":
        return ad.flatten(x)
    raise AssertionError(f"unhandled layer kind {layer.kind}")


def _run_layers(layers: Sequence[Layer], x: Tensor) -> Tensor:
    """Apply one group's layers in order, except that each adjacent
    relu, maxpool2d pair runs as pool then relu: the two commute, values
    and gradients alike, and the relu then touches only the pooled map.
    A caller runs each group on its own, so no pair spans a group cut."""
    i = 0
    while i < len(layers):
        if layers[i].kind == "relu" and i + 1 < len(layers) and layers[i + 1].kind == "maxpool2d":
            x = ad.relu(_apply_layer(layers[i + 1], x))
            i += 2
        else:
            x = _apply_layer(layers[i], x)
            i += 1
    return x


def _read_region(d: Detector, batch: Tensor) -> Tensor:
    """`batch` cut to the rows and columns the layer chain reads
    (`d.read_hw`), as a view and with no tape node. The new tensor is cut
    off from `batch`, so a batch that requires grad is refused rather than
    silently left without a gradient."""
    if batch.requires_grad:
        raise ValueError("an image batch must not require grad: the backbone reads a crop of it")
    h, w = d.read_hw
    return Tensor(batch.data[:, :, :h, :w])


def backbone_features(d: Detector, batch: Tensor) -> Tensor:
    """The backbone's output for `batch`, run without tape recording, so it
    requires no grad and has no tape node: what a frozen backbone hands the
    neck. Each scene's row is bit-identical in any batch composition."""
    with ad.pause_recording():
        return _run_layers(d.backbone, _read_region(d, batch))


def detector_forward(d: Detector, batch: Optional[Tensor], freeze: int,
                     features: Optional[Tensor] = None) -> PredictionGrid:
    """Full forward pass under a freeze signal.

    freeze=1 takes the backbone output from backbone_features, so
    downstream gradient flow stops at the backbone boundary; freeze=0
    records normally. The returned values are identical either way.
    `features`, with freeze=1 only, is backbone_features of the same
    scenes with the backbone unchanged since: the backbone is skipped and
    `batch` is not read.
    """
    if freeze not in (0, 1):
        raise ValueError(f"freeze signal must be 0 or 1, got {freeze!r}")
    if features is None:
        if batch.data.ndim != len(d.input_shape) + 1 or batch.shape[1:] != d.input_shape:
            raise ValueError(f"batch shape {batch.shape} does not match input shape {d.input_shape}")
    elif not freeze:
        raise ValueError("precomputed backbone features need freeze=1")
    elif features.data.ndim != len(d.feature_shape) + 1 or features.shape[1:] != d.feature_shape:
        raise ValueError(f"features shape {features.shape} does not match the backbone "
                         f"output shape {d.feature_shape}")

    if features is not None:
        out = features
    elif freeze:
        out = backbone_features(d, batch)
    else:
        out = _run_layers(d.backbone, _read_region(d, batch))
    out = _run_layers(d.head, _run_layers(d.neck, out))

    s, c = d.grid_size, d.num_classes
    grid = ad.reshape(out, (out.shape[0], s, s, 1 + c + 4))
    return PredictionGrid(tensor=grid, grid_size=s, num_classes=c)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def detection_loss(pred: PredictionGrid, targets: np.ndarray) -> Tensor:
    """Scalar training loss for one batch.

    Three mean-reduced terms: sigmoid binary cross-entropy on the
    objectness channel over every cell, softmax cross-entropy on the class
    channels over positive cells, and squared error on the box offsets
    over positive cells. With no positive cell the last two terms are 0.
    The gradient is supplied analytically as one fused tape node.
    """
    targets = np.asarray(targets, dtype=np.float64)
    data = pred.tensor.data
    if targets.shape != data.shape:
        raise ValueError(f"targets shape {targets.shape} does not match predictions {data.shape}")
    c = pred.num_classes

    obj_logit = data[..., 0]
    obj_target = targets[..., 0]
    n_cells = obj_logit.size
    # log(1 + e^z) - z*t, computed stably
    bce = float(np.mean(np.logaddexp(0.0, obj_logit) - obj_logit * obj_target))

    pos = obj_target == 1.0
    n_pos = int(pos.sum())
    if n_pos > 0:
        logits = data[..., 1 : 1 + c][pos]           # [P, C]
        onehot = targets[..., 1 : 1 + c][pos]
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        ce = float(np.mean(lse - (logits * onehot).sum(axis=1)))
        box = data[..., 1 + c :][pos]                # [P, 4]
        box_t = targets[..., 1 + c :][pos]
        se = float(np.mean((box - box_t) ** 2))
        softmax = np.exp(logits - m)
        softmax /= softmax.sum(axis=1, keepdims=True)
    else:
        ce = 0.0
        se = 0.0

    def bwd(g):
        gs = float(g)
        grad = np.zeros_like(data)
        grad[..., 0] = gs * (_sigmoid(obj_logit) - obj_target) / n_cells
        if n_pos > 0:
            grad[..., 1 : 1 + c][pos] = gs * (softmax - onehot) / n_pos
            grad[..., 1 + c :][pos] = gs * 2.0 * (box - box_t) / (4.0 * n_pos)
        return (grad,)

    return ad.record_external("detection_loss", np.asarray(bce + ce + se), (pred.tensor,), bwd)


def encode_targets(
    ground_truths_per_image: Sequence[Sequence[GroundTruth]],
    grid_size: int,
    num_classes: int,
    image_size: int,
) -> np.ndarray:
    """Rasterize boxes into the [B, S, S, 1+C+4] target grid.

    A box's positive cell is the one containing its center; if two boxes
    share a cell the first one in sequence order wins. Offsets are the
    center position within the cell (in [0, 1]) and log box size in cell
    units.
    """
    b = len(ground_truths_per_image)
    s, c = grid_size, num_classes
    cell = image_size / s
    grid = np.zeros((b, s, s, 1 + c + 4))
    for bi, gts in enumerate(ground_truths_per_image):
        for gt in gts:
            if not (0 <= gt.class_id < c):
                raise ValueError(f"class_id {gt.class_id} out of range for {c} classes")
            box = gt.box
            if box.xmax <= box.xmin or box.ymax <= box.ymin:
                raise ValueError(f"cannot encode a zero-area box {box!r}")
            cx, cy = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
            sx = min(int(cx / cell), s - 1)
            sy = min(int(cy / cell), s - 1)
            if grid[bi, sy, sx, 0] == 1.0:
                continue
            grid[bi, sy, sx, 0] = 1.0
            grid[bi, sy, sx, 1 + gt.class_id] = 1.0
            grid[bi, sy, sx, 1 + c + 0] = cx / cell - sx
            grid[bi, sy, sx, 1 + c + 1] = cy / cell - sy
            grid[bi, sy, sx, 1 + c + 2] = np.log((box.xmax - box.xmin) / cell)
            grid[bi, sy, sx, 1 + c + 3] = np.log((box.ymax - box.ymin) / cell)
    return grid


def decode_predictions(
    pred: PredictionGrid,
    image_ids: Sequence[int],
    image_size: int,
) -> list[Detection]:
    """Every cell of the batch decoded at once. A cell emits one detection
    when its objectness sigmoid exceeds 0.5, its score (objectness times
    the best class probability; the first class wins a tie) is finite,
    and its box, clipped to the image, keeps a positive width and height.
    The clip passes NaN on, so that last test also drops a box with a
    non-finite corner. Detections come in image, row, column order, every
    field a Python number."""
    data = pred.tensor.data
    if data.shape[0] != len(image_ids):
        raise ValueError(f"got {len(image_ids)} image ids for a batch of {data.shape[0]}")
    index = np.arange(pred.grid_size)
    cell = image_size / pred.grid_size

    p_obj = _sigmoid(pred.objectness_logits)
    logits = pred.class_logits
    m = logits.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # a +inf logit gives inf - inf; its NaN score is dropped below
        probs = np.exp(logits - m)
        probs /= probs.sum(axis=-1, keepdims=True)
    cls = probs.argmax(axis=-1)
    score = p_obj * np.take_along_axis(probs, cls[..., None], axis=-1)[..., 0]

    dx, dy, tw, th = np.moveaxis(pred.box_offsets, -1, 0)
    cx, cy = (index + dx) * cell, (index[:, None] + dy) * cell
    half_w = np.exp(np.clip(tw, -12.0, 12.0)) * cell / 2
    half_h = np.exp(np.clip(th, -12.0, 12.0)) * cell / 2
    x0, x1 = np.maximum(cx - half_w, 0.0), np.minimum(cx + half_w, float(image_size))
    y0, y1 = np.maximum(cy - half_h, 0.0), np.minimum(cy + half_h, float(image_size))

    keep = (p_obj > 0.5) & np.isfinite(score) & (x1 > x0) & (y1 > y0)
    ids = np.asarray(image_ids, dtype=np.int64)[np.nonzero(keep)[0]]
    boxes = map(BBox, x0[keep].tolist(), y0[keep].tolist(), x1[keep].tolist(), y1[keep].tolist())
    return list(map(Detection, ids.tolist(), cls[keep].tolist(), score[keep].tolist(), boxes))


def _parameters(layers: Sequence[Layer]):
    """(param_id, tensor) for every parameter of `layers`, in layer order,
    weight before bias."""
    for layer in layers:
        for name in ("weight", "bias"):
            if name in layer.params:
                yield f"{layer.layer_id}.{name}", layer.params[name]


def parameter_groups(d: Detector) -> dict[str, tuple[str, ...]]:
    """Partition of parameter ids by group, in parameters() order."""
    return {g: tuple(pid for pid, _ in _parameters(getattr(d, g))) for g in GROUPS}


def flops_specs(d: Detector) -> list[LayerFlopsSpec]:
    """Per-layer forward cost (one sample), tagged with each layer's group."""
    return [
        LayerFlopsSpec(layer.layer_id, g, layer_forward_flops(layer, layer.input_shape))
        for g in GROUPS
        for layer in getattr(d, g)
    ]


# --------------------------------------------------------------------------
# checkpointing: one codec for parameter-id maps {'<layer_id>.<name>': array}
#
# Binary layout, little-endian, version 1:
#   magic   4 bytes  b"FZCK"
#   version u16      1
#   count   u32      number of entries
# then per entry, in the map's order:
#   layer_id u32, name_len u16, name utf-8, ndim u8, dims u32 * ndim,
#   values  f64 * prod(dims), row-major
# Round-trips bit-exactly: values are dumped as raw float64.

_CKPT_MAGIC = b"FZCK"
_CKPT_VERSION = 1


def save_arrays(arrays: Mapping[str, np.ndarray], path) -> None:
    """Write a parameter-id map in the checkpoint layout."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<HI", _CKPT_VERSION, len(arrays)))
        for pid, arr in arrays.items():
            layer_id, name = pid.split(".", 1)
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<IH", int(layer_id), len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(d: Detector, path) -> None:
    """Write the detector's parameters, in parameters() order."""
    save_arrays({pid: tensor.data for pid, tensor in d.parameters()}, path)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The parameter-id map a checkpoint-layout file holds, in file order.
    A malformed file raises one ValueError that names it."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    offset = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"{path} is truncated at byte {offset}: {what} needs {n} bytes, "
                             f"{len(blob) - offset} remain")
        offset += n
        return blob[offset - n : offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    if take(4, "magic") != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    version, count = unpack("<HI", "header")
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    arrays = {}
    for _ in range(count):
        layer_id, name_len = unpack("<IH", "entry header")
        name = take(name_len, "name")
        try:
            pid = f"{layer_id}.{str(name, 'utf-8')}"
        except UnicodeDecodeError:
            raise ValueError(f"{path} has an entry name at byte {offset - name_len} that is not UTF-8") from None
        (ndim,) = unpack("<B", "ndim")
        shape = unpack(f"<{ndim}I", "dims")
        values = np.frombuffer(take(8 * math.prod(shape), f"values of {pid!r}"), dtype="<f8")
        if pid in arrays:
            raise ValueError(f"{path} holds {pid!r} twice")
        arrays[pid] = values.reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{path} has {len(blob) - offset} trailing bytes after byte {offset}")
    return arrays


def restore_checkpoint(d: Detector, path) -> None:
    """Copy checkpoint values into the detector's parameters.

    The checkpoint must cover exactly the detector's parameter set with
    matching shapes; anything else is an error.
    """
    by_id = load_checkpoint(path)
    params = dict(d.parameters())
    if set(by_id) != set(params):
        missing = sorted(set(params) - set(by_id))
        extra = sorted(set(by_id) - set(params))
        raise ValueError(f"{path}: checkpoint does not match detector (missing={missing}, extra={extra})")
    for pid, tensor in params.items():
        values = by_id[pid]
        if values.shape != tensor.shape:
            raise ValueError(f"{path}: checkpoint shape {values.shape} for {pid!r}, expected {tensor.shape}")
        tensor.data[...] = values
