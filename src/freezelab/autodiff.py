"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Computation is define-by-run: operations executed while a :class:`Tape` is
active append one node each, so append order is already a topological order
and :func:`backward` replays the nodes exactly once in reverse. The engine
exists to make gradient flow *controllable*: a tensor built from another's
``data`` is cut off from its producers, and :func:`pause_recording` lets a
caller run a subgraph without building tape nodes at all (identical forward
values, no backward path).

Activity rule (the "activity analysis" of Griewank & Walther, *Evaluating
Derivatives*): conv2d and matmul, whose adjoints cost real work, read each
operand's ``requires_grad`` when they record their node, and their
backward functions return None for every operand that was not set. A leaf
image or a cut-off tensor then costs no gradient work: conv2d skips its
whole input-gradient sweep for it. A tensor produced on the tape always
requires grad, so no adjoint that reaches a leaf is ever skipped.

Values are always float64 and row-major. Tensors are treated as immutable
once built; only an optimizer is expected to write into parameter ``data``
buffers, and only between forward passes.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Node",
    "ShapeMismatchError",
    "PRIMITIVE_KINDS",
    "conv_out_hw",
    "add",
    "multiply",
    "matmul",
    "conv2d",
    "relu",
    "maxpool2d",
    "flatten",
    "reduce_mean",
    "reduce_sum",
    "reshape",
    "backward",
    "pause_recording",
    "record_external",
]


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_uid_counter = itertools.count(1)


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked on a tape.

    `uid` identifies the tensor for gradient bookkeeping; `node_id` is the
    index of the tape node that produced it (None for leaves and for
    tensors created while no tape was recording).
    """

    __slots__ = ("data", "requires_grad", "uid", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# A node's backward_fn maps the output adjoint to one adjoint per parent
# (None for parents that did not require grad when the node was recorded).
BackwardFn = Callable[[np.ndarray], tuple]


class Node:
    __slots__ = ("kind", "out_uid", "parent_uids", "backward_fn")

    def __init__(self, kind: str, out_uid: int, parent_uids: tuple, backward_fn: BackwardFn):
        self.kind = kind
        self.out_uid = out_uid
        self.parent_uids = parent_uids
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._produced: set[int] = set()
        self.leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"

    def produced(self, uid: int) -> bool:
        return uid in self._produced


_TAPE_STACK: list[Optional[Tape]] = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def pause_recording():
    """Run a block without recording nodes, even if a tape is active."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def _recorded(inputs: Sequence[Tensor]) -> bool:
    """Whether an operation on `inputs` gets a tape node: a tape is active
    and some input requires grad."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def record_external(kind: str, out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn: BackwardFn) -> Tensor:
    """Record one differentiable operation on the active tape.

    Every built-in primitive goes through here, and so may fused
    operations (e.g. a detection loss) whose gradients are supplied
    analytically rather than composed from the built-in primitives.
    """
    tape = _active_tape()
    track = _recorded(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        for t in inputs:
            if t.requires_grad and not tape.produced(t.uid):
                tape.leaves.setdefault(t.uid, t)
        node = Node(kind, out.uid, tuple(t.uid for t in inputs), backward_fn)
        tape.nodes.append(node)
        tape._produced.add(out.uid)
        out.node_id = len(tape.nodes) - 1
    return out


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias for the last axis of `a`."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
        return record_external("add", a.data + b.data, (a, b), bwd)
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        lead = tuple(range(a.data.ndim - 1))
        def bwd(g, _lead=lead):
            return g, g.sum(axis=_lead)
        return record_external("add", a.data + b.data, (a, b), bwd)
    raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape} are not compatible")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a scalar (shape ())."""
    if a.shape == b.shape:
        ad, bd = a.data, b.data
        def bwd(g):
            return g * bd, g * ad
        return record_external("multiply", ad * bd, (a, b), bwd)
    if a.data.ndim == 0 or b.data.ndim == 0:
        ad, bd = a.data, b.data
        def bwd(g):
            ga = g * bd
            gb = g * ad
            if ad.ndim == 0:
                ga = np.asarray(ga.sum())
            if bd.ndim == 0:
                gb = np.asarray(gb.sum())
            return ga, gb
        return record_external("multiply", ad * bd, (a, b), bwd)
    raise ShapeMismatchError(f"multiply: shapes {a.shape} and {b.shape} are not compatible")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    def bwd(g):
        return (g @ bd.T if need_a else None), (ad.T @ g if need_b else None)
    return record_external("matmul", ad @ bd, (a, b), bwd)


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    """Output height and width of a valid (unpadded) window sweep, as used
    by conv2d and maxpool2d; the window must fit the input."""
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _taps(kh: int, kw: int, ho: int, wo: int, stride: int):
    """(i, j, rows, cols) of every kernel tap in row-major order: the input
    rows and columns that tap (i, j) of a window sweep reads."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, slice(i, i + (ho - 1) * stride + 1, stride), slice(j, j + (wo - 1) * stride + 1, stride)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Valid (unpadded) 2-D convolution of [B,C,H,W] with [OC,IC,KH,KW],
    plus a per-channel bias of shape [OC].

    One small matrix product per kernel tap (KH*KW of them), summed in tap
    order: each output, input-gradient and weight-gradient element is a
    dot product of the same length and order as the direct loop over taps
    and channels. Every patch copy lives only for the call that makes it;
    the backward closure keeps the input, not its patches.
    """
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"conv2d: stride must be a positive integer, got {stride!r}")
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d: expected 4-D input and weight, got {x.shape} and {weight.shape}")
    b_, ic, h, w = x.shape
    oc, wic, kh, kw = weight.shape
    if ic != wic:
        raise ShapeMismatchError(f"conv2d: channel counts differ for input {x.shape} and weight {weight.shape}")
    if kh < 1 or kw < 1:
        raise ValueError(f"conv2d: kernel must be >= 1, got {kh}x{kw}")
    if h < kh or w < kw:
        raise ShapeMismatchError(f"conv2d: input {x.shape} smaller than kernel {weight.shape}")
    if bias.shape != (oc,):
        raise ShapeMismatchError(f"conv2d: bias shape {bias.shape} does not match out channels ({oc},)")

    ho, wo = conv_out_hw(h, w, kh, kw, stride)
    xd, wd = x.data, weight.data
    n = b_ * ho * wo

    # Forward in channel-major layout: acc[OC, B*HO*WO] gains one small
    # [OC, IC] x [IC, B*HO*WO] product per kernel tap.
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # [KH, KW, OC, IC]
    xc = xd.transpose(1, 0, 2, 3)
    acc = np.zeros((oc, n))
    for i, j, rows, cols in _taps(kh, kw, ho, wo, stride):
        acc += wt[i, j] @ xc[:, :, rows, cols].reshape(ic, n)
    out = np.ascontiguousarray(acc.reshape(oc, b_, ho, wo).transpose(1, 0, 2, 3))
    out += bias.data[None, :, None, None]

    need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad

    def bwd(g):
        gx = gw = None
        if need_x:  # channel-last: [B*HO*WO, OC] x [OC, IC] per tap
            gt = g.transpose(0, 2, 3, 1).reshape(n, oc)
            gxt = np.zeros((b_, h, w, ic))
            for i, j, rows, cols in _taps(kh, kw, ho, wo, stride):
                gxt[:, rows, cols, :] += (gt @ wt[i, j]).reshape(b_, ho, wo, ic)
            gx = np.ascontiguousarray(gxt.transpose(0, 3, 1, 2))
        if need_w:  # [OC, B*HO*WO] x [B*HO*WO, IC] per tap
            gc = g.transpose(1, 0, 2, 3).reshape(oc, n)
            gw = np.empty_like(wd)
            xt = np.ascontiguousarray(xd.transpose(0, 2, 3, 1))
            for i, j, rows, cols in _taps(kh, kw, ho, wo, stride):
                gw[:, :, i, j] = gc @ xt[:, rows, cols, :].reshape(n, ic)
        return gx, gw, (g.sum(axis=(0, 2, 3)) if need_b else None)

    return record_external("conv2d", out, (x, weight, bias), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); -0.0 and 0.0 both give 0.0, and a NaN passes through."""
    mask = x.data > 0 if _recorded((x,)) else None
    def bwd(g):
        return (g * mask,)
    return record_external("relu", np.maximum(x.data, 0.0), (x,), bwd)


def maxpool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pooling over [B,C,H,W]; gradient goes to the first maximal
    element (row-major scan) of each window, so ties break deterministically.
    A NaN in a window makes its max NaN."""
    if not isinstance(kernel, int) or kernel < 1:
        raise ValueError(f"maxpool2d: kernel must be a positive integer, got {kernel!r}")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"maxpool2d: stride must be a positive integer, got {stride!r}")
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"maxpool2d: expected 4-D input, got {x.shape}")
    h, w = x.shape[2:]
    if h < kernel or w < kernel:
        raise ShapeMismatchError(f"maxpool2d: input {x.shape} smaller than window {kernel}x{kernel}")
    ho, wo = conv_out_hw(h, w, kernel, kernel, stride)
    taps = [(rows, cols) for _, _, rows, cols in _taps(kernel, kernel, ho, wo, stride)]
    windows = [x.data[:, :, rows, cols] for rows, cols in taps]
    # On a tie np.maximum returns its second argument, so the running max
    # keeps the bits of the first maximal tap, -0.0 against 0.0 included.
    best = windows[0].copy()
    for tap in windows[1:]:
        np.maximum(tap, best, out=best)
    # Only a recorded node runs backward, so only it builds the winners:
    # one mask per tap, True where that tap is the window's first maximum.
    wins = []
    if _recorded((x,)):
        free = np.ones(best.shape, dtype=bool)
        for tap in windows:
            win = tap == best
            win &= free
            free ^= win
            wins.append(win)
    shape = x.shape

    def bwd(g):
        # Within one tap each window maps to its own input cell, so the
        # strided += never collides; overlapping windows add across taps.
        gx = np.zeros(shape)
        for (rows, cols), win in zip(taps, wins):
            gx[:, :, rows, cols] += g * win
        return (gx,)

    return record_external("maxpool2d", best, (x,), bwd)


def flatten(x: Tensor) -> Tensor:
    """Collapse all axes after the first: [B, ...] -> [B, prod(...)]."""
    if x.data.ndim < 1:
        raise ShapeMismatchError(f"flatten: expected at least 1-D input, got {x.shape}")
    shape = x.shape
    out = x.data.reshape(shape[0], -1)
    def bwd(g):
        return (g.reshape(shape),)
    return record_external("flatten", out, (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeMismatchError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    def bwd(g):
        return (g.reshape(old),)
    return record_external("reshape", x.data.reshape(shape), (x,), bwd)


def reduce_sum(x: Tensor) -> Tensor:
    shape = x.shape
    def bwd(g):
        return (np.full(shape, float(g)),)
    return record_external("sum", np.asarray(x.data.sum()), (x,), bwd)


def reduce_mean(x: Tensor) -> Tensor:
    shape, n = x.shape, x.size
    def bwd(g):
        return (np.full(shape, float(g) / n),)
    return record_external("mean", np.asarray(x.data.mean()), (x,), bwd)


# Node kinds of the arithmetic primitives; the finite-difference gradient
# oracle of the test suite sweeps every one of them.
PRIMITIVE_KINDS = ("add", "multiply", "matmul", "conv2d", "relu", "maxpool2d", "flatten", "mean", "sum")


def backward(loss: Tensor, tape: Tape) -> dict[int, Tensor]:
    """Reverse sweep over `tape` from a scalar `loss`.

    Returns gradients for every requires-grad leaf reachable from the
    loss, keyed by tensor uid; a loss built solely on cut-off tensors
    yields none. Deterministic: one reverse pass in tape order.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not tape.nodes:
        raise ValueError("backward: tape is empty")

    adjoint: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = adjoint.pop(node.out_uid, None)
        if g is None:
            continue
        parent_grads = node.backward_fn(g)
        for uid, pg in zip(node.parent_uids, parent_grads):
            if pg is None:
                continue
            seen = adjoint.get(uid)
            if seen is None:
                adjoint[uid] = pg
            else:
                adjoint[uid] = seen + pg

    return {
        uid: Tensor(adjoint[uid])
        for uid, leaf in tape.leaves.items()
        if uid in adjoint and leaf.requires_grad
    }
