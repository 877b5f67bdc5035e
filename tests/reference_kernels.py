"""The direct conv2d and the scatter-add maxpool backward, kept as oracles
for the engine's kernels.

`conv2d_reference` is the per-tap `tensordot` loop the engine used before
its per-tap GEMM form, forward and backward; `maxpool2d_reference` routes
the output adjoint through `np.add.at`, the scatter-add the engine used
before it added per tap. Both work on plain arrays and build no tape.
"""

import numpy as np


def conv2d_reference(x, w, b, stride, g):
    """(out, gx, gw, gb) of a valid conv of x [B,IC,H,W] with w
    [OC,IC,KH,KW] plus bias b [OC], given the output adjoint g."""
    b_, _, h, wd_ = x.shape
    oc, _, kh, kw = w.shape
    ho, wo = (h - kh) // stride + 1, (wd_ - kw) // stride + 1
    acc = np.zeros((b_, ho, wo, oc))
    for i in range(kh):
        for j in range(kw):
            patch = x[:, :, i : i + (ho - 1) * stride + 1 : stride, j : j + (wo - 1) * stride + 1 : stride]
            acc += np.tensordot(patch, w[:, :, i, j], axes=([1], [1]))
    out = np.ascontiguousarray(np.moveaxis(acc, 3, 1))
    out += b[None, :, None, None]

    gx = np.zeros_like(x)
    gw = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + (ho - 1) * stride + 1, stride)
            cols = slice(j, j + (wo - 1) * stride + 1, stride)
            patch = x[:, :, rows, cols]
            gw[:, :, i, j] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
            spread = np.tensordot(g, w[:, :, i, j], axes=([1], [0]))
            gx[:, :, rows, cols] += np.moveaxis(spread, 3, 1)
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def maxpool2d_reference(x, kernel, stride, g):
    """(out, gx) of max pooling x [B,C,H,W]: the first maximal element of
    each window (row-major scan) takes that window's adjoint."""
    b_, c, h, w = x.shape
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    best = np.full((b_, c, ho, wo), -np.inf)
    winner = np.zeros((b_, c, ho, wo), dtype=np.int64)
    for i in range(kernel):
        for j in range(kernel):
            vals = x[:, :, i : i + (ho - 1) * stride + 1 : stride, j : j + (wo - 1) * stride + 1 : stride]
            better = vals > best
            best = np.where(better, vals, best)
            winner = np.where(better, i * kernel + j, winner)
    gx = np.zeros_like(x)
    bi, ci, oy, ox = np.indices(g.shape)
    np.add.at(gx, (bi, ci, oy * stride + winner // kernel, ox * stride + winner % kernel), g)
    return best, gx
