"""The engine's conv2d, maxpool2d and relu kernels against the direct
loops of reference_kernels and the np.where forms they replaced: forward
values and every adjoint, bit for bit, signed zeros included."""

import numpy as np
import pytest

from freezelab import autodiff as ad
from freezelab.autodiff import Tape, Tensor

from reference_kernels import conv2d_reference, maxpool2d_reference


# Bit identity with the tensordot loop rests on BLAS adding the same terms
# in the same order for both call layouts. It was recorded with numpy 2.4.6
# on scipy-openblas 0.3.31 (x86-64, a DYNAMIC_ARCH build that ran its
# SkylakeX kernels, as `scipy_openblas_get_corename64_()` reports; the
# "Haswell" in `np.show_config` is only the build's baseline); another BLAS
# build or CPU kernel may round differently while both kernels stay
# correct, so a failure names the BLAS in use.
_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
_BLAS_NAME = f"{_BLAS.get('name')} {_BLAS.get('version')}"


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (
        f"bits differ under BLAS {_BLAS_NAME} (identity recorded with scipy-openblas 0.3.31); "
        f"max abs difference {np.max(np.abs(got - want))}")


def _engine_conv(x, w, b, stride, g):
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        out = ad.conv2d(tx, tw, bias=tb, stride=stride)
    return (out.data, *tape.nodes[out.node_id].backward_fn(g))


def _conv_arrays(shape, seed):
    b_, ic, h, w, oc, k, stride = shape
    rng = np.random.default_rng(seed)
    ho, wo = ad.conv_out_hw(h, w, k, k, stride)
    return (rng.normal(size=(b_, ic, h, w)), rng.normal(size=(oc, ic, k, k)), rng.normal(size=oc),
            stride, rng.normal(size=(b_, oc, ho, wo)))


def _conv_cases():
    # (batch, in channels, height, width, out channels, kernel, stride)
    # the default arch's convs at its nominal shapes; the run crops them (see below)
    cases = [(8, 3, 32, 32, 8, 3, 1), (8, 8, 15, 15, 16, 3, 1)]
    rng = np.random.default_rng(606)
    for trial in range(30):
        k = (1, 2, 3)[trial // 3 % 3]
        h, w = rng.choice(np.arange(k, 13), size=2, replace=False)  # never square
        cases.append((int(rng.integers(2, 5)), (1, 3, 8)[trial % 3], int(h), int(w),
                      int(rng.integers(2, 10)), k, 1 + trial // 9 % 2))
    return cases


@pytest.mark.parametrize("shape", _conv_cases(), ids=str)
def test_conv2d_is_bit_identical_to_the_direct_loop(shape):
    arrays = _conv_arrays(shape, seed=sum(shape))
    for got, want, name in zip(_engine_conv(*arrays), conv2d_reference(*arrays), ("out", "gx", "gw", "gb")):
        assert got is not None, name
        assert_same_bits(got, want)


@pytest.mark.parametrize("shape", [(8, 3, 30, 30, 8, 3, 1), (8, 8, 14, 14, 16, 3, 1)], ids=str)
def test_conv2d_on_a_crop_view_is_bit_identical_to_the_direct_loop(shape):
    # The shapes the default run hands the convs: its backbone reads rows
    # and columns 0-29 of each 32x32 image, a view of the batch, so conv2
    # reads 14x14 of pool1's nominal 15x15. Both are fed here as views into
    # a larger batch, the reference a contiguous copy.
    x, *rest = _conv_arrays(shape, seed=sum(shape))
    h, w = x.shape[2:]
    batch = np.random.default_rng(sum(shape)).normal(size=(*x.shape[:2], h + 2, w + 3))
    batch[:, :, :h, :w] = x
    view = batch[:, :, :h, :w]
    assert np.shares_memory(view, batch) and not view.flags.c_contiguous
    for got, want, name in zip(_engine_conv(view, *rest), conv2d_reference(x, *rest), ("out", "gx", "gw", "gb")):
        assert got is not None, name
        assert_same_bits(got, want)


@pytest.mark.parametrize("shape", [(1, 3, 6, 7, 4, 1, 1), (1, 8, 5, 9, 3, 2, 2), (1, 1, 7, 10, 3, 2, 1),
                                   (3, 3, 7, 10, 1, 1, 1), (2, 8, 11, 10, 1, 3, 2)], ids=str)
def test_conv2d_matches_the_direct_loop_to_rounding_for_one_sample_or_one_filter(shape):
    # With one sample or one output channel, the direct loop hands BLAS a
    # transposed view or a matrix-vector product where the engine hands it
    # a plain matrix product, and BLAS may then add the same terms in
    # another order. The default run never has either shape.
    arrays = _conv_arrays(shape, seed=sum(shape))
    for got, want in zip(_engine_conv(*arrays), conv2d_reference(*arrays)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _pool_input(values, rng, shape=(3, 4, 9, 11)):
    if values == "relu":  # the zeros relu leaves make whole windows tie
        return np.maximum(rng.normal(size=shape), 0.0)
    if values == "ties":
        return rng.integers(-1, 2, size=shape).astype(np.float64)
    # windows whose max is 0.0 tied with -0.0, in either order
    return rng.choice([-0.0, 0.0, -1.0], size=shape, p=[0.45, 0.45, 0.1])


_POOLS = [(2, 2), (3, 3), (2, 3), (1, 1), (1, 2), (3, 1), (3, 2), (2, 1)]


@pytest.mark.parametrize("kernel,stride", _POOLS)
@pytest.mark.parametrize("values", ["relu", "ties", "signed-zeros"])
def test_maxpool2d_is_bit_identical_to_the_scatter_add(kernel, stride, values):
    # stride < kernel overlaps windows: a cell that wins in three or more of
    # them sums its adjoints in tap order, where add.at sums them in window
    # order, so only those cells may differ, and only by rounding
    rng = np.random.default_rng(100 * kernel + stride)
    x = _pool_input(values, rng)
    tx = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = ad.maxpool2d(tx, kernel=kernel, stride=stride)
    g = rng.normal(size=out.shape)
    g[rng.random(g.shape) < 0.2] = -0.0
    (gx,) = tape.nodes[out.node_id].backward_fn(g)
    want_out, want_gx = maxpool2d_reference(x, kernel, stride, g)
    assert_same_bits(out.data, want_out)
    _, wins = maxpool2d_reference(x, kernel, stride, np.ones_like(g))
    few = wins <= 2
    assert_same_bits(gx[few], want_gx[few])
    np.testing.assert_allclose(gx, want_gx, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("kernel,stride", _POOLS)
@pytest.mark.parametrize("values", ["relu", "ties", "signed-zeros"])
def test_maxpool2d_off_the_tape_returns_the_on_tape_values(kernel, stride, values):
    x = _pool_input(values, np.random.default_rng(7 * kernel + stride))
    with Tape():
        on_tape = ad.maxpool2d(Tensor(x, requires_grad=True), kernel=kernel, stride=stride)
    assert on_tape.node_id is not None
    off_tape = ad.maxpool2d(Tensor(x, requires_grad=True), kernel=kernel, stride=stride)
    assert off_tape.node_id is None
    assert_same_bits(off_tape.data, on_tape.data)


def test_signed_zero_ties_keep_the_first_tap():
    x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [-1.0, -1.0, -1.0, -1.0]]]])
    with Tape() as tape:
        out = ad.maxpool2d(Tensor(x, requires_grad=True), kernel=2, stride=2)
    (gx,) = tape.nodes[out.node_id].backward_fn(np.array([[[[5.0, 7.0]]]]))
    assert np.signbit(out.data).tolist() == [[[[True, False]]]]
    assert gx.tolist() == [[[[5.0, 0.0, 7.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]]


def test_relu_is_bit_identical_to_the_select():
    # the reference is the select np.where(x > 0, x, 0.0): -0.0 and 0.0 both give 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 9, 11))
    spots = rng.random(x.shape) < 0.4
    x[spots] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=int(spots.sum()))
    g = rng.normal(size=x.shape)
    g[rng.random(g.shape) < 0.2] = -0.0
    mask = x > 0
    assert_same_bits(ad.relu(Tensor(x)).data, np.where(mask, x, 0.0))
    with Tape() as tape:
        out = ad.relu(Tensor(x, requires_grad=True))
    assert_same_bits(out.data, np.where(mask, x, 0.0))
    (gx,) = tape.nodes[out.node_id].backward_fn(g)
    assert_same_bits(gx, g * mask)
