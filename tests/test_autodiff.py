"""Engine tests: every primitive against finite differences, detach
semantics (a tensor built from another's data is cut off from its
producers), tape bookkeeping, and error paths."""

import numpy as np
import pytest

from freezelab import autodiff as ad
from freezelab.autodiff import (
    PRIMITIVE_KINDS,
    ShapeMismatchError,
    Tape,
    Tensor,
    backward,
    pause_recording,
)

from helpers import check_gradients, fd_gradient, rel_error


def scalar_loss(t):
    return ad.reduce_sum(ad.multiply(t, t))


# --------------------------------------------------------------------------
# forward-value examples


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    out = ad.matmul(a, eye)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 0.0, 2.5]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.5])


def test_conv2d_all_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = ad.conv2d(x, k, bias=Tensor(np.zeros(1)), stride=1)
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_shape_mismatch_names_op_and_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg


def test_add_rejects_incompatible():
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.ones((2, 2))), Tensor(np.ones((3,))))


# --------------------------------------------------------------------------
# backward examples


def test_grad_of_sum_is_ones():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(w)
    grads = backward(loss, tape)
    assert np.array_equal(grads[w.uid], [1.0, 1.0, 1.0])


def test_grad_mean_relu():
    w = Tensor([-1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_mean(ad.relu(w))
    grads = backward(loss, tape)
    numeric = fd_gradient(lambda a: np.mean(np.maximum(a, 0.0)), [w.data.copy()], 0)
    assert np.array_equal(grads[w.uid], [0.0, 0.5])
    assert rel_error(grads[w.uid], numeric) <= 1e-6


def test_backward_rejects_nonscalar_loss():
    w = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = ad.relu(w)
    with pytest.raises(ValueError):
        backward(out, tape)


def test_backward_rejects_empty_tape():
    w = Tensor(np.ones(1), requires_grad=True)
    tape = Tape()
    with pytest.raises(ValueError):
        backward(w, tape)


# --------------------------------------------------------------------------
# detach: Tensor(x.data) is x's value cut off from its producers


def test_detach_preserves_values():
    w = Tensor([1.5, -2.0], requires_grad=True)
    with Tape():
        t = ad.multiply(w, w)
        d = Tensor(t.data)
    assert t.requires_grad
    assert np.array_equal(d.data, t.data)
    assert not d.requires_grad


def test_detach_blocks_gradient():
    w = Tensor([1.0, 2.0], requires_grad=True)
    x = Tensor([3.0, 4.0])
    with Tape() as tape:
        y = Tensor(ad.multiply(w, x).data)
        loss = ad.reduce_sum(y)
    # the loss lives entirely behind the cut: no gradient reaches w
    grads = backward(loss, tape)
    assert grads == {}


def test_detach_half_of_sum():
    # z = w*x + cut(w*x): only the live half contributes gradient, so
    # d(sum z)/dw equals the gradient of sum(w*x) alone.
    w0 = np.array([1.0, -2.0, 0.5])
    x0 = np.array([3.0, 4.0, -1.0])
    w = Tensor(w0, requires_grad=True)
    x = Tensor(x0)
    with Tape() as tape:
        live = ad.multiply(w, x)
        z = ad.add(live, Tensor(ad.multiply(w, x).data))
        loss = ad.reduce_sum(z)
    grads = backward(loss, tape)
    assert np.array_equal(grads[w.uid], x0)
    # and it matches finite differences of the cut expression, where the
    # second term is held constant
    frozen = w0 * x0
    numeric = fd_gradient(lambda a: float(np.sum(a * x0 + frozen)), [w0.copy()], 0)
    assert rel_error(grads[w.uid], numeric) <= 1e-6


def test_forward_values_unchanged_by_detach():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    plain = ad.matmul(ad.relu(Tensor(a)), Tensor(b))
    cut = ad.matmul(Tensor(ad.relu(Tensor(a)).data), Tensor(b))
    assert np.array_equal(plain.data, cut.data)


def test_pause_recording_identical_values_no_nodes():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 3)))
    with Tape() as tape:
        with pause_recording():
            hidden = ad.matmul(x, w)
        assert tape.nodes == []
        assert not hidden.requires_grad
    reference = ad.matmul(x, w)
    assert np.array_equal(hidden.data, reference.data)


# --------------------------------------------------------------------------
# finite-difference sweep over every primitive kind

RNG = np.random.default_rng(20240517)


def _away_from_kinks(shape, gap=1e-3):
    """Uniform values with |v| > gap, so relu/maxpool are differentiable."""
    vals = RNG.uniform(-2.0, 2.0, size=shape)
    vals = np.where(np.abs(vals) < gap, vals + np.sign(vals + 1e-12) * gap * 2, vals)
    return vals


def _gradient_cases():
    cases = []
    for trial in range(100):
        kind = PRIMITIVE_KINDS[trial % len(PRIMITIVE_KINDS)]
        cases.append((trial, kind))
    return cases


@pytest.mark.parametrize("trial,kind", _gradient_cases())
def test_primitive_gradients_match_finite_differences(trial, kind):
    if kind == "add":
        if trial % 2:
            a, b = _away_from_kinks((3, 4)), _away_from_kinks((3, 4))
        else:
            a, b = _away_from_kinks((2, 5)), _away_from_kinks((5,))  # bias form
        build = lambda ta, tb: scalar_loss(ad.add(ta, tb))
        func = lambda ua, ub: float(np.sum((ua + ub) ** 2))
        arrays = [a, b]
    elif kind == "multiply":
        if trial % 2:
            a, b = _away_from_kinks((4, 3)), _away_from_kinks((4, 3))
        else:
            a, b = _away_from_kinks((4, 3)), _away_from_kinks(())  # scalar form
        build = lambda ta, tb: scalar_loss(ad.multiply(ta, tb))
        func = lambda ua, ub: float(np.sum((ua * ub) ** 2))
        arrays = [a, b]
    elif kind == "matmul":
        a, b = _away_from_kinks((3, 4)), _away_from_kinks((4, 2))
        build = lambda ta, tb: scalar_loss(ad.matmul(ta, tb))
        func = lambda ua, ub: float(np.sum((ua @ ub) ** 2))
        arrays = [a, b]
    elif kind == "conv2d":
        stride = 1 + trial % 2
        x = _away_from_kinks((2, 2, 5, 5))
        w = _away_from_kinks((3, 2, 2, 2))
        bias = _away_from_kinks((3,))
        build = lambda tx, tw, tb: scalar_loss(ad.conv2d(tx, tw, bias=tb, stride=stride))

        def func(ux, uw, ub, _s=stride):
            ho = (5 - 2) // _s + 1
            out = np.zeros((2, 3, ho, ho))
            for bi in range(2):
                for oc in range(3):
                    for oy in range(ho):
                        for ox in range(ho):
                            patch = ux[bi, :, oy * _s : oy * _s + 2, ox * _s : ox * _s + 2]
                            out[bi, oc, oy, ox] = np.sum(patch * uw[oc]) + ub[oc]
            return float(np.sum(out**2))

        arrays = [x, w, bias]
    elif kind == "relu":
        a = _away_from_kinks((4, 4))
        build = lambda ta: scalar_loss(ad.relu(ta))
        func = lambda ua: float(np.sum(np.maximum(ua, 0.0) ** 2))
        arrays = [a]
    elif kind == "maxpool2d":
        a = _away_from_kinks((2, 2, 4, 4))
        build = lambda ta: scalar_loss(ad.maxpool2d(ta, kernel=2, stride=2))

        def func(ua):
            out = ua.reshape(2, 2, 2, 2, 2, 2).max(axis=(3, 5))
            return float(np.sum(out**2))

        arrays = [a]
    elif kind == "flatten":
        a = _away_from_kinks((2, 3, 4))
        build = lambda ta: scalar_loss(ad.flatten(ta))
        func = lambda ua: float(np.sum(ua.reshape(2, -1) ** 2))
        arrays = [a]
    elif kind == "mean":
        a = _away_from_kinks((6, 3))
        build = lambda ta: ad.reduce_mean(ad.multiply(ta, ta))
        func = lambda ua: float(np.mean(ua**2))
        arrays = [a]
    else:  # sum
        a = _away_from_kinks((5, 2))
        build = lambda ta: ad.reduce_sum(ad.multiply(ta, ta))
        func = lambda ua: float(np.sum(ua**2))
        arrays = [a]

    check_gradients(build, func, arrays, tol=1e-6)


def test_maxpool_tie_routes_to_first_element():
    x = Tensor(np.array([[[[2.0, 2.0], [2.0, 2.0]]]]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.maxpool2d(x, kernel=2, stride=2))
    grads = backward(loss, tape)
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    assert np.array_equal(grads[x.uid], expected)


def test_gradients_are_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))

    def run():
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        with Tape() as tape:
            loss = scalar_loss(ad.add(ad.matmul(ta, tb), tb))
        grads = backward(loss, tape)
        return grads[ta.uid].copy(), grads[tb.uid].copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_reused_tensor_accumulates_gradient():
    w = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.add(ad.multiply(w, w), w))  # w^2 + w
    grads = backward(loss, tape)
    assert np.allclose(grads[w.uid], [5.0])  # 2w + 1 at w=2
    # numpy arithmetic on 0-d adjoints yields scalars; backward still hands out arrays
    s = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.multiply(s, s), s)
    grad = backward(loss, tape)[s.uid]
    assert type(grad) is np.ndarray and grad.shape == () and grad == 5.0


def test_tensor_shape_value_invariant():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3) and t.size == 6


def test_no_tape_means_no_tracking():
    w = Tensor([1.0], requires_grad=True)
    out = ad.relu(w)
    assert out.node_id is None and not out.requires_grad


def test_conv2d_accepts_bias_operand():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.full(1, 0.5))
    out = ad.conv2d(x, k, bias=b, stride=1)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.5))


def test_inactive_operands_get_no_adjoint():
    rng = np.random.default_rng(12)
    image = rng.normal(size=(2, 3, 6, 5))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    head = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    features = rng.normal(size=(6, 4))

    def run(inputs_require_grad):
        x = Tensor(image, requires_grad=inputs_require_grad)
        f = Tensor(features, requires_grad=inputs_require_grad)
        with Tape() as tape:
            conv = ad.conv2d(x, w, bias=b, stride=1)
            dense = ad.matmul(f if inputs_require_grad else Tensor(f.data), head)
            loss = ad.add(scalar_loss(conv), scalar_loss(dense))
        adjoints = {out: tape.nodes[out.node_id].backward_fn(np.ones(out.shape)) for out in (conv, dense)}
        return x, f, adjoints[conv], adjoints[dense], backward(loss, tape)

    x, f, conv_adj, dense_adj, grads = run(False)
    assert conv_adj[0] is None and dense_adj[0] is None
    assert all(a is not None for a in conv_adj[1:] + dense_adj[1:])
    assert set(grads) == {w.uid, b.uid, head.uid}

    x_all, f_all, conv_all, dense_all, grads_all = run(True)
    assert conv_all[0] is not None and dense_all[0] is not None
    assert set(grads_all) == {x_all.uid, f_all.uid, w.uid, b.uid, head.uid}
    for leaf in (w, b, head):
        assert grads[leaf.uid].tobytes() == grads_all[leaf.uid].tobytes()
