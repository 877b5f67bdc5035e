"""Optimizer tests: clipping, the SGD update rule, and the frozen-parameter
preservation contract."""

import math

import numpy as np
import pytest

from freezelab.autodiff import Tape, Tensor, backward
from freezelab.model import build_detector, default_desk_arch, detection_loss, detector_forward
from freezelab.optim import (
    OptimState,
    SgdConfig,
    clip_gradients,
    global_grad_norm,
    sgd_step,
)


def _grads(**named):
    return {key: np.asarray(val, dtype=np.float64) for key, val in named.items()}


# --------------------------------------------------------------------------
# clipping


def test_clip_below_threshold_is_identity():
    # backward hands out plain arrays; under the norm the clip returns the
    # very input arrays (the traced clip_fired_share reads firing by
    # identity), above it fresh arrays, with its inputs left as they were
    d = build_detector(default_desk_arch(), init_seed=0)
    rng = np.random.default_rng(2)
    batch = Tensor(rng.uniform(0.0, 1.0, size=(2, *d.input_shape)))
    with Tape() as tape:
        loss = detection_loss(detector_forward(d, batch, 0), np.zeros((2, d.grid_size, d.grid_size, 5 + d.num_classes)))
    from_backward = backward(loss, tape)
    assert from_backward and all(type(g) is np.ndarray for g in from_backward.values())

    for below, max_norm in ((_grads(w=[3.0, 4.0]), 35.0), (from_backward, math.inf)):  # norm 5 < 35
        out = clip_gradients(below, max_norm)
        assert out.keys() == below.keys() and all(out[k] is below[k] for k in below)

    above = _grads(w=[42.0, 56.0], b=[0.0, 70.0])
    before = {k: g.copy() for k, g in above.items()}
    out = clip_gradients(above, 35.0)
    for k, g in above.items():
        assert type(out[k]) is np.ndarray and out[k] is not g and not np.shares_memory(out[k], g)
        assert g.tobytes() == before[k].tobytes()


def test_clip_halves_norm_seventy():
    grads = _grads(w=[42.0, 56.0])  # norm 70
    out = clip_gradients(grads, 35.0)
    assert np.array_equal(out["w"], [21.0, 28.0])


def test_clip_spans_multiple_entries():
    # norms combine globally: [30,40] and [30*sqrt2, 40*sqrt2]-style pieces
    grads = _grads(a=[30.0, 40.0], b=[np.sqrt(3.0) * 30.0, np.sqrt(3.0) * 40.0])
    assert global_grad_norm(grads) == pytest.approx(100.0, rel=1e-12)
    out = clip_gradients(grads, 35.0)
    assert global_grad_norm(out) == pytest.approx(35.0, rel=1e-12)
    ratio = out["a"] / grads["a"]
    assert np.allclose(ratio, 0.35, rtol=1e-12)


def test_clip_empty_passes_through():
    assert clip_gradients({}, 35.0) == {}
    assert global_grad_norm({}) == 0.0


def test_clip_idempotent():
    below = _grads(w=[1.0, 2.0])
    once = clip_gradients(below, 35.0)
    twice = clip_gradients(once, 35.0)
    assert np.array_equal(once["w"], twice["w"])

    above = _grads(w=np.full(100, 7.0))
    once = clip_gradients(above, 35.0)
    twice = clip_gradients(once, 35.0)
    assert np.max(np.abs(once["w"] - twice["w"])) <= 1e-12
    assert global_grad_norm(once) <= 35.0 + 1e-12


def test_clip_rejects_bad_max_norm():
    with pytest.raises(ValueError):
        clip_gradients(_grads(w=[1.0]), 0.0)


# --------------------------------------------------------------------------
# sgd step


def test_vanilla_step():
    params = {"w": Tensor(np.array([1.0]))}
    grads = _grads(w=[0.5])
    cfg = SgdConfig(momentum=0.0, weight_decay=0.0)
    sgd_step(params, grads, OptimState(), lr=0.1, cfg=cfg)
    assert params["w"].data[0] == pytest.approx(0.95, abs=1e-15)


def test_decay_applies_to_present_zero_grad():
    params = {"w": Tensor(np.array([1.0]))}
    grads = _grads(w=[0.0])
    cfg = SgdConfig(momentum=0.0, weight_decay=1e-4)
    sgd_step(params, grads, OptimState(), lr=0.1, cfg=cfg)
    assert params["w"].data[0] == pytest.approx(1.0 - 0.1 * 1e-4, abs=1e-18)


def test_absent_param_left_untouched():
    frozen = np.array([0.25, -1.5, 3.0])
    params = {
        "backbone.w": Tensor(frozen.copy()),
        "head.w": Tensor(np.array([1.0, 1.0, 1.0])),
    }
    state = OptimState()
    state.velocity["backbone.w"] = np.array([9.0, 9.0, 9.0])
    before_velocity = state.velocity["backbone.w"].copy()
    grads = _grads(**{"head.w": [0.1, 0.2, 0.3]})
    sgd_step(params, grads, state, lr=0.01, cfg=SgdConfig())
    assert np.array_equal(params["backbone.w"].data, frozen)
    assert np.array_equal(state.velocity["backbone.w"], before_velocity)
    assert not np.array_equal(params["head.w"].data, [1.0, 1.0, 1.0])


def test_frozen_immutability_over_many_steps():
    rng = np.random.default_rng(11)
    frozen_value = rng.normal(size=(4, 4))
    params = {"b.w": Tensor(frozen_value.copy()), "h.w": Tensor(rng.normal(size=(4,)))}
    state = OptimState()
    cfg = SgdConfig()
    for _ in range(25):
        sgd_step(params, _grads(**{"h.w": rng.normal(size=4)}), state, lr=0.05, cfg=cfg)
    assert np.array_equal(params["b.w"].data, frozen_value)
    assert "b.w" not in state.velocity


def test_momentum_accumulates():
    # two steps with constant gradient: v1 = g, v2 = m*g + g
    params = {"w": Tensor(np.array([0.0]))}
    cfg = SgdConfig(momentum=0.9, weight_decay=0.0)
    state = OptimState()
    sgd_step(params, _grads(w=[1.0]), state, lr=0.1, cfg=cfg)
    assert params["w"].data[0] == pytest.approx(-0.1, abs=1e-15)
    sgd_step(params, _grads(w=[1.0]), state, lr=0.1, cfg=cfg)
    assert params["w"].data[0] == pytest.approx(-0.1 - 0.1 * 1.9, abs=1e-15)
    assert state.velocity["w"][0] == pytest.approx(1.9, abs=1e-15)


def test_velocity_created_only_after_update():
    params = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(2))}
    state = OptimState()
    assert state.velocity == {}
    sgd_step(params, _grads(a=[0.1, 0.1]), state, lr=0.1, cfg=SgdConfig())
    assert set(state.velocity) == {"a"}


def test_stale_velocity_reused_on_unfreeze():
    params = {"w": Tensor(np.array([0.0]))}
    cfg = SgdConfig(momentum=0.5, weight_decay=0.0)
    state = OptimState()
    sgd_step(params, _grads(w=[1.0]), state, lr=1.0, cfg=cfg)
    # frozen step: no gradient for w, velocity should survive
    sgd_step(params, {}, state, lr=1.0, cfg=cfg)
    assert state.velocity["w"][0] == 1.0
    sgd_step(params, _grads(w=[0.0]), state, lr=1.0, cfg=cfg)
    assert state.velocity["w"][0] == pytest.approx(0.5, abs=1e-15)


def test_shape_mismatch_rejected():
    params = {"w": Tensor(np.ones((2, 2)))}
    with pytest.raises(ValueError):
        sgd_step(params, _grads(w=[1.0, 1.0]), OptimState(), lr=0.1, cfg=SgdConfig())


def test_nonpositive_lr_rejected():
    params = {"w": Tensor(np.ones(1))}
    with pytest.raises(ValueError):
        sgd_step(params, _grads(w=[1.0]), OptimState(), lr=0.0, cfg=SgdConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        SgdConfig(momentum=-0.1)
    with pytest.raises(ValueError):
        SgdConfig(weight_decay=-1e-4)
    with pytest.raises(ValueError):
        SgdConfig(clip_max_norm=0.0)
    with pytest.raises(ValueError):
        SgdConfig(batch_size=0)


def test_update_matches_reference_formula():
    # randomized cross-check of the full rule against a direct recomputation
    rng = np.random.default_rng(5)
    for trial in range(50):
        momentum = float(rng.uniform(0, 0.99))
        wd = float(rng.uniform(0, 1e-2))
        lr = float(rng.uniform(1e-4, 0.5))
        p0 = rng.normal(size=(3,))
        g0 = rng.normal(size=(3,))
        g1 = rng.normal(size=(3,))

        params = {"w": Tensor(p0.copy())}
        state = OptimState()
        cfg = SgdConfig(momentum=momentum, weight_decay=wd)
        sgd_step(params, _grads(w=g0), state, lr=lr, cfg=cfg)
        sgd_step(params, _grads(w=g1), state, lr=lr, cfg=cfg)

        v = g0 + wd * p0
        p = p0 - lr * v
        v = momentum * v + (g1 + wd * p)
        p = p - lr * v
        assert np.allclose(params["w"].data, p, rtol=0, atol=1e-12), trial


@pytest.mark.parametrize("momentum", [0.9, 0.37, 0.0])
def test_in_place_update_is_bit_identical_to_the_expression_form(momentum):
    # the reference builds fresh arrays: v = m*v + (g + wd*p); p -= lr*v,
    # and v = g + wd*p at m=0
    rng = np.random.default_rng(int(momentum * 100) + 17)
    cfg = SgdConfig(momentum=momentum, weight_decay=3e-3)
    shapes = {"a.w": (7, 5), "a.b": (5,), "h.w": (4, 3, 2, 2), "frozen.w": (6,)}
    params = {key: Tensor(rng.normal(size=shape)) for key, shape in shapes.items()}
    want_p = {key: t.data.copy() for key, t in params.items()}
    want_v = {}
    frozen_v = rng.normal(size=shapes["frozen.w"])
    state = OptimState({"frozen.w": frozen_v.copy()})
    for step in range(25):
        present = [key for key in shapes if key != "frozen.w" and (step < 3 or rng.random() < 0.8)]
        grads = {key: rng.normal(size=shapes[key]) for key in present}
        lr = float(rng.uniform(1e-3, 0.3))
        sgd_step(params, grads, state, lr=lr, cfg=cfg)
        for key in present:
            v = grads[key] + cfg.weight_decay * want_p[key]
            if momentum != 0.0:
                v = momentum * want_v.get(key, np.zeros(shapes[key])) + v
            want_v[key] = v
            want_p[key] = want_p[key] - lr * v
        for key in shapes:
            assert params[key].data.tobytes() == want_p[key].tobytes(), (step, key)
        assert set(state.velocity) == set(want_v) | {"frozen.w"}
        for key, v in want_v.items():
            assert state.velocity[key].tobytes() == v.tobytes(), (step, key)
        assert state.velocity["frozen.w"].tobytes() == frozen_v.tobytes()
