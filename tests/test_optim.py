"""Optimizer tests: clipping, the SGD update rule, and the frozen-parameter
preservation contract."""

import numpy as np
import pytest

from freezelab.autodiff import Tensor
from freezelab.optim import (
    OptimState,
    SgdConfig,
    clip_gradients,
    global_grad_norm,
    sgd_step,
)


def _grads(**named):
    return {key: Tensor(np.asarray(val, dtype=np.float64)) for key, val in named.items()}


# --------------------------------------------------------------------------
# clipping


def test_clip_below_threshold_is_identity():
    grads = _grads(w=[3.0, 4.0])  # norm 5
    out = clip_gradients(grads, 35.0)
    assert np.array_equal(out["w"].data, [3.0, 4.0])


def test_clip_halves_norm_seventy():
    grads = _grads(w=[42.0, 56.0])  # norm 70
    out = clip_gradients(grads, 35.0)
    assert np.array_equal(out["w"].data, [21.0, 28.0])


def test_clip_spans_multiple_entries():
    # norms combine globally: [30,40] and [30*sqrt2, 40*sqrt2]-style pieces
    grads = _grads(a=[30.0, 40.0], b=[np.sqrt(3.0) * 30.0, np.sqrt(3.0) * 40.0])
    assert global_grad_norm(grads) == pytest.approx(100.0, rel=1e-12)
    out = clip_gradients(grads, 35.0)
    assert global_grad_norm(out) == pytest.approx(35.0, rel=1e-12)
    ratio = out["a"].data / grads["a"].data
    assert np.allclose(ratio, 0.35, rtol=1e-12)


def test_clip_empty_passes_through():
    assert clip_gradients({}, 35.0) == {}
    assert global_grad_norm({}) == 0.0


def test_clip_idempotent():
    below = _grads(w=[1.0, 2.0])
    once = clip_gradients(below, 35.0)
    twice = clip_gradients(once, 35.0)
    assert np.array_equal(once["w"].data, twice["w"].data)

    above = _grads(w=np.full(100, 7.0))
    once = clip_gradients(above, 35.0)
    twice = clip_gradients(once, 35.0)
    assert np.max(np.abs(once["w"].data - twice["w"].data)) <= 1e-12
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
