"""Shared test oracles, chiefly central finite differences."""

import numpy as np

from freezelab.autodiff import Tape, Tensor, backward


def fd_gradient(func, arrays, wrt, h=1e-6):
    """Central-difference gradient of scalar-valued `func` w.r.t.
    arrays[wrt], one element at a time."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    target = arrays[wrt]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = func(*arrays)
        flat[i] = orig - h
        lo = func(*arrays)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_error(a, b):
    """Max elementwise |a-b| / max(1, |b|): relative with a unit floor so
    near-zero gradients are compared absolutely."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def analytic_gradients(build, arrays):
    """Run `build` (Tensors in, scalar Tensor out) under a fresh tape and
    return one gradient array per input (None where absent)."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    grads = backward(loss, tape)
    return [grads[t.uid] if t.uid in grads else None for t in tensors]


def check_gradients(build, func, arrays, tol=1e-6, h=1e-6):
    """Assert analytic gradients of `build` match finite differences of
    `func` for every input; returns the worst relative error seen."""
    analytic = analytic_gradients(build, arrays)
    worst = 0.0
    for i in range(len(arrays)):
        numeric = fd_gradient(func, arrays, i, h=h)
        got = analytic[i] if analytic[i] is not None else np.zeros_like(numeric)
        err = rel_error(got, numeric)
        worst = max(worst, err)
        assert err <= tol, f"gradient mismatch for input {i}: rel error {err:.3e} > {tol:.0e}"
    return worst
