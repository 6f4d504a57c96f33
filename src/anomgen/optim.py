"""Bias-corrected Adam on autodiff leaves."""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when a training loss or gradient stops being finite."""


class AdamState:
    """First/second moment accumulators, one pair per parameter."""

    def __init__(self, params, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState, params=None, grads=None):
    """Apply one Adam update; params default to the state's own list.

    A non-finite gradient raises DivergenceError before any parameter is
    touched.
    """
    if params is None:
        params = state.params
    if grads is None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ValueError("gradient shape mismatch")
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient")

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1**t)
        v_hat = state.v[i] / (1.0 - b2**t)
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


class Adam:
    """Thin object wrapper used by the training loops."""

    def __init__(self, params, learning_rate: float, **kw):
        self.state = AdamState(params, learning_rate, **kw)

    def step(self):
        adam_step(self.state)

    def zero_grad(self):
        for p in self.state.params:
            p.grad = None
