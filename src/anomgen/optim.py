"""Bias-corrected Adam, updating parameter arrays in place from given gradients."""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when a training loss or gradient stops being finite."""


class Adam:
    """First/second moment accumulators, one pair per parameter, and the step count."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        adam_step(self, grads)


def adam_step(opt: Adam, grads) -> None:
    """Apply one Adam update to opt.params in place, one gradient per parameter.

    A non-finite gradient raises DivergenceError before any parameter is
    touched.
    """
    params = opt.params
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError("gradient shape mismatch")
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient")

    opt.step_count += 1
    t = opt.step_count
    b1, b2, eps = 0.9, 0.999, 1e-8
    for i, (p, g) in enumerate(zip(params, grads)):
        opt.m[i] = b1 * opt.m[i] + (1.0 - b1) * g
        opt.v[i] = b2 * opt.v[i] + (1.0 - b2) * g * g
        m_hat = opt.m[i] / (1.0 - b1**t)
        v_hat = opt.v[i] / (1.0 - b2**t)
        p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
