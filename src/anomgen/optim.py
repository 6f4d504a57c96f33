"""Bias-corrected Adam, updating parameter arrays in place from given gradients."""

from __future__ import annotations

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when a training loss or gradient stops being finite."""


class Adam:
    """First/second moments per parameter, the step count, and two scratch arrays."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        size = max((p.size for p in self.params), default=0)
        self.scratch = (np.empty(size), np.empty(size))

    def step(self, grads) -> None:
        adam_step(self, grads)


def adam_step(opt: Adam, grads) -> None:
    """Apply one Adam update to opt.params in place, one gradient per parameter.

    A non-finite gradient raises DivergenceError before any parameter is
    touched.  m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    p -= (lr (m/c1)) / (sqrt(v/c2) + eps) run one ufunc at a time into m, v,
    p or a scratch view, so a step allocates nothing parameter-sized.
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
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        a, b = (s[:p.size].reshape(p.shape) for s in opt.scratch)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)
        np.multiply(a, opt.learning_rate, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)
