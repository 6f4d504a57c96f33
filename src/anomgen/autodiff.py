"""Closed-form reverse pass of the fixed denoiser.

The net is four dense layers with SiLU between them, a condition-table row
plus a time embedding added after the first layer, and optionally unmerged
gated low-rank adapters.  Denoiser.forward(..., cache=[]) keeps what the
pass needs; backward() maps the gradient of a loss with respect to the
output rows onto the parameters.  The operation order is fixed, so the
same batch always gives bit-identical gradients.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign.

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def zero_grads(params) -> list[np.ndarray]:
    """One zeroed gradient buffer per parameter array, for backward to sum into."""
    return [np.zeros_like(p) for p in params]


def backward(model, cache: list, g: np.ndarray, grads: list, adapters=None) -> None:
    """Add d loss / d parameters to grads, given g = d loss / d output rows (B, D).

    Without adapters grads follows model.params (weights, biases, condition
    table).  With adapters it follows adapters.params (A, then B) and the
    frozen model gets no gradient.  The first layer takes no input gradient.
    """
    (tokens, mask), *layers = cache
    n = len(layers)
    for i in reversed(range(n)):
        h, u, x, s = layers[i]
        if s is not None:  # SiLU: d(x s(x))/dx = s (1 + x (1 - s))
            g = g * (s * (1.0 + x * (1.0 - s)))
        if adapters is None:
            grads[i] += g.T @ h
            grads[n + i] += g.sum(axis=0)
        else:
            gu = (g @ adapters.B[i]) * mask
            grads[n + i] += g.T @ u
            grads[i] += gu.T @ h
        if i > 0:
            gh = g @ model.weights[i]
            g = gh if adapters is None else gh + gu @ adapters.A[i]
    if adapters is None:
        # a shared token broadcast its row over the batch, so it takes the row sum
        np.add.at(grads[2 * n], tokens, g if tokens.ndim else g.sum(axis=0))
