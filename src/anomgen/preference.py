"""Preference loss and deviation quantities.

The training loss treats the frozen reference model's denoising error as
the implicit comparison: the policy is "preferred" when it denoises a
real anomaly better than the reference does.
"""

from __future__ import annotations

import numpy as np

from .autodiff import sigmoid


def alignment_deviation(eps_theta_hat, eps_ref_hat, eps):
    """||eps_theta - eps||^2 - ||eps_ref - eps||^2 per row; negative favors the policy."""
    a = np.asarray(eps_theta_hat, dtype=np.float64)
    b = np.asarray(eps_ref_hat, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    return np.sum((a - e) ** 2, axis=-1) - np.sum((b - e) ** 2, axis=-1)


def apo_loss(delta, beta_t):
    """-log sigmoid(-beta_t * delta) per row, evaluated as softplus(beta_t * delta).

    delta holds one deviation per row, beta_t one weight or one per row; the
    softplus form stays finite for any finite argument.  Returns the row
    losses and the gradient of their mean with respect to delta.
    """
    beta_t = np.asarray(beta_t, dtype=np.float64)
    x = np.asarray(delta, dtype=np.float64) * beta_t
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out, ((1.0 / x.size) * sigmoid(x)) * beta_t


def sd_loss(eps_hat, eps):
    """Mean squared error of a noise prediction and its gradient d loss / d eps_hat."""
    a = np.asarray(eps_hat, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    d = a - e
    gd = d * (1.0 / d.size)
    return float(np.mean(d * d)), gd + gd


def bt_preference_prob(delta: float, beta_t: float) -> float:
    """sigmoid(-beta_t * delta): probability the policy is preferred."""
    return float(sigmoid(np.float64(-beta_t * float(delta))))
