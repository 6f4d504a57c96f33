"""Preference loss, deviation quantities, and analytic Gaussian oracles.

The training loss treats the frozen reference model's denoising error as
the implicit comparison: the policy is "preferred" when it denoises a
real anomaly better than the reference does.  The Gaussian helpers give
closed forms for the per-step KL difference of equal-covariance
transitions, which the Monte Carlo estimator must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schedule as sched
from .autodiff import sigmoid
from .rng import seeded_gaussian, seeded_randint


@dataclass(frozen=True)
class GaussianStep:
    """Equal-covariance step: target mean, reference mean, policy mean."""

    mu_q: np.ndarray
    mu_ref: np.ndarray
    mu_theta: np.ndarray
    var: float


def alignment_deviation(eps_theta_hat, eps_ref_hat, eps):
    """||eps_theta - eps||^2 - ||eps_ref - eps||^2; negative favors the policy.

    A float for one prediction (D,); one value per row for a batch (B, D).
    """
    a = np.asarray(eps_theta_hat, dtype=np.float64)
    b = np.asarray(eps_ref_hat, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    if a.shape != b.shape or a.shape != e.shape:
        raise ValueError("shape mismatch")
    out = np.sum((a - e) ** 2, axis=-1) - np.sum((b - e) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


def apo_loss(delta, beta_t, grad: bool = False):
    """-log sigmoid(-beta_t * delta), evaluated as softplus(beta_t * delta).

    A float for one deviation; one value per row for an array of per-row
    deviations, with beta_t a single weight or one per row.  The softplus
    form stays finite for any finite argument.  With grad=True also returns
    the gradient of the rows' mean with respect to delta.
    """
    beta_t = np.asarray(beta_t, dtype=np.float64)
    x = np.asarray(delta, dtype=np.float64) * beta_t
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    out = float(out) if out.ndim == 0 else out
    if not grad:
        return out
    return out, ((1.0 / x.size) * sigmoid(x)) * beta_t


def sd_loss(eps_hat, eps, grad: bool = False):
    """Mean squared error of a noise prediction; with grad=True also d loss / d eps_hat."""
    a = np.asarray(eps_hat, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    if a.shape != e.shape:
        raise ValueError("shape mismatch")
    d = a - e
    loss = float(np.mean(d * d))
    if not grad:
        return loss
    gd = d * (1.0 / d.size)
    return loss, gd + gd


def bt_preference_prob(delta: float, beta_t: float) -> float:
    """sigmoid(-beta_t * delta): probability the policy is preferred."""
    return float(sigmoid(np.float64(-beta_t * float(delta))))


def analytic_step_kl_difference(step: GaussianStep) -> float:
    """KL(q||ref) - KL(q||policy) for equal-covariance Gaussians."""
    if step.var <= 0:
        raise ValueError("var must be > 0")
    mu_q = np.asarray(step.mu_q, dtype=np.float64)
    mu_ref = np.asarray(step.mu_ref, dtype=np.float64)
    mu_th = np.asarray(step.mu_theta, dtype=np.float64)
    if mu_q.shape != mu_ref.shape or mu_q.shape != mu_th.shape:
        raise ValueError("mean shape mismatch")
    return float(
        (np.sum((mu_q - mu_ref) ** 2) - np.sum((mu_q - mu_th) ** 2)) / (2.0 * step.var)
    )


def posterior_means(s: sched.NoiseSchedule, z_t, noise_pred, t: int) -> np.ndarray:
    """Mean of the reverse transition under the noise-prediction parameterization."""
    if t == 0:
        raise ValueError("posterior mean undefined at t=0")
    z_t = np.asarray(z_t, dtype=np.float64)
    noise_pred = np.asarray(noise_pred, dtype=np.float64)
    a_t = sched.step_signal(s, t)
    abar_t = sched.cumulative_signal(s, t)
    return (z_t - ((1.0 - a_t) / np.sqrt(1.0 - abar_t)) * noise_pred) / np.sqrt(a_t)


def mc_deviation_estimate(policy, reference, samples, s: sched.NoiseSchedule,
                          n_draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the trajectory-level KL deviation.

    policy/reference are callables (z_t, c, t) -> noise prediction.
    Each draw samples (sample, t, eps) from its own counter streams and
    contributes (T/2) * w_t * (||eps - eps_ref||^2 - ||eps - eps_theta||^2)
    with w_t the exact per-step KL weight, so the expectation equals the
    sum of analytic_step_kl_difference over the whole trajectory.
    Returns (mean, standard error).
    """
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample set")

    idx = seeded_randint(len(samples), (n_draws,), seed, 7001)
    ts = 1 + seeded_randint(s.T, (n_draws,), seed, 7002)
    vals = np.empty(n_draws, dtype=np.float64)
    for d in range(n_draws):
        z0, c = samples[idx[d]]
        z0 = np.asarray(z0, dtype=np.float64)
        t = int(ts[d])
        eps = seeded_gaussian(z0.shape, seed, 7100 + d)
        z_t = sched.forward_noise(s, z0, t, eps)
        e_ref = np.asarray(reference(z_t, c, t), dtype=np.float64)
        e_th = np.asarray(policy(z_t, c, t), dtype=np.float64)
        w = abs(sched.kl_slope(s, t))
        vals[d] = 0.5 * s.T * w * (np.sum((eps - e_ref) ** 2) - np.sum((eps - e_th) ** 2))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_draws))
    return mean, se
