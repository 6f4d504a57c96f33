"""Closed forms and reference computations that only the tests use.

The package ships what the CLI runs; the quantities below exist to check
it.  The Gaussian helpers give closed forms for the per-step KL
difference of equal-covariance transitions, which the Monte Carlo
estimator must reproduce; the guided density check compares the linear
three-term guidance against the product of the three branches'
transition densities; the merged adapter update is what the unmerged
forward must equal; the allocating Adam step and the branchy sigmoid are
what the in-place and branch-free forms must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anomgen import dataset, metrics, schedule as sched
from anomgen.denoiser import Denoiser, LoraStack, TemporalGate, gate_matrix, predict_noise
from anomgen.optim import Adam, DivergenceError
from anomgen.rng import seeded_gaussian, seeded_randint
from anomgen.sampler import guided_eps


def _check_t(s: sched.NoiseSchedule, t, low: int) -> None:
    if np.any(np.asarray(t) < low) or np.any(np.asarray(t) > s.T):
        raise ValueError(f"timestep {t} outside [{low}, {s.T}]")


# -- schedule ------------------------------------------------------------------


def step_signal(s: sched.NoiseSchedule, t: int) -> float:
    """Per-step DDPM signal factor a_t = alpha_t^2 / alpha_{t-1}^2."""
    _check_t(s, t, low=1)
    return float(s.alpha[t] ** 2 / s.alpha[t - 1] ** 2)


def cumulative_signal(s: sched.NoiseSchedule, t: int) -> float:
    """Cumulative product abar_t = alpha_t^2."""
    _check_t(s, t, low=0)
    return float(s.alpha[t] ** 2)


def posterior_variance(s: sched.NoiseSchedule, t: int) -> float:
    """Variance of the forward-process posterior q(z_{t-1} | z_t, z_0)."""
    a_t = step_signal(s, t)
    abar_t = cumulative_signal(s, t)
    abar_prev = cumulative_signal(s, t - 1)
    return (1.0 - a_t) * (1.0 - abar_prev) / (1.0 - abar_t)


def kl_slope(s: sched.NoiseSchedule, t: int) -> float:
    """Exact per-step KL weight (1-a_t)^2 / (var_t * a_t * (1-abar_t)).

    Multiplying half this weight by the squared-error difference of the
    two noise predictions gives the per-step KL difference between the
    equal-covariance Gaussian transitions exactly, with var_t the
    forward-posterior variance.
    """
    a_t = step_signal(s, t)
    abar_t = cumulative_signal(s, t)
    var = posterior_variance(s, t)
    return (1.0 - a_t) ** 2 / (var * a_t * (1.0 - abar_t))


# -- preference ----------------------------------------------------------------


@dataclass(frozen=True)
class GaussianStep:
    """Equal-covariance step: target mean, reference mean, policy mean."""

    mu_q: np.ndarray
    mu_ref: np.ndarray
    mu_theta: np.ndarray
    var: float


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
    a_t = step_signal(s, t)
    abar_t = cumulative_signal(s, t)
    return (z_t - ((1.0 - a_t) / np.sqrt(1.0 - abar_t)) * noise_pred) / np.sqrt(a_t)


def mc_deviation_estimate(policy, reference, samples, s: sched.NoiseSchedule,
                          n_draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the trajectory-level KL deviation.

    policy/reference are callables (z_t, c, t) -> noise prediction, called
    once on the (n_draws, D) batch with one token and one level per row.
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

    # all draws at once: row d uses sample idx[d], level ts[d] and noise stream 7100 + d
    idx = seeded_randint(len(samples), (n_draws,), seed, 7001)
    ts = 1 + seeded_randint(s.T, (n_draws,), seed, 7002)
    z0 = np.stack([np.asarray(samples[i][0], dtype=np.float64) for i in idx])
    c = np.array([samples[i][1] for i in idx])
    eps = seeded_gaussian(z0.shape[1:], seed, 7100 + np.arange(n_draws))
    z_t = sched.forward_noise(s, z0, ts, eps)
    e_ref = np.asarray(reference(z_t, c, ts), dtype=np.float64)
    e_th = np.asarray(policy(z_t, c, ts), dtype=np.float64)
    w = np.abs([0.0] + [kl_slope(s, t) for t in range(1, s.T + 1)])[ts]
    vals = 0.5 * s.T * w * (np.sum((eps - e_ref) ** 2, axis=1) - np.sum((eps - e_th) ** 2, axis=1))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_draws))
    return mean, se


# -- sampler -------------------------------------------------------------------


def guided_log_density_check(s: sched.NoiseSchedule, z_t: np.ndarray, z_prev: np.ndarray,
                             c: int, t: int, s_text: float, s_align: float, eta: float,
                             reference: Denoiser, adapters: LoraStack | None,
                             gate: TemporalGate | None) -> float:
    """Residual of the product-form guided transition vs the linear prediction.

    Both sides are evaluated as equal-variance Gaussian log densities up
    to their shared normalization constant; the z_prev-dependent part
    must vanish when the guided mean equals the exponent-weighted
    combination.
    """
    if eta <= 0.0:
        raise ValueError("densities degenerate")
    z_t = np.asarray(z_t, dtype=np.float64)
    z_prev = np.asarray(z_prev, dtype=np.float64)

    e_uncond = predict_noise(reference, None, z_t, None, t)
    e_cond = predict_noise(reference, None, z_t, c, t)
    if adapters is not None:
        e_policy = predict_noise(reference, adapters, z_t, c, t, gate=gate)
    else:
        e_policy = e_cond
    e_hat, _ = guided_eps(reference, adapters, gate, z_t, c, t, s_text, s_align)

    mu_u = posterior_means(s, z_t, e_uncond, t)
    mu_c = posterior_means(s, z_t, e_cond, t)
    mu_p = posterior_means(s, z_t, e_policy, t)
    mu_g = posterior_means(s, z_t, e_hat, t)
    var = eta**2 * posterior_variance(s, t)

    def quad(z):
        st, sa = s_text, s_align
        lhs = -np.sum((z - mu_g) ** 2)
        rhs = -((1.0 - st) * np.sum((z - mu_u) ** 2)
                + (st - sa) * np.sum((z - mu_c) ** 2)
                + sa * np.sum((z - mu_p) ** 2))
        return (lhs - rhs) / (2.0 * var)

    return float(quad(z_prev) - quad(np.zeros_like(z_prev)))


# -- denoiser ------------------------------------------------------------------


def layer_delta(adapters: LoraStack, i: int, mask: np.ndarray) -> np.ndarray:
    """Merged update B_i @ diag(mask) @ A_i; the forward never builds it."""
    if mask.shape != (adapters.rank,):
        raise ValueError("mask length must equal adapter rank")
    return adapters.B[i] @ (mask[:, None] * adapters.A[i])


def effective_delta(adapter: LoraStack, gate: TemporalGate, t: int, layer: int = 0) -> np.ndarray:
    """Merged weight update of one adapted layer at timestep t."""
    if gate.k_max != adapter.rank:
        raise ValueError("gate k_max must equal adapter rank")
    return layer_delta(adapter, layer, gate_matrix(gate, t))


# -- optim and autodiff --------------------------------------------------------


def adam_step_allocating(opt: Adam, grads) -> None:
    """adam_step as plain array expressions, five new arrays per parameter.

    The in-place step must match it bit for bit; it rebinds opt.m and opt.v.
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


def sigmoid_branchy(x: np.ndarray) -> np.ndarray:
    """Logistic function through boolean masks, one branch per sign of x."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- dataset and pipeline ------------------------------------------------------


def condition_name(token: int) -> str:
    if token == 0:
        return "null"
    c, d = divmod(token - 1, len(dataset.DEFECTS))
    return f"{dataset.CATEGORIES[c]}_{dataset.DEFECTS[d]}"


def reference_diversity(data_root) -> float:
    """Diversity proxy of the few-shot reference anomalies, per condition."""
    data = dataset.load_dataset(data_root)
    groups: dict[str, list] = {}
    for s_ in data["reference"]:
        groups.setdefault(f"{s_.category}_{s_.defect}", []).append(s_.image)
    return float(np.mean([metrics.diversity_proxy(images) for images in groups.values()]))
