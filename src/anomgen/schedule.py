"""Discrete variance-preserving noise schedule.

Tables are indexed t = 0..T.  alpha[t] is the cumulative signal scale
(alpha^2 + sigma^2 = 1), lam[t] = log(alpha^2 / sigma^2) is the log
signal-to-noise ratio.  The per-step slope of lam weights each
timestep's contribution to the preference objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("linear", "cosine")

# per-step variance ramp of the default linear schedule
_VAR_START = 1e-4
_VAR_END = 2e-2


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    kind: str
    alpha: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)


def build_schedule(T: int, kind: str) -> NoiseSchedule:
    if T < 2:
        raise ValueError("T must be >= 2")

    t = np.arange(T + 1, dtype=np.float64)
    if kind == "linear":
        step_var = _VAR_START + (_VAR_END - _VAR_START) * t / T
        alpha_sq = np.cumprod(1.0 - step_var)
    else:
        s = 0.008
        f = np.cos(((t + 1.0) / (T + 1.0) + s) / (1.0 + s) * math.pi / 2.0) ** 2
        alpha_sq = np.clip(f / f[0] * (1.0 - _VAR_START), 1e-9, 1.0 - _VAR_START)
        alpha_sq = np.minimum.accumulate(alpha_sq)

    alpha = np.sqrt(alpha_sq)
    sigma = np.sqrt(1.0 - alpha_sq)
    lam = np.log(alpha_sq / (1.0 - alpha_sq))
    return NoiseSchedule(T=int(T), kind=kind, alpha=alpha, sigma=sigma, lam=lam)


def forward_noise(s: NoiseSchedule, z0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """z_t = alpha_t * z0 + sigma_t * eps; t is one level, or one per row of a (B, D) z0."""
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.asarray(t)
    _check_t(s, t, low=0)
    alpha, sigma = s.alpha[t], s.sigma[t]
    if t.ndim:
        alpha, sigma = alpha[:, None], sigma[:, None]
    return alpha * z0 + sigma * eps


def log_snr_slope(s: NoiseSchedule, t: int) -> float:
    """Backward difference lam[t] - lam[t-1]; negative since lam decreases."""
    _check_t(s, t, low=1)
    return float(s.lam[t] - s.lam[t - 1])


def beta_weight(s: NoiseSchedule, beta: float, t: int) -> float:
    """Time-adaptive preference weight -0.5 * beta * slope; positive for beta > 0."""
    return -0.5 * beta * log_snr_slope(s, t)


def schedule_table(s: NoiseSchedule, beta: float):
    """Rows (t, alpha, sigma, lambda, slope, beta_t); slope/beta blank at t=0."""
    rows = []
    for t in range(s.T + 1):
        if t == 0:
            rows.append((t, s.alpha[t], s.sigma[t], s.lam[t], None, None))
        else:
            sl = log_snr_slope(s, t)
            rows.append((t, s.alpha[t], s.sigma[t], s.lam[t], sl, beta_weight(s, beta, t)))
    return rows


def _check_t(s: NoiseSchedule, t, low: int) -> None:
    if np.any(np.asarray(t) < low) or np.any(np.asarray(t) > s.T):
        raise ValueError(f"timestep {t} outside [{low}, {s.T}]")
