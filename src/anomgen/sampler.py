"""DDIM sampling with three-term hierarchical guidance.

The guided noise prediction stacks the unconditional prior, the
class-conditional delta of the frozen reference, and the alignment delta
contributed by the adapters.  The alignment delta is reduced at every
visited step regardless of the guidance scales: sample keeps each row's
L2 norm, and deviation_run yields it to the localization map.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import schedule as sched
from .dataset import write_pgm
from .denoiser import Denoiser, LoraStack, TemporalGate, predict_noise
from .preference import posterior_means
from .rng import seeded_gaussian

_S_INIT = 5001
_S_STEP_NOISE = 5100
_S_DEVIATION = 5200


@dataclass(frozen=True)
class GuidanceConfig:
    s_text: float = 3.0
    s_align: float = 1.5
    steps: int = 100
    eta: float = 0.0
    # clamp for the per-step z0 prediction during generation; the latent
    # codec maps images into [-2, 2], and without the clamp prediction
    # errors of the small denoiser compound multiplicatively over the
    # trajectory and the latents diverge
    z0_clip: float | None = 2.0


def guided_eps(reference: Denoiser, adapters: LoraStack | None, gate: TemporalGate | None,
               z_t: np.ndarray, c: int, t: int,
               guidance: GuidanceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Three-term guided prediction plus the raw alignment delta."""
    if c is None or int(c) == 0:
        raise ValueError("guided sampling requires a non-null condition")
    e_uncond = predict_noise(reference, None, z_t, None, t)
    e_cond = predict_noise(reference, None, z_t, c, t)
    if adapters is not None:
        e_policy = predict_noise(reference, adapters, z_t, c, t, gate=gate)
    else:
        e_policy = e_cond
    d_align = e_policy - e_cond
    # weighted form of: e_uncond + s_text*(e_cond - e_uncond) + s_align*d_align;
    # algebraically identical, but this arrangement makes the three
    # telescoping reductions (scales 0/0, 1/0, 1/1) hold bit-exactly
    st, sa = guidance.s_text, guidance.s_align
    e_hat = (1.0 - st) * e_uncond + (st - sa) * e_cond + sa * e_policy
    return e_hat, d_align


def ddim_step(s: sched.NoiseSchedule, z_t: np.ndarray, eps_hat: np.ndarray,
              t: int, t_prev: int, eta: float = 0.0,
              noise: np.ndarray | None = None,
              z0_clip: float | None = None) -> np.ndarray:
    """One solver update from level t down to level t_prev."""
    if t_prev >= t:
        raise ValueError("t_prev must be < t")
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z0_pred = (z_t - s.sigma[t] * eps_hat) / s.alpha[t]
    if z0_clip is not None:
        z0_pred = np.clip(z0_pred, -z0_clip, z0_clip)
    if t_prev == 0:
        return z0_pred
    abar_t = s.alpha[t] ** 2
    abar_prev = s.alpha[t_prev] ** 2
    sig = eta * np.sqrt((1.0 - abar_prev) / (1.0 - abar_t)) * np.sqrt(1.0 - abar_t / abar_prev)
    direction = np.sqrt(max(1.0 - abar_prev - sig**2, 0.0)) * eps_hat
    out = s.alpha[t_prev] * z0_pred + direction
    if sig > 0.0:
        if noise is None:
            raise ValueError("eta > 0 requires noise")
        out = out + sig * np.asarray(noise, dtype=np.float64)
    return out


def visit_schedule(T: int, steps: int) -> list[int]:
    """Evenly spaced timesteps from T down to 1."""
    ts = np.unique(np.round(np.linspace(T, 1, steps)).astype(int))[::-1]
    return [int(t) for t in ts if t >= 1]


def sample(reference: Denoiser, adapters: LoraStack | None, gate: TemporalGate | None,
           c: int, guidance: GuidanceConfig, s: sched.NoiseSchedule, seeds):
    """Generate one latent per seed from pure noise under hierarchical guidance.

    Returns the final latents (B, D), the visited timesteps and each step's
    B row norms ||delta_align||_2.  All runs advance together, one call per
    guidance branch per step, and row b draws its noise from seeds[b] alone.
    """
    seeds = [int(x) for x in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    shape = (reference.latent_dim,)
    visits = visit_schedule(s.T, guidance.steps)
    z = np.stack([seeded_gaussian(shape, seed, _S_INIT) for seed in seeds])
    norms = []
    for i, t in enumerate(visits):
        e_hat, d_align = guided_eps(reference, adapters, gate, z, c, t, guidance)
        norms.append([float(np.linalg.norm(row)) for row in d_align])
        t_prev = visits[i + 1] if i + 1 < len(visits) else 0
        noise = None
        if guidance.eta > 0.0 and t_prev > 0:
            noise = np.stack([seeded_gaussian(shape, seed, _S_STEP_NOISE + i) for seed in seeds])
        z = ddim_step(s, z, e_hat, t, t_prev, guidance.eta, noise,
                      z0_clip=guidance.z0_clip)
    return z, visits, norms


def deviation_run(reference: Denoiser, adapters: LoraStack, gate: TemporalGate,
                  z0: np.ndarray, c, steps: int, s: sched.NoiseSchedule, seed: int):
    """Yield (t, delta_align) per visited level for existing latents z0 (B, D).

    Every row is forward-noised to each of the `steps` visited levels with
    the same fresh noise, and the (B, D) policy/reference disagreement there
    is yielded before the next level is visited; c is one token per row or
    one for all.  No guidance scale enters.  Used to localize anomalies in
    real images rather than generated ones; bad arguments raise on first use.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.ndim != 2:
        raise ValueError("deviation_run takes a (B, D) batch of latents")
    for i, t in enumerate(visit_schedule(s.T, steps)):
        eps = seeded_gaussian(z0.shape[1:], seed, _S_DEVIATION + i)
        z_t = sched.forward_noise(s, z0, t, np.broadcast_to(eps, z0.shape))
        e_cond = predict_noise(reference, None, z_t, c, t)
        e_policy = predict_noise(reference, adapters, z_t, c, t, gate=gate)
        yield t, e_policy - e_cond


def guided_log_density_check(s: sched.NoiseSchedule, z_t: np.ndarray, z_prev: np.ndarray,
                             c: int, t: int, guidance: GuidanceConfig,
                             reference: Denoiser, adapters: LoraStack | None,
                             gate: TemporalGate | None) -> float:
    """Residual of the product-form guided transition vs the linear prediction.

    Both sides are evaluated as equal-variance Gaussian log densities up
    to their shared normalization constant; the z_prev-dependent part
    must vanish when the guided mean equals the exponent-weighted
    combination.
    """
    if guidance.eta <= 0.0:
        raise ValueError("densities degenerate")
    z_t = np.asarray(z_t, dtype=np.float64)
    z_prev = np.asarray(z_prev, dtype=np.float64)

    e_uncond = predict_noise(reference, None, z_t, None, t)
    e_cond = predict_noise(reference, None, z_t, c, t)
    if adapters is not None:
        e_policy = predict_noise(reference, adapters, z_t, c, t, gate=gate)
    else:
        e_policy = e_cond
    e_hat, _ = guided_eps(reference, adapters, gate, z_t, c, t, guidance)

    mu_u = posterior_means(s, z_t, e_uncond, t)
    mu_c = posterior_means(s, z_t, e_cond, t)
    mu_p = posterior_means(s, z_t, e_policy, t)
    mu_g = posterior_means(s, z_t, e_hat, t)
    var = guidance.eta**2 * sched.posterior_variance(s, t)

    def quad(z):
        st, sa = guidance.s_text, guidance.s_align
        lhs = -np.sum((z - mu_g) ** 2)
        rhs = -((1.0 - st) * np.sum((z - mu_u) ** 2)
                + (st - sa) * np.sum((z - mu_c) ** 2)
                + sa * np.sum((z - mu_p) ** 2))
        return (lhs - rhs) / (2.0 * var)

    return float(quad(z_prev) - quad(np.zeros_like(z_prev)))


def save_run(z: np.ndarray, timesteps, norms, outdirs, decode=None) -> None:
    """Persist row b of sample's (z, timesteps, norms) to outdirs[b]: image and delta norms."""
    outdirs = list(outdirs)
    if len(outdirs) != len(z):
        raise ValueError("need one output directory per run")
    for b, outdir in enumerate(outdirs):
        os.makedirs(outdir, exist_ok=True)
        if decode is not None:
            write_pgm(os.path.join(outdir, "sample.pgm"), decode(z[b]))
        with open(os.path.join(outdir, "delta_norms.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "delta_align_l2"])
            w.writerows([t, step[b]] for t, step in zip(timesteps, norms))
