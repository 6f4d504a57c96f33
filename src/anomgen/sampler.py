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

import numpy as np

from . import schedule as sched
from .dataset import write_pgm
from .denoiser import Denoiser, LoraStack, TemporalGate, predict_noise
from .rng import seeded_gaussian

_S_INIT = 5001
_S_STEP_NOISE = 5100
_S_DEVIATION = 5200


def guided_eps(reference: Denoiser, adapters: LoraStack | None, gate: TemporalGate | None,
               z_t: np.ndarray, c: int, t: int,
               s_text: float, s_align: float) -> tuple[np.ndarray, np.ndarray]:
    """Three-term guided prediction plus the raw alignment delta."""
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
    e_hat = (1.0 - s_text) * e_uncond + (s_text - s_align) * e_cond + s_align * e_policy
    return e_hat, d_align


def ddim_step(s: sched.NoiseSchedule, z_t: np.ndarray, eps_hat: np.ndarray,
              t: int, t_prev: int, eta: float, clip: float,
              noise: np.ndarray | None = None) -> np.ndarray:
    """One solver update from level t down to level t_prev; the z0 prediction is clamped to clip."""
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z0_pred = (z_t - s.sigma[t] * eps_hat) / s.alpha[t]
    z0_pred = np.clip(z0_pred, -clip, clip)
    if t_prev == 0:
        return z0_pred
    abar_t = s.alpha[t] ** 2
    abar_prev = s.alpha[t_prev] ** 2
    sig = eta * np.sqrt((1.0 - abar_prev) / (1.0 - abar_t)) * np.sqrt(1.0 - abar_t / abar_prev)
    direction = np.sqrt(max(1.0 - abar_prev - sig**2, 0.0)) * eps_hat
    out = s.alpha[t_prev] * z0_pred + direction
    if sig > 0.0:
        out = out + sig * np.asarray(noise, dtype=np.float64)
    return out


def visit_schedule(T: int, steps: int) -> list[int]:
    """Evenly spaced timesteps from T down to 1."""
    ts = np.unique(np.round(np.linspace(T, 1, steps)).astype(int))[::-1]
    return [int(t) for t in ts if t >= 1]


def sample(reference: Denoiser, adapters: LoraStack | None, gate: TemporalGate | None,
           c: int, cfg: dict, s: sched.NoiseSchedule, seeds):
    """Generate one latent per seed from pure noise under hierarchical guidance.

    Returns the final latents (B, D), the visited timesteps and each step's
    B row norms ||delta_align||_2.  All runs advance together, one call per
    guidance branch per step, and row b draws its noise from seeds[b] alone.
    cfg supplies steps, eta, clip, s_text and s_align.
    """
    seeds = [int(x) for x in seeds]
    shape = (reference.latent_dim,)
    visits = visit_schedule(s.T, cfg["steps"])
    z = seeded_gaussian(shape, seeds, _S_INIT)
    norms = []
    for i, t in enumerate(visits):
        e_hat, d_align = guided_eps(reference, adapters, gate, z, c, t, cfg["s_text"],
                                    cfg["s_align"])
        norms.append([float(np.linalg.norm(row)) for row in d_align])
        t_prev = visits[i + 1] if i + 1 < len(visits) else 0
        noise = None
        if cfg["eta"] > 0.0 and t_prev > 0:
            noise = seeded_gaussian(shape, seeds, _S_STEP_NOISE + i)
        z = ddim_step(s, z, e_hat, t, t_prev, cfg["eta"], cfg["clip"], noise)
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
    for i, t in enumerate(visit_schedule(s.T, steps)):
        eps = seeded_gaussian(z0.shape[1:], seed, _S_DEVIATION + i)
        z_t = sched.forward_noise(s, z0, t, np.broadcast_to(eps, z0.shape))
        e_cond = predict_noise(reference, None, z_t, c, t)
        e_policy = predict_noise(reference, adapters, z_t, c, t, gate=gate)
        yield t, e_policy - e_cond


def save_run(z: np.ndarray, timesteps, norms, outdirs, decode) -> None:
    """Persist row b of sample's (z, timesteps, norms) to outdirs[b]: image and delta norms."""
    for b, outdir in enumerate(outdirs):
        os.makedirs(outdir, exist_ok=True)
        write_pgm(os.path.join(outdir, "sample.pgm"), decode(z[b]))
        with open(os.path.join(outdir, "delta_norms.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "delta_align_l2"])
            w.writerows([t, step[b]] for t, step in zip(timesteps, norms))
