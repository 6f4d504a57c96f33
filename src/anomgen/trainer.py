"""Training loops: reference pretraining and preference alignment.

Pretraining fits the denoiser to normal textures with the plain noise
prediction loss, dropping the condition to the null token with a small
probability so the unconditional branch used at sampling time exists.
Alignment freezes those weights and trains only the gated low-rank
adapters with the preference loss, one (sample, t, eps) triple per step.
Each step runs its rows through one forward, the loss gradient with
respect to the output rows, and one closed-form backward.  Both loops read
the resolved config of their CLI command: pretraining its steps, lr,
batch, seed and dropout; alignment its steps, lr, seed, beta, kmin, kmax.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import preference, schedule as sched
from .autodiff import backward, zero_grads
from .denoiser import Denoiser, LoraStack, TemporalGate, predict_noise
from .optim import Adam, DivergenceError
from .rng import seeded_gaussian, seeded_randint, seeded_uniform

# counter-stream layout (bases; per-step offsets added)
_S_IDX, _S_T, _S_TOK, _S_DROP = 301, 302, 303, 304
_PRETRAIN_NOISE = 1_000_000
_ALIGN_NOISE = 2_000_000
_EVAL_NOISE = 3_000_000
_EVAL_DRAWS = 20  # evaluate_mean_delta's (t, eps) draws per training sample


@dataclass
class TrainLog:
    records: list[dict] = field(default_factory=list)

    def add(self, **kw):
        self.records.append(kw)

    def save_csv(self, path):
        cols = ["step", "t", "delta", "beta_t", "loss", "pref_prob"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for r in self.records:
                w.writerow(["" if r.get(c) is None else r[c] for c in cols])

    def losses(self) -> np.ndarray:
        return np.array([r["loss"] for r in self.records], dtype=np.float64)


def pretrain_reference(normal_set, cfg: dict,
                       s: sched.NoiseSchedule) -> tuple[Denoiser, TrainLog]:
    """Fit the denoiser to (z0, candidate tokens) pairs with the MSE noise loss."""
    normal_set = list(normal_set)
    if not normal_set:
        raise ValueError("empty dataset")
    seed, bs = cfg["seed"], cfg["batch"]
    model = Denoiser(latent_dim=len(normal_set[0][0]), seed=seed)
    opt = Adam(model.params, cfg["lr"])
    log = TrainLog()

    n_draws = cfg["steps"] * bs
    idx = seeded_randint(len(normal_set), (n_draws,), seed, _S_IDX)
    ts = 1 + seeded_randint(s.T, (n_draws,), seed, _S_T)
    tok_u = seeded_uniform((n_draws,), seed, _S_TOK)
    drop = seeded_uniform((n_draws,), seed, _S_DROP) < cfg["dropout"]

    grads = zero_grads(opt.params)
    for step in range(cfg["steps"]):
        draws = range(step * bs, (step + 1) * bs)
        t, eps, z_t = _noised_batch(normal_set, idx, ts, draws, s, seed, _PRETRAIN_NOISE)
        tokens = [0 if drop[d] else _pick(normal_set[idx[d]][1], tok_u[d]) for d in draws]
        cache = []
        val, g = preference.sd_loss(model.forward(z_t, tokens, t, cache=cache), eps)
        if not np.isfinite(val):
            raise DivergenceError(f"diverged at pretrain step {step}")
        for gr in grads:  # backward sums into the buffers
            gr.fill(0.0)
        backward(model, cache, g, grads)
        opt.step(grads)
        log.add(step=step, t=int(t[0]), delta=None, beta_t=None, loss=val, pref_prob=None)
    return model, log


def _pick(tokens, u: float) -> int:
    """The candidate token a uniform draw u in [0, 1) selects."""
    return tokens[min(int(u * len(tokens)), len(tokens) - 1)]


def _noised_batch(items, idx, ts, draws, s: sched.NoiseSchedule, seed: int, stream: int):
    """(t, eps, z_t) for draws d: latent items[idx[d]][0] at level ts[d], noise key stream + d."""
    z0 = np.stack([np.asarray(items[idx[d]][0], dtype=np.float64) for d in draws])
    eps = seeded_gaussian(z0.shape[1:], seed, stream + np.arange(draws.start, draws.stop))
    t = ts[draws.start:draws.stop]
    return t, eps, sched.forward_noise(s, z0, t, eps)


def align(reference: Denoiser, anomaly_set, cfg: dict,
          s: sched.NoiseSchedule) -> tuple[LoraStack, TemporalGate, TrainLog]:
    """Preference alignment: adapters only, reference frozen.

    Each step follows the sampled-triple recipe on one row: draw (sample,
    t, eps), noise the latent, score both networks, convert the
    squared-error gap into the weighted preference loss, and update.
    """
    anomaly_set = list(anomaly_set)
    if not anomaly_set:
        raise ValueError("empty anomaly set")
    seed, steps = cfg["seed"], cfg["steps"]
    gate = TemporalGate(k_min=cfg["kmin"], k_max=cfg["kmax"], T=s.T)
    adapters = LoraStack(reference.layer_shapes(), rank=cfg["kmax"], seed=seed)
    opt = Adam(adapters.params, cfg["lr"])
    log = TrainLog()

    idx = seeded_randint(len(anomaly_set), (steps,), seed, _S_IDX)
    ts = 1 + seeded_randint(s.T, (steps,), seed, _S_T)

    grads = zero_grads(opt.params)
    for step in range(steps):
        draws = range(step, step + 1)
        t, eps, z_t = _noised_batch(anomaly_set, idx, ts, draws, s, seed, _ALIGN_NOISE)
        tokens = [anomaly_set[idx[d]][1] for d in draws]
        eps_ref = predict_noise(reference, None, z_t, tokens, t)
        cache = []
        d = reference.forward(z_t, tokens, t, adapters=adapters, gate=gate, cache=cache) - eps
        # per-row squared error as a product with ones, which rounds unlike a row sum
        delta = (d * d) @ np.ones(eps.shape[1]) - np.sum((eps_ref - eps) ** 2, axis=1)
        beta_t = np.array([sched.beta_weight(s, cfg["beta"], int(ti)) for ti in t])
        losses, g_delta = preference.apo_loss(delta, beta_t)
        val = float(np.mean(losses))
        if not np.isfinite(val):
            raise DivergenceError(f"diverged at align step {step}")
        g = g_delta[:, None] * d  # d delta / d eps_th = 2 d, added as g + g
        for gr in grads:  # backward sums into the buffers
            gr.fill(0.0)
        backward(reference, cache, g + g, grads, adapters=adapters)
        opt.step(grads)
        d0, b0 = float(delta[0]), float(beta_t[0])
        log.add(step=step, t=int(t[0]), delta=d0, beta_t=b0, loss=val,
                pref_prob=preference.bt_preference_prob(d0, b0))
    return adapters, gate, log


def evaluate_mean_delta(reference: Denoiser, adapters: LoraStack, gate: TemporalGate,
                        anomaly_set, s: sched.NoiseSchedule, seed: int) -> float:
    """Mean alignment deviation over the training set with frozen eval draws."""
    anomaly_set = list(anomaly_set)
    ts = 1 + seeded_randint(s.T, (len(anomaly_set), _EVAL_DRAWS), seed, _S_T + 50)
    idx = np.repeat(np.arange(len(anomaly_set)), _EVAL_DRAWS)
    deltas = []
    for i, (_, token) in enumerate(anomaly_set):
        draws = range(i * _EVAL_DRAWS, (i + 1) * _EVAL_DRAWS)
        t, eps, z_t = _noised_batch(anomaly_set, idx, ts.ravel(), draws, s, seed, _EVAL_NOISE)
        eps_ref = predict_noise(reference, None, z_t, token, t)
        eps_th = predict_noise(reference, adapters, z_t, token, t, gate=gate)
        deltas.append(preference.alignment_deviation(eps_th, eps_ref, eps))
    return float(np.mean(np.concatenate(deltas)))

