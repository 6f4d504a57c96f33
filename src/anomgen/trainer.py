"""Training loops: reference pretraining and preference alignment.

Pretraining fits the denoiser to normal textures with the plain noise
prediction loss, dropping the condition to the null token with a small
probability so the unconditional branch used at sampling time exists.
Alignment freezes those weights and trains only the gated low-rank
adapters with the preference loss, one (sample, t, eps) triple per batch
row.  Each step runs the whole batch through one forward, the loss
gradient with respect to the output rows, and one closed-form backward.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

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


@dataclass
class TrainConfig:
    steps: int
    learning_rate: float
    beta: float = 1000.0
    batch_size: int = 1
    seed: int = 0
    condition_dropout: float = 0.1
    k_min: int = 4
    k_max: int = 32

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (0.0 <= self.condition_dropout < 1.0):
            raise ValueError("condition_dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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


def pretrain_reference(normal_set, config: TrainConfig, s: sched.NoiseSchedule,
                       model: Denoiser | None = None) -> tuple[Denoiser, TrainLog]:
    """Fit the denoiser to (z0, candidate tokens) pairs with the MSE noise loss."""
    normal_set = list(normal_set)
    if not normal_set:
        raise ValueError("empty dataset")
    if model is None:
        model = Denoiser(latent_dim=len(normal_set[0][0]), seed=config.seed)
    opt = Adam(model.params, config.learning_rate)
    log = TrainLog()

    n_draws = config.steps * config.batch_size
    idx = seeded_randint(len(normal_set), (max(n_draws, 1),), config.seed, _S_IDX)
    ts = 1 + seeded_randint(s.T, (max(n_draws, 1),), config.seed, _S_T)
    tok_u = seeded_uniform((max(n_draws, 1),), config.seed, _S_TOK)
    drop = seeded_uniform((max(n_draws, 1),), config.seed, _S_DROP) < config.condition_dropout

    bs = config.batch_size
    for step in range(config.steps):
        draws = range(step * bs, (step + 1) * bs)
        t, eps, z_t = _noised_batch(normal_set, idx, ts, draws, s, config.seed, _PRETRAIN_NOISE)
        tokens = [0 if drop[d] else _pick(normal_set[idx[d]][1], tok_u[d]) for d in draws]
        cache = []
        val, g = preference.sd_loss(model.forward(z_t, tokens, t, cache=cache), eps, grad=True)
        if not np.isfinite(val):
            raise DivergenceError(f"diverged at pretrain step {step}")
        grads = zero_grads(opt.params)
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
    eps = np.stack([seeded_gaussian(z0.shape[1:], seed, stream + d) for d in draws])
    t = ts[draws.start:draws.stop]
    return t, eps, sched.forward_noise(s, z0, t, eps)


def align(reference: Denoiser, anomaly_set, config: TrainConfig,
          s: sched.NoiseSchedule) -> tuple[LoraStack, TemporalGate, TrainLog]:
    """Preference alignment: adapters only, reference frozen.

    Each step follows the sampled-triple recipe for every batch row: draw
    (sample, t, eps), noise the latent, score both networks, convert the
    squared-error gap into the weighted preference loss; then update on
    the batch mean.
    """
    anomaly_set = list(anomaly_set)
    if not anomaly_set:
        raise ValueError("empty anomaly set")
    gate = TemporalGate(k_min=config.k_min, k_max=config.k_max, T=s.T)
    adapters = LoraStack(reference.layer_shapes(), rank=config.k_max, seed=config.seed)
    opt = Adam(adapters.params, config.learning_rate)
    log = TrainLog()

    n_draws = config.steps * config.batch_size
    idx = seeded_randint(len(anomaly_set), (max(n_draws, 1),), config.seed, _S_IDX)
    ts = 1 + seeded_randint(s.T, (max(n_draws, 1),), config.seed, _S_T)

    bs = config.batch_size
    for step in range(config.steps):
        draws = range(step * bs, (step + 1) * bs)
        t, eps, z_t = _noised_batch(anomaly_set, idx, ts, draws, s, config.seed, _ALIGN_NOISE)
        tokens = [anomaly_set[idx[d]][1] for d in draws]
        eps_ref = predict_noise(reference, None, z_t, tokens, t)
        cache = []
        d = reference.forward(z_t, tokens, t, adapters=adapters, gate=gate, cache=cache) - eps
        # per-row squared error as a product with ones, which rounds unlike a row sum
        delta = (d * d) @ np.ones(eps.shape[1]) - np.sum((eps_ref - eps) ** 2, axis=1)
        beta_t = np.array([sched.beta_weight(s, config.beta, int(ti)) for ti in t])
        losses, g_delta = preference.apo_loss(delta, beta_t, grad=True)
        val = float(np.mean(losses))
        if not np.isfinite(val):
            raise DivergenceError(f"diverged at align step {step}")
        g = g_delta[:, None] * d  # d delta / d eps_th = 2 d, added as g + g
        grads = zero_grads(opt.params)
        backward(reference, cache, g + g, grads, adapters=adapters)
        opt.step(grads)
        d0, b0 = float(delta[0]), float(beta_t[0])
        log.add(step=step, t=int(t[0]), delta=d0, beta_t=b0, loss=val,
                pref_prob=preference.bt_preference_prob(d0, b0))
    return adapters, gate, log


def evaluate_mean_delta(reference: Denoiser, adapters: LoraStack, gate: TemporalGate,
                        anomaly_set, s: sched.NoiseSchedule, seed: int,
                        n_draws_per_sample: int = 20) -> float:
    """Mean alignment deviation over the training set with frozen eval draws."""
    anomaly_set = list(anomaly_set)
    ts = 1 + seeded_randint(s.T, (len(anomaly_set), n_draws_per_sample), seed, _S_T + 50)
    idx = np.repeat(np.arange(len(anomaly_set)), n_draws_per_sample)
    deltas = []
    for i, (_, token) in enumerate(anomaly_set):
        draws = range(i * n_draws_per_sample, (i + 1) * n_draws_per_sample)
        t, eps, z_t = _noised_batch(anomaly_set, idx, ts.ravel(), draws, s, seed, _EVAL_NOISE)
        eps_ref = predict_noise(reference, None, z_t, token, t)
        eps_th = predict_noise(reference, adapters, z_t, token, t, gate=gate)
        deltas.append(preference.alignment_deviation(eps_th, eps_ref, eps))
    return float(np.mean(np.concatenate(deltas)))


def beta_sweep(reference: Denoiser, anomaly_set, config: TrainConfig, betas,
               s: sched.NoiseSchedule) -> list[dict]:
    """Run align once per beta with a shared seed; returns summary rows."""
    betas = list(betas)
    if not betas or any(b <= 0 for b in betas):
        raise ValueError("betas must be non-empty and positive")
    rows = []
    for beta in betas:
        adapters, gate, log = align(reference, anomaly_set, replace(config, beta=beta), s)
        mean_delta = evaluate_mean_delta(reference, adapters, gate, anomaly_set, s, config.seed)
        tail = log.losses()[-min(100, len(log.records)):]
        rows.append({"beta": float(beta), "final_mean_delta": mean_delta,
                     "final_loss": float(tail.mean()) if tail.size else float("nan"),
                     "log": log})
    return rows
