"""Conditional noise-prediction network with gated low-rank adapters.

A 4-layer dense net on batches of flattened 16x16 latents.  Class-token
and sinusoidal time embeddings are added to the first hidden activation.
Adapters are applied unmerged: each layer adds ((h A^T) * mask) B^T to
the frozen h W^T, with the mask width shrinking as the timestep grows.
Parameters are plain float64 arrays; autodiff.backward is the gradient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .autodiff import sigmoid
from .rng import seeded_gaussian

NULL_TOKEN = 0

CKPT_MAGIC = b"APOC"
CKPT_VERSION = 1
ROLE_REFERENCE = 0
ROLE_ADAPTERS = 1

_KIND_CODES = {"linear": 0, "cosine": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class TemporalGate:
    """Active-rank schedule: wide at t=0 (detail), narrow at t=T (structure)."""

    k_min: int
    k_max: int
    T: int

    def __post_init__(self):
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError("need 1 <= k_min <= k_max")


def gate_dims(gate: TemporalGate, t: int) -> int:
    """k(t) = floor(k_min + (k_max - k_min) * (T - t) / T)."""
    if not (0 <= t <= gate.T):
        raise ValueError(f"timestep {t} outside [0, {gate.T}]")
    return int(np.floor(gate.k_min + (gate.k_max - gate.k_min) * (gate.T - t) / gate.T))


def gate_matrix(gate: TemporalGate, t) -> np.ndarray:
    """Diagonal of G_t: first k(t) entries one, remainder zero; one row per timestep."""
    k = np.array([gate_dims(gate, int(ti)) for ti in np.ravel(t)], dtype=np.intp)
    mask = (np.arange(gate.k_max) < k[:, None]).astype(np.float64)
    return mask.reshape(np.shape(t) + (gate.k_max,))


def _draw(shape, seed: int | None, stream_id: int) -> np.ndarray:
    """Initial weights; seed=None gives zeros, for a checkpoint to overwrite."""
    return np.zeros(shape) if seed is None else seeded_gaussian(shape, seed, stream_id)


class LoraStack:
    """Per-layer low-rank factors; B starts at zero so the initial update vanishes."""

    def __init__(self, layer_shapes, rank: int, seed: int | None):
        self.rank = int(rank)
        self.A = [_draw((rank, in_dim), seed, 900 + 2 * i) / np.sqrt(rank)
                  for i, (_out_dim, in_dim) in enumerate(layer_shapes)]
        self.B = [np.zeros((out_dim, rank)) for out_dim, _in_dim in layer_shapes]

    @property
    def params(self) -> list[np.ndarray]:
        return self.A + self.B


def sinusoidal_embedding(t, dim: int) -> np.ndarray:
    """Embedding of a timestep, shape (dim,); an array of timesteps adds leading axes."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
    pad = np.zeros(ang.shape[:-1] + (dim - 2 * half,))
    return np.concatenate([np.cos(ang), np.sin(ang), pad], axis=-1)


class Denoiser:
    """epsilon(z_t, c, t); token 0 is the reserved unconditional branch."""

    N_LAYERS = 4

    def __init__(self, latent_dim: int = 256, hidden: int = 256, n_tokens: int = 10, *,
                 seed: int | None):
        self.latent_dim = int(latent_dim)
        self.hidden = int(hidden)
        self.n_tokens = int(n_tokens)

        dims = [(hidden, latent_dim), (hidden, hidden), (hidden, hidden), (latent_dim, hidden)]
        self.weights = [_draw((out_dim, in_dim), seed, 100 + i) / np.sqrt(in_dim)
                        for i, (out_dim, in_dim) in enumerate(dims)]
        self.biases = [np.zeros(out_dim) for out_dim, _in_dim in dims]
        self.cond_table = _draw((n_tokens, hidden), seed, 200) * 0.1
        self.cond_table[NULL_TOKEN] = 0.0

    @property
    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases + [self.cond_table]

    def layer_shapes(self):
        return [w.shape for w in self.weights]

    # -- forward --------------------------------------------------------------

    def forward(self, z_t, c, t, adapters: LoraStack | None = None,
                gate: TemporalGate | None = None, cache: list | None = None) -> np.ndarray:
        """Noise prediction for a batch of latents (B, D).

        c and t are a token and a timestep shared by every row, or one per
        row; c=None is the null token.  With adapters each layer computes
        h W^T + ((h A^T) * mask_k(t)) B^T without merging the weights.
        A cache list receives (tokens, mask) and then, per layer, the input
        h, the masked adapter activation (h A^T) * mask, the pre-activation
        x and sigmoid(x): what autodiff.backward needs.
        """
        if adapters is not None and gate is None:
            raise ValueError("adapters require a temporal gate")
        if adapters is not None and gate.k_max != adapters.rank:
            raise ValueError("gate k_max must equal adapter rank")

        z = np.asarray(z_t, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise ValueError("latent shape mismatch")
        rows = z.shape[0]

        tokens = np.asarray(NULL_TOKEN if c is None else c)
        ts = np.asarray(t)
        for name, v in (("token", tokens), ("timestep", ts)):
            if v.ndim and v.shape != (rows,):
                raise ValueError(f"need one {name} per latent row")
        bad = tokens[(tokens < 0) | (tokens >= self.n_tokens)]
        if bad.size:
            raise ValueError(f"unknown token: {int(bad.flat[0])}")
        # a shared token or timestep gives one row that broadcasts over the batch
        emb = self.cond_table[tokens] + sinusoidal_embedding(ts, self.hidden)
        mask = gate_matrix(gate, ts) if adapters is not None else None
        if cache is not None:
            cache.append((tokens, mask))

        h, u = z, None
        for i in range(self.N_LAYERS):
            x = h @ self.weights[i].T + self.biases[i]
            if adapters is not None:
                u = (h @ adapters.A[i].T) * mask
                x = x + u @ adapters.B[i].T
            if i == 0:
                x = x + emb
            s = sigmoid(x) if i < self.N_LAYERS - 1 else None
            if cache is not None:
                cache.append((h, u, x, s))
            h = x if s is None else x * s
        return h


def predict_noise(model: Denoiser, adapters: LoraStack | None, z_t, c, t,
                  gate: TemporalGate | None = None) -> np.ndarray:
    """Forward pass without a cache, for callers that take no gradient through it."""
    return model.forward(z_t, c, t, adapters=adapters, gate=gate)


# -- checkpoint container -----------------------------------------------------


def save_reference(path, model: Denoiser, sched_kind: str, T: int) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, ROLE_REFERENCE, sched_kind, T,
                      (model.latent_dim, model.hidden, model.n_tokens, 0, 0))
        for arr in model.params:
            tensorio.write_tensor(fh, arr)


def load_reference(path) -> tuple[Denoiser, str, int]:
    with open(path, "rb") as fh:
        role, kind, T, dims = _read_header(fh)
        if role != ROLE_REFERENCE:
            raise ValueError("checkpoint does not hold reference weights")
        latent_dim, hidden, n_tokens, _, _ = dims
        model = Denoiser(latent_dim, hidden, n_tokens, seed=None)  # weights read below
        _read_params(fh, model.params)
    return model, kind, T


def save_adapters(path, adapters: LoraStack, gate: TemporalGate,
                  sched_kind: str, T: int, model: Denoiser) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, ROLE_ADAPTERS, sched_kind, T,
                      (model.latent_dim, model.hidden, gate.k_min, gate.k_max, len(adapters.A)))
        for p in adapters.params:
            tensorio.write_tensor(fh, p)


def load_adapters(path, model: Denoiser) -> tuple[LoraStack, TemporalGate, str, int]:
    with open(path, "rb") as fh:
        role, kind, T, dims = _read_header(fh)
        if role != ROLE_ADAPTERS:
            raise ValueError("checkpoint does not hold adapter weights")
        latent_dim, hidden, k_min, k_max, n_layers = dims
        if (latent_dim, hidden) != (model.latent_dim, model.hidden):
            raise ValueError("adapter checkpoint does not match model dims")
        gate = TemporalGate(k_min=k_min, k_max=k_max, T=T)
        adapters = LoraStack(model.layer_shapes(), rank=k_max, seed=None)
        if len(adapters.A) != n_layers:
            raise ValueError("adapter layer count mismatch")
        _read_params(fh, adapters.params)
    return adapters, gate, kind, T


def _read_params(fh, params) -> None:
    """Overwrite each parameter array in place with the next checkpoint tensor."""
    for p in params:
        arr = tensorio.read_tensor(fh)
        if arr.shape != p.shape:
            raise ValueError("checkpoint tensor shape mismatch")
        p[...] = arr


def _write_header(fh, role: int, kind: str, T: int, dims) -> None:
    fh.write(CKPT_MAGIC)
    fh.write(struct.pack("<IBB", CKPT_VERSION, role, _KIND_CODES[kind]))
    fh.write(struct.pack("<I", int(T)))
    fh.write(struct.pack("<5I", *dims))


def _read_header(fh):
    if fh.read(4) != CKPT_MAGIC:
        raise ValueError("bad checkpoint magic")
    version, role, kind_code = tensorio.unpack(fh, "<IBB")
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if kind_code not in _KIND_NAMES:
        raise ValueError(f"unknown schedule kind code {kind_code} in checkpoint")
    (T,) = tensorio.unpack(fh, "<I")
    dims = tensorio.unpack(fh, "<5I")
    return role, _KIND_NAMES[kind_code], T, dims
