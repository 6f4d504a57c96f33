"""Conditional noise-prediction network with gated low-rank adapters.

A 4-layer dense net on batches of flattened 16x16 latents.  Class-token
and sinusoidal time embeddings are added to the first hidden activation.
Adapters are applied unmerged: each layer adds ((h A^T) * mask) B^T to
the frozen h W^T, with the mask width shrinking as the timestep grows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .autodiff import Tensor
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


class LoraStack:
    """Per-layer low-rank factors; B starts at zero so the initial update vanishes."""

    def __init__(self, layer_shapes, rank: int, seed: int, stream_base: int = 900):
        self.rank = int(rank)
        self.A: list[Tensor] = []
        self.B: list[Tensor] = []
        for i, (out_dim, in_dim) in enumerate(layer_shapes):
            a = seeded_gaussian((rank, in_dim), seed, stream_base + 2 * i) / np.sqrt(rank)
            self.A.append(Tensor(a, requires_grad=True))
            self.B.append(Tensor(np.zeros((out_dim, rank)), requires_grad=True))

    @property
    def params(self) -> list[Tensor]:
        return self.A + self.B

    def layer_delta(self, i: int, mask: np.ndarray) -> Tensor:
        """Merged update B_i @ diag(mask) @ A_i; the forward never builds it."""
        if mask.shape != (self.rank,):
            raise ValueError("mask length must equal adapter rank")
        return self.B[i] @ (Tensor(mask[:, None]) * self.A[i])


def effective_delta(adapter: LoraStack, gate: TemporalGate, t: int, layer: int = 0) -> np.ndarray:
    """Merged weight update of one adapted layer at timestep t (test oracle)."""
    if gate.k_max != adapter.rank:
        raise ValueError("gate k_max must equal adapter rank")
    return adapter.layer_delta(layer, gate_matrix(gate, t)).data


def sinusoidal_embedding(t, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Embedding of a timestep, shape (dim,); an array of timesteps adds leading axes."""
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / half)
    ang = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
    pad = np.zeros(ang.shape[:-1] + (dim - 2 * half,))
    return np.concatenate([np.cos(ang), np.sin(ang), pad], axis=-1)


class Denoiser:
    """epsilon(z_t, c, t); token 0 is the reserved unconditional branch."""

    N_LAYERS = 4

    def __init__(self, latent_dim: int = 256, hidden: int = 256, n_tokens: int = 10,
                 seed: int = 0, time_max_period: float = 10000.0):
        self.latent_dim = int(latent_dim)
        self.hidden = int(hidden)
        self.n_tokens = int(n_tokens)
        self.time_max_period = float(time_max_period)

        dims = [(hidden, latent_dim), (hidden, hidden), (hidden, hidden), (latent_dim, hidden)]
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (out_dim, in_dim) in enumerate(dims):
            w = seeded_gaussian((out_dim, in_dim), seed, 100 + i) / np.sqrt(in_dim)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(out_dim), requires_grad=True))
        cond = seeded_gaussian((n_tokens, hidden), seed, 200) * 0.1
        cond[NULL_TOKEN] = 0.0
        self.cond_table = Tensor(cond, requires_grad=True)

    # -- parameter plumbing ---------------------------------------------------

    @property
    def params(self) -> list[Tensor]:
        return self.weights + self.biases + [self.cond_table]

    def layer_shapes(self):
        return [w.data.shape for w in self.weights]

    def set_trainable(self, flag: bool) -> None:
        for p in self.params:
            p.requires_grad = flag

    def state_arrays(self) -> list[np.ndarray]:
        return [p.data for p in self.params]

    # -- forward --------------------------------------------------------------

    def forward(self, z_t, c, t, adapters: LoraStack | None = None,
                gate: TemporalGate | None = None) -> Tensor:
        """Noise prediction for a latent (D,) or a batch of latents (B, D).

        c and t are a token and a timestep shared by every row, or one per
        row; c=None is the null token.  With adapters each layer computes
        h W^T + ((h A^T) * mask_k(t)) B^T without merging the weights.
        """
        if adapters is not None and gate is None:
            raise ValueError("adapters require a temporal gate")
        if adapters is not None and gate.k_max != adapters.rank:
            raise ValueError("gate k_max must equal adapter rank")

        z = np.asarray(z_t, dtype=np.float64)
        single = z.ndim == 1
        z = z[None, :] if single else z
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
        emb = self.cond_table.row(tokens) + sinusoidal_embedding(ts, self.hidden,
                                                                 self.time_max_period)
        mask = Tensor(gate_matrix(gate, ts)) if adapters is not None else None

        h = Tensor(z)
        for i in range(self.N_LAYERS):
            out = h @ self.weights[i].T + self.biases[i]
            if adapters is not None:
                out = out + ((h @ adapters.A[i].T) * mask) @ adapters.B[i].T
            if i == 0:
                out = out + emb
            h = out.silu() if i < self.N_LAYERS - 1 else out
        return h.row(0) if single else h


def predict_noise(model: Denoiser, adapters: LoraStack | None, z_t, c, t,
                  gate: TemporalGate | None = None) -> np.ndarray:
    """Plain-array forward pass for callers that do not need gradients."""
    return model.forward(z_t, c, t, adapters=adapters, gate=gate).data


# -- checkpoint container -----------------------------------------------------


def save_reference(path, model: Denoiser, sched_kind: str, T: int) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, ROLE_REFERENCE, sched_kind, T,
                      (model.latent_dim, model.hidden, model.n_tokens, 0, 0))
        for arr in model.state_arrays():
            tensorio.write_tensor(fh, arr)


def load_reference(path) -> tuple[Denoiser, str, int]:
    with open(path, "rb") as fh:
        role, kind, T, dims = _read_header(fh)
        if role != ROLE_REFERENCE:
            raise ValueError("checkpoint does not hold reference weights")
        latent_dim, hidden, n_tokens, _, _ = dims
        model = Denoiser(latent_dim, hidden, n_tokens)
        for p in model.params:
            arr = tensorio.read_tensor(fh)
            if arr.shape != p.data.shape:
                raise ValueError("checkpoint tensor shape mismatch")
            p.data = arr
    model.set_trainable(False)
    return model, kind, T


def save_adapters(path, adapters: LoraStack, gate: TemporalGate,
                  sched_kind: str, T: int, model: Denoiser) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, ROLE_ADAPTERS, sched_kind, T,
                      (model.latent_dim, model.hidden, gate.k_min, gate.k_max, len(adapters.A)))
        for p in adapters.params:
            tensorio.write_tensor(fh, p.data)


def load_adapters(path, model: Denoiser) -> tuple[LoraStack, TemporalGate, str, int]:
    with open(path, "rb") as fh:
        role, kind, T, dims = _read_header(fh)
        if role != ROLE_ADAPTERS:
            raise ValueError("checkpoint does not hold adapter weights")
        latent_dim, hidden, k_min, k_max, n_layers = dims
        if (latent_dim, hidden) != (model.latent_dim, model.hidden):
            raise ValueError("adapter checkpoint does not match model dims")
        gate = TemporalGate(k_min=k_min, k_max=k_max, T=T)
        adapters = LoraStack(model.layer_shapes(), rank=k_max, seed=0)
        if len(adapters.A) != n_layers:
            raise ValueError("adapter layer count mismatch")
        for p in adapters.params:
            arr = tensorio.read_tensor(fh)
            if arr.shape != p.data.shape:
                raise ValueError("checkpoint tensor shape mismatch")
            p.data = arr
            p.requires_grad = False
    return adapters, gate, kind, T


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
