"""Independent reference computations for the benchmark's output checks.

Plain numpy re-derivations of what the pipeline computes, written from the
method rather than from the package's code paths: the checkpoint and tensor
file formats, the linear noise schedule, the denoiser forward with the
adapters applied unmerged (W h + B[:, :k] (A[:k] h)), three-term guided DDIM,
the deviation map with bilinear upsampling and the 3x3 blur, a rank-sum
AUROC and the pairwise diversity proxy.  Only the counter RNG is taken from
the program, because the checks must replay its noise keys.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

LATENT_SIDE = 16
IMAGE_SIDE = 32
N_LAYERS = 4

# counter-RNG stream keys of the program's sampler
STREAM_INIT = 5001
STREAM_STEP_NOISE = 5100
STREAM_DEVIATION = 5200


# -- file formats -------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Binary PGM as floats in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            pos = raw.index(b"\n", pos) + 1
            continue
        end = pos
        while not raw[end:end + 1].isspace():
            end += 1
        fields.append(raw[pos:end])
        pos = end
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(f) for f in fields[1:])
    pixels = np.frombuffer(raw[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated PGM")
    return pixels.reshape(h, w).astype(np.float64) / maxval


def _read_tensor(buf: memoryview, pos: int) -> tuple[np.ndarray, int]:
    if bytes(buf[pos:pos + 4]) != b"APOT":
        raise ValueError("bad tensor magic")
    (rank,) = struct.unpack_from("<I", buf, pos + 4)
    shape = struct.unpack_from(f"<{rank}Q", buf, pos + 8)
    pos += 8 + 8 * rank
    n = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(buf, dtype="<f8", count=n, offset=pos).reshape(shape)
    return arr.astype(np.float64), pos + 8 * n


def read_tensors(path) -> list[np.ndarray]:
    """Every tensor stored back to back in a file."""
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    out, pos = [], 0
    while pos < len(buf):
        arr, pos = _read_tensor(buf, pos)
        out.append(arr)
    return out


@dataclass
class Net:
    W: list
    b: list
    cond: np.ndarray
    T: int
    kind: str


@dataclass
class Lora:
    A: list
    B: list
    k_min: int
    k_max: int
    T: int

    def k(self, t: int) -> int:
        """Active adapter rank at timestep t."""
        return int(np.floor(self.k_min + (self.k_max - self.k_min) * (self.T - t) / self.T))


def _read_checkpoint(path):
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    if bytes(buf[:4]) != b"APOC":
        raise ValueError(f"{path}: bad checkpoint magic")
    _version, role, kind = struct.unpack_from("<IBB", buf, 4)
    (T,) = struct.unpack_from("<I", buf, 10)
    dims = struct.unpack_from("<5I", buf, 14)
    arrays, pos = [], 34
    while pos < len(buf):
        arr, pos = _read_tensor(buf, pos)
        arrays.append(arr)
    return role, ("linear", "cosine")[kind], T, dims, arrays


def load_net(path) -> Net:
    role, kind, T, _dims, arrays = _read_checkpoint(path)
    if role != 0 or len(arrays) != 2 * N_LAYERS + 1:
        raise ValueError(f"{path}: not a reference checkpoint")
    return Net(W=arrays[:N_LAYERS], b=arrays[N_LAYERS:2 * N_LAYERS], cond=arrays[-1],
               T=T, kind=kind)


def load_lora(path) -> Lora:
    role, _kind, T, dims, arrays = _read_checkpoint(path)
    if role != 1 or len(arrays) != 2 * N_LAYERS:
        raise ValueError(f"{path}: not an adapter checkpoint")
    return Lora(A=arrays[:N_LAYERS], B=arrays[N_LAYERS:], k_min=dims[2], k_max=dims[3], T=T)


# -- schedule and network -----------------------------------------------------


def linear_schedule(T: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, sigma) for t = 0..T with per-step variance ramping 1e-4 -> 2e-2."""
    t = np.arange(T + 1, dtype=np.float64)
    alpha_sq = np.cumprod(1.0 - (1e-4 + (2e-2 - 1e-4) * t / T))
    return np.sqrt(alpha_sq), np.sqrt(1.0 - alpha_sq)


def visited_timesteps(T: int, steps: int) -> list[int]:
    """Distinct evenly spaced levels from T down to 1."""
    ts = sorted({int(round(x)) for x in np.linspace(T, 1, steps)}, reverse=True)
    return [t for t in ts if t >= 1]


def time_embedding(t: int, dim: int) -> np.ndarray:
    freqs = np.exp(-np.log(10000.0) * np.arange(dim // 2) / (dim // 2))
    return np.concatenate([np.cos(t * freqs), np.sin(t * freqs)])


def forward(net: Net, z: np.ndarray, token: int, t: int, lora: Lora | None = None) -> np.ndarray:
    """Noise prediction; adapters applied unmerged on the active rank prefix."""
    k = lora.k(t) if lora is not None else 0
    h = z
    for i in range(N_LAYERS):
        out = net.W[i] @ h + net.b[i]
        if lora is not None:
            out = out + lora.B[i][:, :k] @ (lora.A[i][:k] @ h)
        if i == 0:
            out = out + net.cond[token] + time_embedding(t, out.shape[0])
        if i < N_LAYERS - 1:
            out = out / (1.0 + np.exp(-out))
        h = out
    return h


# -- codec, sampling, localization -------------------------------------------


def _upsample_matrix(src: int, dst: int) -> np.ndarray:
    """Align-corners linear interpolation weights, dst x src."""
    pos = np.arange(dst) * (src - 1) / (dst - 1)
    lo = np.minimum(np.floor(pos).astype(int), src - 2)
    frac = pos - lo
    U = np.zeros((dst, src))
    U[np.arange(dst), lo] = 1.0 - frac
    U[np.arange(dst), lo + 1] += frac
    return U


_U = _upsample_matrix(LATENT_SIDE, IMAGE_SIDE)


def upsample(grid: np.ndarray) -> np.ndarray:
    return _U @ grid @ _U.T


def encode(img: np.ndarray) -> np.ndarray:
    pooled = img.reshape(LATENT_SIDE, 2, LATENT_SIDE, 2).mean(axis=(1, 3))
    return ((pooled - 0.5) / 0.25).ravel()


def decode(z: np.ndarray) -> np.ndarray:
    return np.clip(upsample(z.reshape(LATENT_SIDE, LATENT_SIDE)) * 0.25 + 0.5, 0.0, 1.0)


def guided_ddim(net: Net, lora: Lora, token: int, seed: int, *, steps: int, s_text: float,
                s_align: float, eta: float, clip: float, gaussian) -> np.ndarray:
    """Final image of one three-term guided DDIM run; gaussian is the program's RNG."""
    alpha, sigma = linear_schedule(net.T)
    visits = visited_timesteps(net.T, steps)
    z = gaussian((net.W[0].shape[1],), seed, STREAM_INIT)
    for i, t in enumerate(visits):
        e_u = forward(net, z, 0, t)
        e_c = forward(net, z, token, t)
        e_p = forward(net, z, token, t, lora)
        e = e_u + s_text * (e_c - e_u) + s_align * (e_p - e_c)
        z0 = np.clip((z - sigma[t] * e) / alpha[t], -clip, clip)
        t_prev = visits[i + 1] if i + 1 < len(visits) else 0
        if t_prev == 0:
            z = z0
            break
        ab_t, ab_prev = alpha[t] ** 2, alpha[t_prev] ** 2
        sig = eta * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t) * (1.0 - ab_t / ab_prev))
        z = alpha[t_prev] * z0 + np.sqrt(max(1.0 - ab_prev - sig**2, 0.0)) * e
        if sig > 0.0:
            z = z + sig * gaussian(z.shape, seed, STREAM_STEP_NOISE + i)
    return decode(z)


def deviation_map(net: Net, lora: Lora, img: np.ndarray, token: int, seed: int, *,
                  steps: int, gaussian) -> np.ndarray:
    """Raw map M: rank-weighted mean of upsampled |adapted - frozen| over visited levels."""
    alpha, sigma = linear_schedule(net.T)
    z0 = encode(img)
    visits = visited_timesteps(net.T, steps)
    total = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
    for i, t in enumerate(visits):
        z_t = alpha[t] * z0 + sigma[t] * gaussian(z0.shape, seed, STREAM_DEVIATION + i)
        d = forward(net, z_t, token, t, lora) - forward(net, z_t, token, t)
        total += lora.k(t) * upsample(np.abs(d).reshape(LATENT_SIDE, LATENT_SIDE))
    return total / len(visits)


def blur(m: np.ndarray) -> np.ndarray:
    """Separable [1, 2, 1] / 4 blur in both axes with edge-replicate padding."""
    p = np.pad(m, 1, mode="edge")
    rows = (p[:-2] + 2.0 * p[1:-1] + p[2:]) / 4.0
    return (rows[:, :-2] + 2.0 * rows[:, 1:-1] + rows[:, 2:]) / 4.0


def probability_map(m: np.ndarray) -> np.ndarray:
    lo, hi = m.min(), m.max()
    if hi <= lo:
        return np.zeros_like(m)
    return np.clip(blur((m - lo) / (hi - lo)), 0.0, 1.0)


# -- metrics ------------------------------------------------------------------


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U over average ranks (ties count one half)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(labels).ravel() > 0
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = (ends - counts + 1 + ends) / 2.0
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    return float((avg_rank[inverse][pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def diversity(images: list) -> float:
    """Mean pairwise RMS distance within one group."""
    x = np.stack([np.asarray(im, dtype=np.float64).ravel() for im in images])
    i, j = np.triu_indices(len(x), k=1)
    return float(np.mean(np.sqrt(np.mean((x[i] - x[j]) ** 2, axis=1))))
