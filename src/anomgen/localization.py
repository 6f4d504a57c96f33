"""Deviation-guided anomaly localization.

Each step's alignment deviation is reduced, as it arrives, to pointwise
magnitudes, weighted by the active adapter rank k(t), upsampled to image
resolution and added into a running mean, the raw map M.  Min-max
normalization followed by a fixed 3x3 binomial blur turns M into a
probability map P in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .denoiser import TemporalGate, gate_dims

# 3x3 binomial kernel, mass 1
_KERNEL = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0


def upsample_bilinear(m: np.ndarray, target_dims) -> np.ndarray:
    """Align-corners bilinear interpolation of the last two axes; exact on affine fields."""
    m = np.asarray(m, dtype=np.float64)
    th, tw = int(target_dims[0]), int(target_dims[1])
    sh, sw = m.shape[-2:]
    if (th, tw) == (sh, sw):
        return m.copy()

    def coords(target, source):
        if target == 1:
            return np.zeros(1), np.zeros(1, dtype=np.int64)
        pos = np.arange(target) * (source - 1) / (target - 1)
        i0 = np.minimum(pos.astype(np.int64), source - 2) if source > 1 else np.zeros(target, dtype=np.int64)
        frac = pos - i0 if source > 1 else np.zeros(target)
        return frac, i0

    fy, y0 = coords(th, sh)
    fx, x0 = coords(tw, sw)
    y1 = np.minimum(y0 + 1, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    rows0, rows1 = m[..., y0, :], m[..., y1, :]
    top = rows0[..., x0] * (1 - fx) + rows0[..., x1] * fx
    bot = rows1[..., x0] * (1 - fx) + rows1[..., x1] * fx
    return top * (1 - fy)[:, None] + bot * fy[:, None]


def accumulate_map(steps, gate: TemporalGate, target_dims) -> np.ndarray:
    """M = (1/n) * sum over the n steps of k(t) * Upsample(|delta_align(z_t)|).

    steps is any iterable of (t, delta) pairs, such as deviation_run; a
    (B, D) delta gives B maps.  Each pair is added as it arrives, so
    neither the deltas nor a per-step upsampled stack is held.
    """
    total, n = 0.0, 0
    for t, d in steps:
        mag = np.abs(np.asarray(d, dtype=np.float64))
        side = int(round(np.sqrt(mag.shape[-1])))
        mag = mag.reshape(mag.shape[:-1] + (side, side))
        total = total + gate_dims(gate, int(t)) * upsample_bilinear(mag, target_dims)
        n += 1
    return total / n


def smooth(m: np.ndarray) -> np.ndarray:
    """3x3 binomial convolution with edge-replicate padding."""
    p = np.pad(m, 1, mode="edge")
    out = np.zeros_like(m, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += _KERNEL[dy, dx] * p[dy:dy + m.shape[0], dx:dx + m.shape[1]]
    return out


def normalize_and_smooth(m: np.ndarray) -> np.ndarray:
    """P = Smooth((M - min) / (max - min)); a constant M maps to all zeros."""
    m = np.asarray(m, dtype=np.float64)
    lo, hi = float(m.min()), float(m.max())
    if hi <= lo:
        # no deviation evidence anywhere; do not manufacture patterns
        return np.zeros_like(m)
    return np.clip(smooth((m - lo) / (hi - lo)), 0.0, 1.0)
