"""Counter-based deterministic random number generation.

Every random quantity in the pipeline is a pure function of
(seed, stream_id, index).  There is no shared generator state, so any
draw can be reproduced in isolation and independent streams can be
consumed concurrently without coordination.
"""

from __future__ import annotations

import numpy as np

_MUL1 = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio increment
_MUL2 = np.uint64(0xBF58476D1CE4E5B9)
_MUL3 = np.uint64(0x94D049BB133111EB)
_SEED_MIX = np.uint64(0xD6E8FEB86659FD93)
_STREAM_MIX = np.uint64(0xA5A3564F1FDA2D41)

_INV_2_53 = float(2.0**-53)


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; full avalanche over a u64 lane."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= _MUL2
    x ^= x >> np.uint64(27)
    x *= _MUL3
    x ^= x >> np.uint64(31)
    return x


def _u64(key):
    """A seed or stream id mod 2^64 as u64; a 1-D sequence of them gives a (len, 1) column."""
    if isinstance(key, int) or not np.ndim(key):
        return np.uint64(key & 0xFFFFFFFFFFFFFFFF)
    if not isinstance(key, np.ndarray):  # Python ints of any size; an int array wraps on cast
        key = [k & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.array(key, dtype=np.uint64)[:, None]


def _hash_counters(seed, stream_id, counters: np.ndarray) -> np.ndarray:
    """Hashed counters; an array of seeds or stream ids adds one leading axis, one row each."""
    # u64 arithmetic wraps by design (so any grouping gives the same bits)
    with np.errstate(over="ignore"):
        key = _u64(seed) * _SEED_MIX + _u64(stream_id) * _STREAM_MIX
        x = np.asarray(counters, dtype=np.uint64) * _MUL1 + key
    # two finalizer rounds decorrelate nearby (seed, stream, index) keys
    return _finalize(_finalize(x))


def _uniform_open(seed: int, stream_id, counters: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1]; the +1 keeps log() finite."""
    bits = _hash_counters(seed, stream_id, counters) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * _INV_2_53


def seeded_uniform(shape, seed: int, stream_id: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) for the given (seed, stream, shape)."""
    shape = tuple(int(d) for d in shape)
    n = int(np.prod(shape)) if shape else 1
    u = _uniform_open(seed, stream_id, np.arange(n, dtype=np.uint64)) - _INV_2_53
    return u.reshape(shape)


def seeded_gaussian(shape, seed, stream_id) -> np.ndarray:
    """Standard-normal samples via Box-Muller on the counter hash.

    Identical (seed, stream_id, shape) yields bit-identical output
    across runs; zero-sized shapes yield an empty array.  A 1-D sequence
    of seeds or of stream ids gives shape (len,) + shape, each row equal
    to the call with that seed or id alone.
    """
    shape = tuple(int(d) for d in shape)
    if not shape:
        raise ValueError("shape must be non-empty")
    n = int(np.prod(shape))
    m = (n + 1) // 2
    idx = np.arange(2 * m, dtype=np.uint64)
    u = _uniform_open(seed, stream_id, idx)
    u1, u2 = u[..., :m], u[..., m:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]
    return out.reshape(u.shape[:-1] + shape)


def seeded_randint(n_values: int, shape, seed: int, stream_id: int) -> np.ndarray:
    """Deterministic integers uniform on {0, ..., n_values-1}."""
    if n_values < 1:
        raise ValueError("n_values must be >= 1")
    u = seeded_uniform(shape, seed, stream_id)
    return np.minimum((u * n_values).astype(np.int64), n_values - 1)
