"""Little-endian binary tensor container: magic "APOT", u32 rank, u64 dims, f64 payload."""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"APOT"


def write_tensor(fh, arr: np.ndarray) -> None:
    # note: ascontiguousarray would promote rank-0 arrays to rank 1
    arr = np.asarray(arr, dtype="<f8", order="C")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(arr.tobytes())


def unpack(fh, fmt: str) -> tuple:
    """struct.unpack of the next bytes; a short read raises ValueError."""
    size = struct.calcsize(fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise ValueError("truncated header")
    return struct.unpack(fmt, buf)


def read_tensor(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"bad tensor magic: {magic!r}")
    (rank,) = unpack(fh, "<I")
    shape = unpack(fh, f"<{rank}Q")
    n = int(np.prod(shape)) if shape else 1
    buf = fh.read(8 * n)
    if len(buf) != 8 * n:
        raise ValueError("truncated tensor payload")
    arr = np.frombuffer(buf, dtype="<f8")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite value in tensor payload: {fh.name}")
    return arr.reshape(shape).astype(np.float64)


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, arr)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)
