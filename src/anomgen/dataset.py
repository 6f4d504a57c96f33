"""Procedural textures, synthetic defects, and the few-shot split.

Three texture categories x three defect kinds give nine condition
tokens (token 0 stays reserved for the unconditional branch).  Textures
live in [0.25, 0.75] and defect intensities within +-0.25 so that no
pixel saturates and the ground-truth mask is exactly the set of pixels
the defect altered.

Images are 32x32 grayscale; diffusion runs on a fixed 16x16 latent
(2x average-pool encoder, bilinear decoder).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .localization import upsample_bilinear
from .rng import seeded_uniform

IMAGE_SIDE = 32
LATENT_SIDE = 16
LATENT_DIM = LATENT_SIDE * LATENT_SIDE

CATEGORIES = ("stripes", "checker", "gradient")
DEFECTS = ("scratch", "spot", "patch")
CONDITIONS = tuple(f"{c}_{d}" for c in CATEGORIES for d in DEFECTS)
SPLITS = ("normal", "reference", "eval")

MASK_EPS = 1e-6


# defect geometry before the per-sample jitter of -JITTER..JITTER pixels per axis
SCRATCH_ENDPOINTS = (7, 7, 24, 24)  # x0, y0, x1, y1
CENTER = (16, 16)  # spot and patch, (y, x)
SPOT_RADIUS = 3
PATCH_SIZE = 8
JITTER = 2
INTENSITY = {"scratch": -0.25, "spot": 0.25, "patch": 0.2}


@dataclass
class LabeledSample:
    image: np.ndarray
    mask: np.ndarray | None
    token: int
    category: str
    defect: str | None
    split: str
    sample_id: str = ""
    spec: dict = field(default_factory=dict)


def token_for(category: str, defect: str) -> int:
    return 1 + CATEGORIES.index(category) * len(DEFECTS) + DEFECTS.index(defect)


def category_tokens(category: str) -> list[int]:
    return [token_for(category, d) for d in DEFECTS]


def token_from_name(name: str) -> int:
    cat, _, defect = name.partition("_")
    return token_for(cat, defect)


# -- texture synthesis --------------------------------------------------------


def _texture(category: str, u: np.ndarray) -> np.ndarray:
    """One texture; u holds three uniforms (phase, amplitude, flip)."""
    amp = 0.17 + 0.08 * u[1]
    cols = np.arange(IMAGE_SIDE)
    if category == "stripes":
        phase = int(u[0] * 8)
        pat = np.where(((cols + phase) // 4) % 2 == 0, 1.0, -1.0)
        img = np.tile(pat, (IMAGE_SIDE, 1))
    elif category == "checker":
        phase = int(u[0] * 2)
        y, x = np.meshgrid(np.arange(IMAGE_SIDE), cols, indexing="ij")
        img = np.where((y // 4 + x // 4 + phase) % 2 == 0, 1.0, -1.0)
    else:  # gradient; gen_normal has checked the category
        ramp = 2.0 * cols / (IMAGE_SIDE - 1) - 1.0
        if u[0] >= 0.5:
            ramp = ramp[::-1]
        img = np.tile(ramp, (IMAGE_SIDE, 1))
    return 0.5 + amp * img


def gen_normal(category: str, n: int, seed: int) -> list[np.ndarray]:
    """n deterministic jittered textures, pixel values in [0, 1]."""
    u = seeded_uniform((n, 3), seed, 10 + CATEGORIES.index(category))
    return [_texture(category, u[i]) for i in range(n)]


# -- defects ------------------------------------------------------------------


def _defect_region(kind: str, jitter: np.ndarray) -> np.ndarray:
    """Boolean region of pixels the defect touches, geometry jittered per sample."""
    j = ((jitter * (2 * JITTER + 1)).astype(int) - JITTER)
    y, x = np.meshgrid(np.arange(IMAGE_SIDE), np.arange(IMAGE_SIDE), indexing="ij")
    if kind == "scratch":
        x0, y0, x1, y1 = SCRATCH_ENDPOINTS
        x0, y0, x1, y1 = x0 + j[0], y0 + j[1], x1 + j[0], y1 + j[1]
        vx, vy = x1 - x0, y1 - y0
        L2 = float(vx * vx + vy * vy)
        tt = np.clip(((x - x0) * vx + (y - y0) * vy) / L2, 0.0, 1.0)
        dist = np.hypot(x - (x0 + tt * vx), y - (y0 + tt * vy))
        return dist <= 0.8
    cy, cx = CENTER[0] + j[0], CENTER[1] + j[1]
    if kind == "spot":
        return (y - cy) ** 2 + (x - cx) ** 2 <= SPOT_RADIUS**2
    h = PATCH_SIZE // 2  # patch; gen_anomaly has checked the kind
    return (np.abs(y - cy) < h) & (np.abs(x - cx) < h)


def gen_anomaly(category: str, defect: str, n: int, seed: int) -> list[LabeledSample]:
    """Defective textures with exact per-pixel ground-truth masks."""
    intensity = INTENSITY[defect]
    normals = gen_normal(category, n, seed)
    jit = seeded_uniform((n, 2), seed, 50 + DEFECTS.index(defect))
    token = token_for(category, defect)
    out = []
    for i, base in enumerate(normals):
        img = base.copy()
        img[_defect_region(defect, jit[i])] += intensity
        img = np.clip(img, 0.0, 1.0)
        mask = (np.abs(img - base) > MASK_EPS).astype(np.uint8)
        out.append(LabeledSample(image=img, mask=mask, token=token, category=category,
                                 defect=defect, split="", spec={"kind": defect,
                                 "intensity": intensity}))
    return out


def split_few_shot(samples: list, fraction: float, seed: int) -> tuple[list, list]:
    """Deterministic shuffle, then ceil(fraction*n) reference / rest eval."""
    n = len(samples)
    order = np.argsort(seeded_uniform((n,), seed, 77), kind="stable")
    n_ref = min(math.ceil(fraction * n), n - 1)
    ref_idx = set(order[:n_ref].tolist())
    ref, ev = [], []
    for i in range(n):
        (ref if i in ref_idx else ev).append(samples[i])
    for s in ref:
        s.split = "reference"
    for s in ev:
        s.split = "eval"
    return ref, ev


# -- toy latent codec ---------------------------------------------------------


def encode_latent(img: np.ndarray) -> np.ndarray:
    """2x average pool then affine map to roughly unit scale; flattened."""
    img = np.asarray(img, dtype=np.float64)
    pooled = img.reshape(LATENT_SIDE, 2, LATENT_SIDE, 2).mean(axis=(1, 3))
    return ((pooled - 0.5) / 0.25).reshape(-1)


def decode_latent(z: np.ndarray) -> np.ndarray:
    """Bilinear upsample back to image resolution; clipped to [0, 1]."""
    grid = np.asarray(z, dtype=np.float64).reshape(LATENT_SIDE, LATENT_SIDE)
    img = upsample_bilinear(grid, (IMAGE_SIDE, IMAGE_SIDE)) * 0.25 + 0.5
    return np.clip(img, 0.0, 1.0)


# -- PGM + manifest persistence ----------------------------------------------


def write_pgm(path, img: np.ndarray) -> None:
    data = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError("not a binary PGM")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(fh.readline())
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8).reshape(h, w)
    return data.astype(np.float64) / maxval


def generate_dataset(root, seed: int, n_normal: int, n_anomaly: int, fraction: float) -> dict:
    """Write the full on-disk corpus and its manifest; returns the manifest."""
    entries = []
    for cat in CATEGORIES:
        os.makedirs(os.path.join(root, cat, "normal"), exist_ok=True)
        for split in ("reference", "eval"):
            os.makedirs(os.path.join(root, cat, split), exist_ok=True)
        for i, img in enumerate(gen_normal(cat, n_normal, seed)):
            sid = f"{cat}_normal_{i:03d}"
            write_pgm(os.path.join(root, cat, "normal", f"{sid}.pgm"), img)
            entries.append({"id": sid, "category": cat, "defect": None,
                            "token": None, "split": "normal"})
        for defect in DEFECTS:
            anomalies = gen_anomaly(cat, defect, n_anomaly, seed + 1000 * DEFECTS.index(defect))
            ref, ev = split_few_shot(anomalies, fraction, seed)
            for j, s in enumerate(ref + ev):
                sid = f"{cat}_{defect}_{j:03d}"
                s.sample_id = sid
                d = os.path.join(root, cat, s.split)
                write_pgm(os.path.join(d, f"{sid}.pgm"), s.image)
                write_pgm(os.path.join(d, f"{sid}.mask.pgm"), s.mask.astype(np.float64))
                entries.append({"id": sid, "category": cat, "defect": defect,
                                "token": s.token, "split": s.split, "spec": s.spec})
    manifest = {"seed": seed, "n_normal": n_normal, "n_anomaly": n_anomaly,
                "fraction": fraction, "samples": entries}
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def load_dataset(root) -> dict[str, list[LabeledSample]]:
    """Read the corpus back; returns {'normal': [...], 'reference': [...], 'eval': [...]}."""
    path = os.path.join(root, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise ValueError(f"malformed manifest {path}: need an object with a 'samples' list")
    out: dict[str, list[LabeledSample]] = {split: [] for split in SPLITS}
    # each key the loader reads, with the types its value may have
    types = {"id": (str,), "category": (str,), "split": (str,), "token": (int, type(None)),
             "defect": (str, type(None))}
    for n, e in enumerate(manifest["samples"]):
        if not isinstance(e, dict) or not all(k in e for k in types):
            raise ValueError(f"malformed manifest {path}: sample {n} needs {', '.join(types)}")
        for k, ts in types.items():
            if type(e[k]) not in ts:
                raise ValueError(f"malformed manifest {path}: sample {n} has {k}={e[k]!r} "
                                 f"of type {type(e[k]).__name__}")
        if e["split"] not in SPLITS:
            raise ValueError(f"malformed manifest {path}: sample {n} has split {e['split']!r}; "
                             f"valid: {', '.join(SPLITS)}")
        d = os.path.join(root, e["category"], e["split"])
        img = read_pgm(os.path.join(d, f"{e['id']}.pgm"))
        mask = None
        if e["split"] != "normal":
            mask = (read_pgm(os.path.join(d, f"{e['id']}.mask.pgm")) > 0.5).astype(np.uint8)
        out[e["split"]].append(LabeledSample(
            image=img, mask=mask, token=e["token"] or 0, category=e["category"],
            defect=e["defect"], split=e["split"], sample_id=e["id"], spec=e.get("spec", {})))
    return out
