"""End-to-end pipeline stages shared by the CLI and the acceptance suite.

Each stage reads/writes only the documented on-disk artifacts so that a
stage can be rerun in isolation from its recorded configuration.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from . import dataset, localization, metrics, sampler, schedule as sched, tensorio, trainer
from .denoiser import load_adapters, load_reference, save_adapters, save_reference

DESK_DEFAULTS = {
    "T": 1000,
    "kind": "linear",
    "n_normal": 64,
    "n_anomaly": 9,
    "fraction": 1.0 / 3.0,
    "pretrain_steps": 2000,
    "pretrain_lr": 5e-4,
    "pretrain_batch": 16,
    "align_steps": 3000,
    "align_lr": 2e-4,
    # the beta sweep compares regularization strengths; batch-1 Adam
    # noise swamps the beta effect at the regular align rate, so the
    # sweep trains slower to keep the shared-seed runs comparable
    "sweep_lr": 1e-5,
    "beta": 1000.0,
    "k_min": 4,
    "k_max": 32,
    "condition_dropout": 0.1,
    "s_text": 3.0,
    "s_align": 1.5,
    "sample_steps": 100,
    "n_samples": 16,
}


def normal_training_set(data: dict) -> list:
    """(latent, candidate tokens) pairs for pretraining."""
    return [(dataset.encode_latent(s.image), dataset.category_tokens(s.category))
            for s in data["normal"]]


def anomaly_training_set(data: dict, split: str = "reference") -> list:
    """(latent, token) pairs for alignment."""
    return [(dataset.encode_latent(s.image), s.token) for s in data[split]]


def run_pretrain(data_root, out_ckpt, *, T, kind, steps, learning_rate,
                 condition_dropout, seed,
                 batch_size=DESK_DEFAULTS["pretrain_batch"]) -> trainer.TrainLog:
    data = dataset.load_dataset(data_root)
    s = sched.build_schedule(T, kind)
    cfg = trainer.TrainConfig(steps=steps, learning_rate=learning_rate, seed=seed,
                              condition_dropout=condition_dropout,
                              batch_size=batch_size)
    model, log = trainer.pretrain_reference(normal_training_set(data), cfg, s)
    save_reference(out_ckpt, model, kind, T)
    return log


def run_align(data_root, ref_ckpt, out_ckpt, *, steps, learning_rate, beta,
              k_min, k_max, seed) -> trainer.TrainLog:
    data = dataset.load_dataset(data_root)
    model, kind, T = load_reference(ref_ckpt)
    s = sched.build_schedule(T, kind)
    cfg = trainer.TrainConfig(steps=steps, learning_rate=learning_rate, beta=beta,
                              seed=seed, k_min=k_min, k_max=k_max)
    adapters, gate, log = trainer.align(model, anomaly_training_set(data), cfg, s)
    save_adapters(out_ckpt, adapters, gate, kind, T, model)
    return log


def load_aligned(ref_ckpt, adapter_ckpt):
    model, kind, T = load_reference(ref_ckpt)
    adapters, gate, akind, aT = load_adapters(adapter_ckpt, model)
    if (akind, aT) != (kind, T):
        raise ValueError("adapter/reference schedule mismatch")
    return model, adapters, gate, sched.build_schedule(T, kind)


def run_sample(ref_ckpt, adapter_ckpt, out_root, *, conditions, n_samples,
               guidance: sampler.GuidanceConfig, seed) -> None:
    """All n_samples runs of a condition advance together as one batch."""
    model, adapters, gate, s = load_aligned(ref_ckpt, adapter_ckpt)
    for cname in conditions:
        token = dataset.token_from_name(cname)
        seeds = [seed + 10_000 * token + i for i in range(n_samples)]
        run = sampler.sample(model, adapters, gate, token, guidance, s, seeds)
        sampler.save_run(run, [os.path.join(out_root, cname, f"run_{i:03d}")
                               for i in range(n_samples)], decode=dataset.decode_latent)


def run_localize(ref_ckpt, adapter_ckpt, data_root, out_root, *,
                 guidance: sampler.GuidanceConfig, seed, split="eval") -> None:
    """Probability maps for every image of a split, all run as one batch."""
    model, adapters, gate, s = load_aligned(ref_ckpt, adapter_ckpt)
    samples = dataset.load_dataset(data_root)[split]
    os.makedirs(out_root, exist_ok=True)
    if not samples:
        return
    z0 = np.stack([dataset.encode_latent(x.image) for x in samples])
    run = sampler.deviation_run(model, adapters, gate, z0, [x.token for x in samples],
                                guidance, s, seed)
    maps = localization.accumulate_map(run, gate, samples[0].image.shape)
    for sample_, m in zip(samples, maps):
        p = localization.normalize_and_smooth(m)
        base = os.path.join(out_root, sample_.sample_id)
        dataset.write_pgm(base + ".p.pgm", p)
        tensorio.save_tensor(base + ".p.f64", p)
        tensorio.save_tensor(base + ".m.f64", m)


def run_eval(data_root, maps_root, out_csv, samples_root=None) -> list[dict]:
    """Per-condition localization metrics plus the diversity proxy."""
    data = dataset.load_dataset(data_root)
    rows = []
    for cat in dataset.CATEGORIES:
        for defect in dataset.DEFECTS:
            evs = [s for s in data["eval"] if s.category == cat and s.defect == defect]
            if not evs:
                continue
            aurocs, aps, f1s = [], [], []
            for s_ in evs:
                p = tensorio.load_tensor(os.path.join(maps_root, s_.sample_id + ".p.f64"))
                sp = metrics.ScoredPixels.make(p, s_.mask)
                aurocs.append(metrics.auroc(sp))
                aps.append(metrics.average_precision(sp))
                f1s.append(metrics.f1_max(sp))
            div = float("nan")
            if samples_root is not None:
                cname = f"{cat}_{defect}"
                gdir = os.path.join(samples_root, cname)
                if os.path.isdir(gdir):
                    imgs = [dataset.read_pgm(os.path.join(gdir, d, "sample.pgm"))
                            for d in sorted(os.listdir(gdir))]
                    if len(imgs) >= 2:
                        div = metrics.diversity_proxy({cname: imgs})
            rows.append({"category": cat, "defect": defect,
                         "auroc": float(np.mean(aurocs)), "ap": float(np.mean(aps)),
                         "f1_max": float(np.mean(f1s)), "diversity_proxy": div,
                         "n_eval": len(evs)})
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["category", "defect", "auroc", "ap",
                                               "f1_max", "diversity_proxy", "n_eval"])
            w.writeheader()
            w.writerows(rows)
    return rows


def reference_diversity(data_root) -> float:
    """Diversity proxy of the few-shot reference anomalies, per condition."""
    data = dataset.load_dataset(data_root)
    groups: dict[str, list] = {}
    for s_ in data["reference"]:
        groups.setdefault(f"{s_.category}_{s_.defect}", []).append(s_.image)
    return metrics.diversity_proxy(groups)
