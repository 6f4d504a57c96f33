"""End-to-end pipeline stages shared by the CLI and the acceptance suite.

Each run_<command> takes the resolved configuration of its CLI command,
keyed as run.json records it, and writes all of the stage's outputs under
cfg["out"], so a stage can be rerun in isolation from its run.json.  The
CLI writes run.json only after the stage returns, so a failed stage may
leave partial outputs but never a run that looks complete.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from . import dataset, localization, metrics, sampler, schedule as sched, tensorio, trainer
from .denoiser import load_adapters, load_reference, save_adapters, save_reference

# sample run i of condition token k is seeded seed + SEEDS_PER_TOKEN * k + i,
# so one condition takes at most SEEDS_PER_TOKEN runs
SEEDS_PER_TOKEN = 10_000


def normal_training_set(data: dict) -> list:
    """(latent, candidate tokens) pairs for pretraining."""
    return [(dataset.encode_latent(s.image), dataset.category_tokens(s.category))
            for s in data["normal"]]


def anomaly_training_set(data: dict, split: str = "reference") -> list:
    """(latent, token) pairs for alignment."""
    return [(dataset.encode_latent(s.image), s.token) for s in data[split]]


def _write_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def run_gen_data(cfg: dict) -> None:
    dataset.generate_dataset(cfg["out"], cfg["seed"], cfg["n_normal"], cfg["n_anomaly"],
                             cfg["fraction"])


def run_pretrain(cfg: dict) -> None:
    data = dataset.load_dataset(cfg["data"])
    s = sched.build_schedule(cfg["t_steps"], cfg["kind"])
    tc = trainer.TrainConfig(steps=cfg["steps"], learning_rate=cfg["lr"], seed=cfg["seed"],
                             condition_dropout=cfg["dropout"], batch_size=cfg["batch"])
    model, log = trainer.pretrain_reference(normal_training_set(data), tc, s)
    os.makedirs(cfg["out"], exist_ok=True)
    save_reference(os.path.join(cfg["out"], "reference.ckpt"), model, cfg["kind"], cfg["t_steps"])
    log.save_csv(os.path.join(cfg["out"], "train_log.csv"))


def _align_config(cfg: dict, **kw) -> trainer.TrainConfig:
    return trainer.TrainConfig(steps=cfg["steps"], learning_rate=cfg["lr"], seed=cfg["seed"],
                               k_min=cfg["kmin"], k_max=cfg["kmax"], **kw)


def run_align(cfg: dict) -> None:
    data = dataset.load_dataset(cfg["data"])
    model, kind, T = load_reference(cfg["ref"])
    adapters, gate, log = trainer.align(model, anomaly_training_set(data),
                                        _align_config(cfg, beta=cfg["beta"]),
                                        sched.build_schedule(T, kind))
    os.makedirs(cfg["out"], exist_ok=True)
    save_adapters(os.path.join(cfg["out"], "adapters.ckpt"), adapters, gate, kind, T, model)
    log.save_csv(os.path.join(cfg["out"], "train_log.csv"))


def run_beta_sweep(cfg: dict) -> None:
    """Alignment once per beta with a shared seed; a summary row plus a log per beta."""
    data = dataset.load_dataset(cfg["data"])
    model, kind, T = load_reference(cfg["ref"])
    betas = [float(b) for b in cfg["betas"].split(",") if b]
    rows = trainer.beta_sweep(model, anomaly_training_set(data), _align_config(cfg), betas,
                              sched.build_schedule(T, kind))
    _write_csv(os.path.join(cfg["out"], "beta_sweep.csv"),
               ["beta", "final_mean_delta", "final_loss"],
               [[r["beta"], r["final_mean_delta"], r["final_loss"]] for r in rows])
    for r in rows:
        r["log"].save_csv(os.path.join(cfg["out"], f"align_log_beta{int(r['beta'])}.csv"))


def load_aligned(ref_ckpt, adapter_ckpt):
    model, kind, T = load_reference(ref_ckpt)
    adapters, gate, akind, aT = load_adapters(adapter_ckpt, model)
    if (akind, aT) != (kind, T):
        raise ValueError("adapter/reference schedule mismatch")
    return model, adapters, gate, sched.build_schedule(T, kind)


def run_sample(cfg: dict) -> None:
    """All n runs of a condition advance together as one batch."""
    name, n = cfg["condition"], cfg["n"]
    guidance = sampler.GuidanceConfig(s_text=cfg["s_text"], s_align=cfg["s_align"],
                                      steps=cfg["steps"], eta=cfg["eta"], z0_clip=cfg["clip"])
    model, adapters, gate, s = load_aligned(cfg["ref"], cfg["adapters"])
    for cname in dataset.CONDITIONS if name == "all" else [name]:
        token = dataset.token_from_name(cname)
        seeds = [cfg["seed"] + SEEDS_PER_TOKEN * token + i for i in range(n)]
        z, timesteps, norms = sampler.sample(model, adapters, gate, token, guidance, s, seeds)
        sampler.save_run(z, timesteps, norms, [os.path.join(cfg["out"], cname, f"run_{i:03d}")
                                               for i in range(n)], decode=dataset.decode_latent)


def run_localize(cfg: dict) -> None:
    """Probability maps for every image of a split, all run as one batch."""
    data = dataset.load_dataset(cfg["data"])
    samples = data[cfg["split"]]
    model, adapters, gate, s = load_aligned(cfg["ref"], cfg["adapters"])
    maps = []
    if samples:
        z0 = np.stack([dataset.encode_latent(x.image) for x in samples])
        steps = sampler.deviation_run(model, adapters, gate, z0, [x.token for x in samples],
                                      cfg["steps"], s, cfg["seed"])
        maps = localization.accumulate_map(steps, gate, samples[0].image.shape)
    os.makedirs(cfg["out"], exist_ok=True)
    for sample_, m in zip(samples, maps):
        p = localization.normalize_and_smooth(m)
        base = os.path.join(cfg["out"], sample_.sample_id)
        dataset.write_pgm(base + ".p.pgm", p)
        tensorio.save_tensor(base + ".p.f64", p)
        tensorio.save_tensor(base + ".m.f64", m)


def run_eval(cfg: dict) -> None:
    """Per-condition localization metrics plus the diversity proxy."""
    data = dataset.load_dataset(cfg["data"])
    rows = []
    for cat in dataset.CATEGORIES:
        for defect in dataset.DEFECTS:
            evs = [s for s in data["eval"] if s.category == cat and s.defect == defect]
            if not evs:
                continue
            aurocs, aps, f1s = [], [], []
            for s_ in evs:
                p = tensorio.load_tensor(os.path.join(cfg["maps"], s_.sample_id + ".p.f64"))
                sp = metrics.ScoredPixels.make(p, s_.mask)
                aurocs.append(metrics.auroc(sp))
                aps.append(metrics.average_precision(sp))
                f1s.append(metrics.f1_max(sp))
            div = float("nan")
            gdir = os.path.join(cfg["samples"], f"{cat}_{defect}")
            if cfg["samples"] and os.path.isdir(gdir):
                imgs = [dataset.read_pgm(os.path.join(gdir, d, "sample.pgm"))
                        for d in sorted(os.listdir(gdir))]
                if len(imgs) >= 2:
                    div = metrics.diversity_proxy({f"{cat}_{defect}": imgs})
            rows.append([cat, defect, float(np.mean(aurocs)), float(np.mean(aps)),
                         float(np.mean(f1s)), div, len(evs)])
    _write_csv(os.path.join(cfg["out"], "metrics.csv"),
               ["category", "defect", "auroc", "ap", "f1_max", "diversity_proxy", "n_eval"], rows)


def run_inspect_schedule(cfg: dict) -> None:
    """The schedule tables; an undefined slope at t = 0 is an empty cell."""
    s = sched.build_schedule(cfg["t_steps"], cfg["kind"])
    _write_csv(os.path.join(cfg["out"], "schedule.csv"),
               ["t", "alpha", "sigma", "lambda", "lambda_slope", "beta_t"],
               sched.schedule_table(s, cfg["beta"]))


def reference_diversity(data_root) -> float:
    """Diversity proxy of the few-shot reference anomalies, per condition."""
    data = dataset.load_dataset(data_root)
    groups: dict[str, list] = {}
    for s_ in data["reference"]:
        groups.setdefault(f"{s_.category}_{s_.defect}", []).append(s_.image)
    return metrics.diversity_proxy(groups)
