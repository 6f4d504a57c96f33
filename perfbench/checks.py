"""Output checks: the pipeline's files against the independent references."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference as ref


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def train_losses(run_dir) -> np.ndarray:
    return np.array([float(r["loss"]) for r in _csv_rows(os.path.join(run_dir, "train_log.csv"))])


class Checker:
    """Collects failed checks; each check method appends a message on failure."""

    def __init__(self, data_dir):
        self.failures: list[str] = []
        self.data_dir = data_dir
        with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
            self.entries = json.load(fh)["samples"]

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def _split(self, split: str) -> list[dict]:
        return [s for s in self.entries if s["split"] == split]

    def _image(self, s: dict, suffix: str = ".pgm") -> np.ndarray:
        return ref.read_pgm(os.path.join(self.data_dir, s["category"], s["split"], s["id"] + suffix))

    def conditions(self) -> list[tuple[str, int]]:
        seen = {}
        for s in self._split("eval"):
            seen.setdefault(f"{s['category']}_{s['defect']}", s["token"])
        return sorted(seen.items(), key=lambda kv: kv[1])

    # -- training ---------------------------------------------------------------

    def align_starts_at_ln2(self, align_dir) -> None:
        first = train_losses(align_dir)[0]
        self.expect(abs(first - math.log(2.0)) <= 1e-9,
                    f"first align loss {first!r} != ln 2 (adapters start at B = 0)")

    def pretrain_loss_falls(self, pre_dir) -> None:
        losses = train_losses(pre_dir)
        n = min(100, len(losses) // 2)
        head, tail = losses[:n].mean(), losses[-n:].mean()
        self.expect(tail < head, f"pretrain loss did not fall: first {n} {head:.4f}, last {n} {tail:.4f}")

    def alignment_deviation_negative(self, net, lora, seed: int, draws: int = 8) -> float:
        """Mean ||adapted - eps||^2 - ||frozen - eps||^2 on the reference split."""
        alpha, sigma = ref.linear_schedule(net.T)
        rng = np.random.default_rng(seed)
        deltas = []
        for s in self._split("reference"):
            z0 = ref.encode(self._image(s))
            for _ in range(draws):
                t = int(rng.integers(1, net.T + 1))
                eps = rng.standard_normal(z0.shape)
                z_t = alpha[t] * z0 + sigma[t] * eps
                deltas.append(np.sum((ref.forward(net, z_t, s["token"], t, lora) - eps) ** 2)
                              - np.sum((ref.forward(net, z_t, s["token"], t) - eps) ** 2))
        mean = float(np.mean(deltas))
        self.expect(mean < 0.0, f"mean alignment deviation on the reference split is {mean:.4f}, not < 0")
        return mean

    def reference_diversity(self) -> float:
        groups: dict[str, list] = {}
        for s in self._split("reference"):
            groups.setdefault(f"{s['category']}_{s['defect']}", []).append(self._image(s))
        return float(np.mean([ref.diversity(g) for g in groups.values()]))

    # -- sampling ---------------------------------------------------------------

    def samples(self, samples_dir, net, lora, *, n: int, steps: int, s_text: float,
                s_align: float, eta: float, clip: float, seed: int, gaussian) -> dict:
        """Shape, range and distinctness of every sample; one guided DDIM replay per condition."""
        images = {}
        for cname, token in self.conditions():
            cdir = os.path.join(samples_dir, cname)
            runs = sorted(os.listdir(cdir)) if os.path.isdir(cdir) else []
            self.expect(len(runs) == n, f"{cname}: {len(runs)} runs, expected {n}")
            if len(runs) != n:
                continue
            imgs = [ref.read_pgm(os.path.join(cdir, r, "sample.pgm")) for r in runs]
            for r, img in zip(runs, imgs):
                self.expect(img.shape == (ref.IMAGE_SIDE, ref.IMAGE_SIDE)
                            and img.min() >= 0.0 and img.max() <= 1.0,
                            f"{cname}/{r}/sample.pgm: shape {img.shape} or range out of [0, 1]")
            distinct = {img.tobytes() for img in imgs}
            self.expect(len(distinct) == len(imgs), f"{cname}: identical runs among {len(imgs)}")
            i = (seed + token) % n
            replay = ref.guided_ddim(net, lora, token, seed + 10_000 * token + i, steps=steps,
                                     s_text=s_text, s_align=s_align, eta=eta, clip=clip,
                                     gaussian=gaussian)
            grey = np.abs(np.round(replay * 255.0) - np.round(imgs[i] * 255.0)).max()
            self.expect(grey <= 1.0, f"{cname}/{runs[i]}: replay differs by {grey:.0f} grey levels")
            images[cname] = imgs
        return images

    # -- localization and metrics -------------------------------------------------

    def maps(self, maps_dir, net, lora, *, steps: int, seed: int, gaussian) -> None:
        """P from M for every eval image; M replayed for one image per condition."""
        replayed = set()
        evals = self._split("eval")
        pick = {cname: (seed + token) % sum(1 for s in evals if s["token"] == token)
                for cname, token in self.conditions()}
        seen: dict[int, int] = {}
        for s in evals:
            base = os.path.join(maps_dir, s["id"])
            (m,) = ref.read_tensors(base + ".m.f64")
            (p,) = ref.read_tensors(base + ".p.f64")
            self.expect(p.min() >= 0.0 and p.max() <= 1.0, f"{s['id']}: P outside [0, 1]")
            err = np.abs(p - ref.probability_map(m)).max()
            self.expect(err <= 1e-12, f"{s['id']}: P differs from blurred min-max of M by {err:.3g}")
            k = seen.get(s["token"], 0)
            seen[s["token"]] = k + 1
            cname = f"{s['category']}_{s['defect']}"
            if k == pick[cname]:
                replayed.add(cname)
                m_ref = ref.deviation_map(net, lora, self._image(s), s["token"], seed,
                                          steps=steps, gaussian=gaussian)
                rel = np.abs(m_ref - m).max() / max(np.abs(m).max(), 1e-300)
                self.expect(rel <= 1e-9, f"{s['id']}: replayed M differs by {rel:.3g} relative")
        self.expect(len(replayed) == len(pick), "deviation map replay missed a condition")

    def eval_metrics(self, eval_dir, maps_dir, sample_images: dict) -> list[dict]:
        """Per-condition AUROC and diversity in metrics.csv against the references."""
        rows = _csv_rows(os.path.join(eval_dir, "metrics.csv"))
        self.expect(len(rows) == len(self.conditions()), f"metrics.csv has {len(rows)} rows")
        for row in rows:
            cname = f"{row['category']}_{row['defect']}"
            scores = []
            for s in self._split("eval"):
                if s["category"] == row["category"] and s["defect"] == row["defect"]:
                    (p,) = ref.read_tensors(os.path.join(maps_dir, s["id"] + ".p.f64"))
                    scores.append(ref.auroc(p, self._image(s, ".mask.pgm") > 0.5))
            err = abs(float(np.mean(scores)) - float(row["auroc"]))
            self.expect(err <= 1e-12, f"{cname}: AUROC differs from the rank-sum reference by {err:.3g}")
            if cname in sample_images:
                err = abs(ref.diversity(sample_images[cname]) - float(row["diversity_proxy"]))
                self.expect(err <= 1e-12, f"{cname}: diversity differs from the reference by {err:.3g}")
        return rows
