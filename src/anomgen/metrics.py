"""Pixel-level ranking metrics and the diversity proxy.

AUROC uses the rank-sum (Mann-Whitney) formulation with ties counting
one half.  Average precision is the step-interpolated area under the
precision-recall curve over descending unique thresholds.  Diversity is
a plain normalized pixel distance, deliberately not a perceptual metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class ScoredPixels:
    scores: np.ndarray
    labels: np.ndarray

    @staticmethod
    def make(scores, labels) -> "ScoredPixels":
        s = np.asarray(scores, dtype=np.float64).reshape(-1)
        y = np.asarray(labels).reshape(-1).astype(np.int64)
        if s.shape != y.shape:
            raise ValueError("scores/labels length mismatch")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary")
        return ScoredPixels(scores=s, labels=y)


def _check_two_classes(sp: ScoredPixels, metric: str) -> None:
    if sp.labels.min() == sp.labels.max():
        raise ValueError(f"undefined {metric}: single-class labels")


def auroc(sp: ScoredPixels) -> float:
    _check_two_classes(sp, "AUROC")
    s, y = sp.scores, sp.labels
    # 1-based average rank of each score: the last rank of its tie group
    # minus half the group's extra members
    _, inv, counts = np.unique(s, return_inverse=True, return_counts=True, equal_nan=False)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inv]
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _pr_points(sp: ScoredPixels):
    """Precision/recall at each descending unique threshold."""
    order = np.argsort(-sp.scores, kind="stable")
    s = sp.scores[order]
    y = sp.labels[order]
    tp = np.cumsum(y)
    fp = np.cumsum(1 - y)
    last_of_group = np.nonzero(np.diff(s, append=np.nan))[0]
    tp, fp = tp[last_of_group], fp[last_of_group]
    n_pos = int(sp.labels.sum())
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return precision, recall


def average_precision(sp: ScoredPixels) -> float:
    _check_two_classes(sp, "AP")
    precision, recall = _pr_points(sp)
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def f1_max(sp: ScoredPixels) -> float:
    _check_two_classes(sp, "F1")
    precision, recall = _pr_points(sp)
    denom = precision + recall
    f1 = np.where(denom > 0, 2.0 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return float(f1.max())


def diversity_proxy(images) -> float:
    """Mean pairwise RMS pixel distance within one group of images."""
    imgs = [np.asarray(im, dtype=np.float64) for im in images]
    if len(imgs) < 2:
        raise ValueError("diversity needs at least 2 images")
    return float(np.mean([np.sqrt(np.mean((a - b) ** 2)) for a, b in combinations(imgs, 2)]))
