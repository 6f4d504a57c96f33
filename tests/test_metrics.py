import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen.dataset import generate_dataset, load_dataset
from anomgen.metrics import (ScoredPixels, auroc, average_precision, diversity_proxy,
                             f1_max)
from anomgen.rng import seeded_gaussian, seeded_randint, seeded_uniform

from oracles import reference_diversity


def _pairs(seed, n):
    scores = np.round(seeded_uniform((n,), seed, 0) * 4) / 4  # coarse grid forces ties
    labels = seeded_randint(2, (n,), seed, 1)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return ScoredPixels.make(scores, labels)


# -- brute-force oracles -------------------------------------------------------


def _auroc_pair_oracle(sp):
    """Probability a random positive outranks a random negative, ties half."""
    pos = sp.scores[sp.labels == 1]
    neg = sp.scores[sp.labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _threshold_metrics_oracle(sp):
    """Exhaustive sweep over the observed score values."""
    pr = []
    for thr in sorted(set(sp.scores.tolist()), reverse=True):
        pred = sp.scores >= thr
        tp = int(np.sum(pred & (sp.labels == 1)))
        fp = int(np.sum(pred & (sp.labels == 0)))
        pr.append((tp / (tp + fp), tp / int(sp.labels.sum())))
    ap, prev_r, best_f1 = 0.0, 0.0, 0.0
    for p, r in pr:
        ap += (r - prev_r) * p
        prev_r = r
        if p + r > 0:
            best_f1 = max(best_f1, 2 * p * r / (p + r))
    return ap, best_f1


def test_auroc_against_pair_oracle():
    for seed in range(1000):
        n = 3 + seed % 8
        sp = _pairs(seed, n)
        assert abs(auroc(sp) - _auroc_pair_oracle(sp)) < 1e-12


def test_ap_and_f1_against_threshold_oracle():
    for seed in range(1000):
        n = 3 + seed % 8
        sp = _pairs(seed, n)
        ap, f1 = _threshold_metrics_oracle(sp)
        assert abs(average_precision(sp) - ap) < 1e-12
        assert abs(f1_max(sp) - f1) < 1e-12


def test_rank_metrics_invariant_to_monotone_transforms():
    base = _pairs(7, 40)
    a0, p0, f0 = auroc(base), average_precision(base), f1_max(base)
    for k in range(100):
        scale = 0.5 + seeded_uniform((1,), k, 2)[0] * 3.0
        shift = seeded_gaussian((1,), k, 3)[0]
        # strictly increasing map: affine then exp keeps the order and ties
        s = np.exp(scale * base.scores + shift)
        sp = ScoredPixels.make(s, base.labels)
        assert abs(auroc(sp) - a0) < 1e-12
        assert abs(average_precision(sp) - p0) < 1e-12
        assert abs(f1_max(sp) - f0) < 1e-12


# -- closed-form examples ------------------------------------------------------


def test_auroc_known_values():
    assert auroc(ScoredPixels.make([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0
    assert auroc(ScoredPixels.make([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])) == 0.0
    assert auroc(ScoredPixels.make([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0])) == 0.5
    # pairwise: three clean wins plus one tie counted half -> 3.5/4
    assert abs(auroc(ScoredPixels.make([0.9, 0.5, 0.5, 0.1], [1, 0, 1, 0])) - 0.875) < 1e-12


def test_auroc_complement_symmetry():
    for seed in range(20):
        sp = _pairs(seed, 12)
        flipped = ScoredPixels.make(-sp.scores, sp.labels)
        assert abs(auroc(sp) + auroc(flipped) - 1.0) < 1e-12


def test_average_precision_perfect_and_uniform():
    assert average_precision(ScoredPixels.make([0.9, 0.8, 0.2], [1, 1, 0])) == 1.0
    # all-tied scores: single threshold, precision = prevalence
    sp = ScoredPixels.make([0.5] * 10, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0])
    assert abs(average_precision(sp) - 0.2) < 1e-12


def test_f1_max_known_value():
    # best threshold keeps everything: p = 3/4, r = 1 -> f1 = 6/7
    sp = ScoredPixels.make([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 1])
    assert abs(f1_max(sp) - 6.0 / 7.0) < 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        ScoredPixels.make([0.1], [0, 1])
    single = ScoredPixels.make([0.1, 0.2], [1, 1])
    for fn in (auroc, average_precision, f1_max):
        with pytest.raises(ValueError, match="single-class"):
            fn(single)


# -- diversity -----------------------------------------------------------------


def test_diversity_two_image_oracle():
    a = np.zeros((4, 4))
    b = np.ones((4, 4))
    assert diversity_proxy([a, b]) == 1.0
    assert diversity_proxy([a, a]) == 0.0


def test_diversity_three_image_loop_oracle():
    imgs = [seeded_gaussian((8, 8), 0, i) for i in range(3)]
    expect = np.mean([np.sqrt(np.mean((imgs[i] - imgs[j]) ** 2))
                      for i in range(3) for j in range(i + 1, 3)])
    assert abs(diversity_proxy(imgs) - expect) < 1e-12


def test_diversity_group_average(tmp_path):
    # the reference diversity of criterion 9 weights every condition equally
    generate_dataset(tmp_path, seed=0, n_normal=1, n_anomaly=3, fraction=0.5)
    refs = load_dataset(tmp_path)["reference"]
    per_condition = [diversity_proxy([s.image for s in refs if s.token == k]) for k in range(1, 10)]
    assert reference_diversity(tmp_path) == np.mean(per_condition)


# -- property tests ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=30), st.randoms())
def test_auroc_bounded_and_matches_oracle(scores, rnd):
    labels = [rnd.randint(0, 1) for _ in scores]
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    sp = ScoredPixels.make(scores, labels)
    a = auroc(sp)
    assert 0.0 <= a <= 1.0
    assert abs(a - _auroc_pair_oracle(sp)) < 1e-12
