"""Acceptance suite: one numbered, printed pass/fail line per criterion.

The heavyweight fixtures (full pipeline at shipped defaults; the
regularization-strength sweep) run once per session and are shared by
the criteria that consume them.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from anomgen import cli, dataset, localization, pipeline, preference, sampler
from anomgen import schedule as sched, trainer
from anomgen.autodiff import backward, zero_grads
from anomgen.denoiser import (Denoiser, LoraStack, TemporalGate, gate_dims,
                              gate_matrix, predict_noise)
from anomgen.metrics import ScoredPixels, auroc, average_precision, f1_max
from anomgen.rng import seeded_gaussian, seeded_randint, seeded_uniform

import oracles
from conftest import stage_config

# pinned self-oracle anchor: mean eval-split pixel AUROC of the shipped
# default configuration at seed 0, recorded when the pipeline was frozen
ANCHOR_AUROC = 0.8604810225590046

# verdict lines, re-emitted uncaptured in the terminal summary (conftest)
VERDICTS: list[str] = []


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} {status}: {desc}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _warm_adapters(model, T, seed=11, scale=0.1):
    gate = TemporalGate(k_min=1, k_max=4, T=T)
    adapters = LoraStack(model.layer_shapes(), rank=4, seed=1)
    for i in range(len(adapters.B)):
        adapters.B[i] = seeded_gaussian(adapters.B[i].shape, seed, i) * scale
    return adapters, gate


# -- heavyweight shared fixtures ----------------------------------------------


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """Full pipeline at shipped defaults, seed 0: data through metrics."""
    root = tmp_path_factory.mktemp("e2e")
    paths = {k: str(root / k) for k in
             ("data", "pre", "al", "maps", "samples", "eval", "sched")}
    t0 = time.monotonic()
    assert cli.main(["gen-data", "--out", paths["data"]]) == 0
    assert cli.main(["pretrain", "--data", paths["data"], "--out", paths["pre"]]) == 0
    ref = os.path.join(paths["pre"], "reference.ckpt")
    assert cli.main(["align", "--data", paths["data"], "--ref", ref,
                     "--out", paths["al"]]) == 0
    ad = os.path.join(paths["al"], "adapters.ckpt")
    assert cli.main(["localize", "--ref", ref, "--adapters", ad,
                     "--data", paths["data"], "--out", paths["maps"]]) == 0
    assert cli.main(["sample", "--ref", ref, "--adapters", ad,
                     "--out", paths["samples"]]) == 0
    assert cli.main(["eval", "--data", paths["data"], "--maps", paths["maps"],
                     "--out", paths["eval"], "--samples", paths["samples"]]) == 0
    assert cli.main(["inspect-schedule", "--out", paths["sched"]]) == 0
    paths["elapsed"] = time.monotonic() - t0
    paths["ref"] = ref
    paths["adapters"] = ad
    paths["root"] = str(root)
    return paths


@pytest.fixture(scope="session")
def sweep(tmp_path_factory, e2e):
    """Regularization sweep over beta in {500, 1000, 2000}, five seeds."""
    root = tmp_path_factory.mktemp("sweep")
    t0 = time.monotonic()
    outs = []
    for seed in range(5):
        out = str(root / f"seed{seed}")
        assert cli.main(["beta-sweep", "--data", e2e["data"], "--ref", e2e["ref"],
                         "--out", out, "--seed", str(seed)]) == 0
        outs.append(out)
    return {"outs": outs, "elapsed": time.monotonic() - t0}


# -- criterion 1: preference loss at initialization ----------------------------


def test_criterion_1_initial_loss():
    t0 = time.monotonic()
    s = sched.build_schedule(50, "linear")
    model = Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)
    anomalies = [(seeded_gaussian((4,), 100 + i, 0) * 0.5, 1 + i % 2) for i in range(3)]
    cfg = stage_config("align", steps=1, lr=1e-3, seed=0, kmin=1, kmax=4)
    _, _, log = trainer.align(model, anomalies, cfg, s)
    first = log.records[0]["loss"]
    elapsed = time.monotonic() - t0
    ok = abs(first - np.log(2.0)) < 1e-9 and elapsed < 1.0
    _report(1, "first alignment loss equals ln 2 within 1e-9 in under 1 s", ok,
            f"loss={first!r}, |err|={abs(first - np.log(2.0)):.2e}, {elapsed:.2f}s")


# -- criterion 2: analytic gradients vs finite differences ---------------------


def test_criterion_2_gradient_check():
    t0 = time.monotonic()
    s = sched.build_schedule(50, "linear")
    model = Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)
    worst = 0.0

    def fd_vs_grad(loss_fn, params, seed, adapters=None):
        # loss_fn(cache) returns the loss and its gradient w.r.t. the output rows
        cache = []
        _, g_out = loss_fn(cache)
        grads = zero_grads(params)
        backward(model, cache, g_out, grads, adapters=adapters)
        direction = [seeded_gaussian(p.shape, seed, i)
                     for i, p in enumerate(params)]
        h = 1e-5
        for p, d in zip(params, direction):
            p += h * d
        f_plus = loss_fn()[0]
        for p, d in zip(params, direction):
            p -= 2 * h * d
        f_minus = loss_fn()[0]
        for p, d in zip(params, direction):
            p += h * d
        fd = (f_plus - f_minus) / (2 * h)
        an = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
        return abs(fd - an) / max(abs(fd), abs(an), 1e-12)

    # 20 configurations of the denoising loss through the full network
    for k in range(20):
        z = seeded_gaussian((1, 4), 1000 + k, 0)
        eps = seeded_gaussian((1, 4), 1000 + k, 1)
        t = 1 + k % 50
        tok = k % 3

        def sd(cache=None):
            return preference.sd_loss(model.forward(z, tok, t, cache=cache), eps)

        worst = max(worst, fd_vs_grad(sd, model.params, 2000 + k))

    # 20 configurations of the preference loss through adapters and gate
    adapters, gate = _warm_adapters(model, 50)
    for k in range(20):
        z0 = seeded_gaussian((4,), 3000 + k, 0) * 0.5
        eps = seeded_gaussian((4,), 3000 + k, 1)
        t = 1 + (7 * k) % 50
        z_t = sched.forward_noise(s, z0, t, eps)
        eps_ref = predict_noise(model, None, z_t[None], 1, t)
        beta_t = sched.beta_weight(s, 1000.0, t)

        def apo(cache=None):
            d = model.forward(z_t[None], 1, t, adapters=adapters, gate=gate, cache=cache) - eps
            delta = (d * d) @ np.ones(4) - float(np.sum((eps_ref - eps) ** 2))
            loss, g_delta = preference.apo_loss(delta, beta_t)
            g = g_delta[:, None] * d
            return float(np.mean(loss)), g + g

        worst = max(worst, fd_vs_grad(apo, adapters.params, 4000 + k, adapters=adapters))

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(2, "directional gradients match finite differences within 1e-4 "
               "for 20 denoising and 20 preference configurations in under 30 s",
            ok, f"worst rel err={worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: Monte Carlo deviation vs closed form -------------------------


def test_criterion_3_mc_estimator():
    t0 = time.monotonic()
    T = 200
    s = sched.build_schedule(T, "linear")
    n_draws = 10_000
    worst_z = 0.0
    for trial in range(10):
        coeffs = seeded_uniform((4,), 600 + trial, 0)
        a_r, b_r = 0.1 + 0.5 * coeffs[0], 0.4 * coeffs[1] - 0.2
        a_p, b_p = 0.1 + 0.5 * coeffs[2], 0.4 * coeffs[3] - 0.2
        ref = lambda z, c, t: a_r * z + b_r
        pol = lambda z, c, t: a_p * z + b_p
        z0s = [seeded_gaussian((1,), 700 + trial, j) * 0.5 for j in range(2)]
        samples = [(z, 1) for z in z0s]

        # closed form: for an affine predictor a*z_t + b on z_t = alpha z0
        # + sigma eps, the expected squared error over eps is
        # (1 - a sigma)^2 + (a alpha z0 + b)^2; the estimator's mean is
        # the kl-weighted trajectory sum averaged over the sample set
        expect = 0.0
        for z0 in z0s:
            z = float(z0[0])
            for t in range(1, T + 1):
                al, si = s.alpha[t], s.sigma[t]
                err_r = (1 - a_r * si) ** 2 + (a_r * al * z + b_r) ** 2
                err_p = (1 - a_p * si) ** 2 + (a_p * al * z + b_p) ** 2
                expect += 0.5 * abs(oracles.kl_slope(s, t)) * (err_r - err_p)
        expect /= len(z0s)

        mean, se = oracles.mc_deviation_estimate(pol, ref, samples, s,
                                                 n_draws, seed=trial)
        worst_z = max(worst_z, abs(mean - expect) / se)
    elapsed = time.monotonic() - t0
    ok = worst_z < 3.0 and elapsed < 60.0
    _report(3, "Monte Carlo trajectory deviation matches the closed form "
               "within 3 standard errors for 10 seeds at 1e4 draws in under 60 s",
            ok, f"worst |z|={worst_z:.2f}, {elapsed:.1f}s")


# -- criterion 4: guided transition density ------------------------------------


def test_criterion_4_guided_density():
    t0 = time.monotonic()
    T = 200
    s = sched.build_schedule(T, "linear")
    model = Denoiser(latent_dim=1, hidden=8, n_tokens=3, seed=0)
    adapters, gate = _warm_adapters(model, T, scale=0.3)
    worst = 0.0
    for case in range(1000):
        u = seeded_uniform((6,), 800, case)
        t = 1 + int(u[3] * T)
        z_t = seeded_gaussian((1, 1), 801, case)
        z_prev = seeded_gaussian((1, 1), 802, case)
        r = oracles.guided_log_density_check(s, z_t, z_prev, 1 + int(u[4] * 2), t, 8.0 * u[0],
                                            4.0 * u[1], 0.3 + 0.7 * u[2], model, adapters, gate)
        worst = max(worst, abs(r))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(4, "guided transition density residual below 1e-8 across 1000 "
               "random cases in under 10 s", ok,
            f"worst residual={worst:.2e}, {elapsed:.1f}s")


# -- criterion 5: guidance reductions ------------------------------------------


def test_criterion_5_guidance_reductions():
    t0 = time.monotonic()
    model = Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)
    adapters, gate = _warm_adapters(model, 50, scale=0.3)
    ok = True
    for trial in range(100):
        z = seeded_gaussian((1, 4), 900, trial)
        t = 1 + trial % 50
        c = 1 + trial % 2
        e_u = predict_noise(model, None, z, None, t)
        e_c = predict_noise(model, None, z, c, t)
        e_p = predict_noise(model, adapters, z, c, t, gate=gate)
        for scales, expect in (((0.0, 0.0), e_u), ((1.0, 0.0), e_c), ((1.0, 1.0), e_p)):
            out, _ = sampler.guided_eps(model, adapters, gate, z, c, t, *scales)
            ok = ok and np.array_equal(out, expect)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(5, "the three guidance-scale reductions are bit-exact across "
               "100 trials in under 5 s", ok, f"{elapsed:.2f}s")


# -- criterion 6: time-varying adapter capacity --------------------------------


def test_criterion_6_gate():
    t0 = time.monotonic()
    g = TemporalGate(k_min=4, k_max=32, T=1000)
    ks = [gate_dims(g, t) for t in range(1001)]
    ok = ks[1000] == 4 and ks[0] == 32 and ks[500] == 18
    ok = ok and all(a >= b for a, b in zip(ks, ks[1:]))

    # gradients of masked rank directions are exactly zero
    model = Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)
    adapters, gate = _warm_adapters(model, 50)
    z = seeded_gaussian((1, 4), 12, 0)
    t = 50  # only k_min of the 4 rank directions active
    cache = []
    model.forward(z, 1, t, adapters=adapters, gate=gate, cache=cache)
    grads = zero_grads(adapters.params)
    backward(model, cache, np.ones((1, 4)), grads, adapters=adapters)  # d sum / d out
    mask = gate_matrix(gate, t)
    for layer in range(4):
        ga = grads[layer]
        gb = grads[4 + layer]
        for r in range(gate.k_max):
            if mask[r] == 0.0:
                ok = ok and np.all(ga[r] == 0.0) and np.all(gb[:, r] == 0.0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(6, "gate rank is 32/18/4 at t=0/500/1000, monotone non-increasing, "
               "and masked directions get exactly zero gradient in under 5 s",
            ok, f"k(0)={ks[0]}, k(500)={ks[500]}, k(1000)={ks[1000]}, {elapsed:.2f}s")


# -- criterion 7: noise schedule invariants ------------------------------------


def test_criterion_7_schedule():
    t0 = time.monotonic()
    ok = True
    for kind in ("linear", "cosine"):
        s = sched.build_schedule(1000, kind)
        ok = ok and bool(np.all(np.abs(s.alpha**2 + s.sigma**2 - 1.0) < 1e-12))
        ok = ok and bool(np.all(np.diff(s.lam) < 0))
    s = sched.build_schedule(1000, "linear")
    for t in (1, 123, 500, 1000):
        ok = ok and sched.beta_weight(s, 1000.0, t) > 0
        for beta in (1.0, 3.7, 500.0, 777.25):
            ok = ok and (sched.beta_weight(s, 2.0 * beta, t)
                         == 2.0 * sched.beta_weight(s, beta, t))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(7, "signal/noise identity within 1e-12, log-SNR strictly decreasing, "
               "time weight positive and exactly linear in beta in under 1 s",
            ok, f"{elapsed:.2f}s")


# -- criterion 8: metric implementations vs brute-force oracles ----------------


def test_criterion_8_metrics():
    t0 = time.monotonic()
    ok = True

    def pair_oracle(sp):
        pos = sp.scores[sp.labels == 1]
        neg = sp.scores[sp.labels == 0]
        tot = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                  for p in pos for q in neg)
        return tot / (len(pos) * len(neg))

    def threshold_oracle(sp):
        pr = []
        for thr in sorted(set(sp.scores.tolist()), reverse=True):
            pred = sp.scores >= thr
            tp = int(np.sum(pred & (sp.labels == 1)))
            fp = int(np.sum(pred & (sp.labels == 0)))
            pr.append((tp / (tp + fp), tp / int(sp.labels.sum())))
        ap, prev_r, best = 0.0, 0.0, 0.0
        for p, r in pr:
            ap += (r - prev_r) * p
            prev_r = r
            if p + r > 0:
                best = max(best, 2 * p * r / (p + r))
        return ap, best

    for seed in range(1000):
        n = 3 + seed % 8
        scores = np.round(seeded_uniform((n,), seed, 0) * 4) / 4
        labels = seeded_randint(2, (n,), seed, 1)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        sp = ScoredPixels.make(scores, labels)
        ap_o, f1_o = threshold_oracle(sp)
        ok = ok and abs(auroc(sp) - pair_oracle(sp)) < 1e-12
        ok = ok and abs(average_precision(sp) - ap_o) < 1e-12
        ok = ok and abs(f1_max(sp) - f1_o) < 1e-12

    base_scores = seeded_uniform((40,), 5, 0)
    base_labels = seeded_randint(2, (40,), 5, 1)
    base = ScoredPixels.make(base_scores, base_labels)
    a0, p0, f0 = auroc(base), average_precision(base), f1_max(base)
    for k in range(100):
        scale = 0.5 + seeded_uniform((1,), k, 2)[0] * 3.0
        shift = seeded_gaussian((1,), k, 3)[0]
        sp = ScoredPixels.make(np.exp(scale * base.scores + shift), base.labels)
        ok = (ok and abs(auroc(sp) - a0) < 1e-12
              and abs(average_precision(sp) - p0) < 1e-12
              and abs(f1_max(sp) - f0) < 1e-12)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(8, "ranking metrics match brute-force oracles on 1000 small cases "
               "and are invariant under 100 monotone transforms in under 30 s",
            ok, f"{elapsed:.1f}s")


# -- criterion 9: end-to-end quality -------------------------------------------


def test_criterion_9_end_to_end(e2e):
    with open(os.path.join(e2e["eval"], "metrics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    mean_auroc = float(np.mean([float(r["auroc"]) for r in rows]))
    diversity = float(np.mean([float(r["diversity_proxy"]) for r in rows]))
    ref_div = oracles.reference_diversity(e2e["data"])

    model, adapters, gate, s = pipeline.load_aligned(e2e["ref"], e2e["adapters"])
    data = dataset.load_dataset(e2e["data"])
    mean_delta = trainer.evaluate_mean_delta(
        model, adapters, gate, pipeline.anomaly_training_set(data), s, seed=0)

    ok = (mean_auroc >= 0.80
          and abs(mean_auroc - ANCHOR_AUROC) <= 0.02
          and mean_delta < 0.0
          and diversity > 0.5 * ref_div
          and e2e["elapsed"] < 900.0)
    _report(9, "default end-to-end run reaches mean pixel AUROC >= 0.80 at the "
               "pinned anchor, negative mean deviation, and adequate sample "
               "diversity in under 15 min", ok,
            f"auroc={mean_auroc:.4f} (anchor {ANCHOR_AUROC:.4f}), "
            f"mean delta={mean_delta:.3f}, diversity={diversity:.3f} vs "
            f"0.5*ref={0.5 * ref_div:.3f}, {e2e['elapsed']:.0f}s")


# -- criterion 10: regularization-strength sweep -------------------------------


def test_criterion_10_beta_sweep(sweep):
    betas = [500, 1000, 2000]
    inversions = 0
    beta_t_linear = True
    for out in sweep["outs"]:
        with open(os.path.join(out, "beta_sweep.csv")) as fh:
            rows = {float(r["beta"]): abs(float(r["final_mean_delta"]))
                    for r in csv.DictReader(fh)}
        mags = [rows[float(b)] for b in betas]
        inversions += sum(1 for a, b in zip(mags, mags[1:]) if b > a)

        logs = {}
        for b in betas:
            with open(os.path.join(out, f"align_log_beta{b}.csv")) as fh:
                logs[b] = np.array([float(r["beta_t"])
                                    for r in csv.DictReader(fh)])
        beta_t_linear = (beta_t_linear
                         and bool(np.array_equal(2.0 * logs[500], logs[1000]))
                         and bool(np.array_equal(2.0 * logs[1000], logs[2000])))
    ok = beta_t_linear and inversions <= 1 and sweep["elapsed"] < 2700.0
    _report(10, "per-step time weights scale exactly linearly in beta and the "
                "final mean deviation magnitude decreases with beta with at "
                "most one inversion across 5 seeds in under 45 min", ok,
            f"inversions={inversions}, beta_t linear={beta_t_linear}, "
            f"{sweep['elapsed']:.0f}s")


# -- criterion 11: reproducibility from recorded configuration -----------------


def _tree_bytes(root):
    files = {}
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            rel = os.path.relpath(os.path.join(dirpath, n), root)
            with open(os.path.join(dirpath, n), "rb") as fh:
                files[rel] = fh.read()
    return files


def test_criterion_11_rerun_byte_identical(e2e, tmp_path_factory):
    fresh_root = tmp_path_factory.mktemp("rerun")
    ok = True
    details = []
    for stage in ("data", "pre", "al", "maps", "samples", "eval", "sched"):
        fresh = str(fresh_root / stage)
        rc = cli.main([json.loads(open(os.path.join(e2e[stage], "run.json"))
                                  .read())["command"],
                       "--config", os.path.join(e2e[stage], "run.json"),
                       "--out", fresh])
        same = rc == 0
        if same:
            a, b = _tree_bytes(e2e[stage]), _tree_bytes(fresh)
            a.pop("run.json"), b.pop("run.json")  # differs only in "out"
            same = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
        ok = ok and same
        details.append(f"{stage}={'ok' if same else 'DIFF'}")
    _report(11, "every stage rerun from its recorded run.json reproduces its "
                "outputs byte-for-byte", ok, ", ".join(details))
