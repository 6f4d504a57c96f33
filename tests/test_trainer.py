import numpy as np
import pytest

from anomgen import schedule as sched, trainer
from anomgen.denoiser import Denoiser, predict_noise
from anomgen.rng import seeded_gaussian
from anomgen.trainer import align, evaluate_mean_delta, pretrain_reference

from conftest import stage_config


@pytest.fixture(scope="module")
def sched_tiny():
    return sched.build_schedule(20, "linear")


def _normal_set(n=4, dim=4):
    return [(seeded_gaussian((dim,), 100 + i, 0) * 0.5, [1, 2]) for i in range(n)]


def _anomaly_set(n=3, dim=4):
    return [(seeded_gaussian((dim,), 200 + i, 0) * 0.5, 1 + i % 2) for i in range(n)]


def _ref(sched_tiny, steps=5):
    cfg = stage_config("pretrain", steps=steps, lr=1e-3, seed=0, batch=1)
    model, _ = pretrain_reference(_normal_set(), cfg, sched_tiny)
    return model, stage_config("align", steps=steps, lr=1e-3, seed=0, kmin=1, kmax=4)


# -- pretraining ---------------------------------------------------------------


def test_pretrain_zero_steps_no_op(sched_tiny):
    cfg = stage_config("pretrain", steps=0, lr=1e-3, seed=0, batch=1)
    model, log = pretrain_reference(_normal_set(), cfg, sched_tiny)
    assert log.records == []
    for p, b in zip(model.params, Denoiser(latent_dim=4, seed=0).params):
        assert np.array_equal(p, b)


def test_pretrain_deterministic(sched_tiny):
    cfg = stage_config("pretrain", steps=5, lr=1e-3, seed=3, batch=1)
    m1, l1 = pretrain_reference(_normal_set(), cfg, sched_tiny)
    m2, l2 = pretrain_reference(_normal_set(), cfg, sched_tiny)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)
    assert l1.records == l2.records


def test_pretrain_reduces_loss(sched_tiny):
    cfg = stage_config("pretrain", steps=200, lr=1e-3, seed=0, batch=4)
    _, log = pretrain_reference(_normal_set(n=2), cfg, sched_tiny)
    losses = log.losses()
    assert losses[-20:].mean() < losses[:20].mean()


def test_pretrain_empty_dataset(sched_tiny):
    cfg = stage_config("pretrain", steps=1, lr=1e-3, batch=1)
    with pytest.raises(ValueError):
        pretrain_reference([], cfg, sched_tiny)


def test_pretrain_batch_loss_matches_single_row_oracle(sched_tiny):
    # the first logged loss, recomputed one sample at a time from the same RNG keys
    cfg = stage_config("pretrain", steps=1, lr=1e-3, seed=4, batch=6, dropout=0.3)
    data = _normal_set()
    _, log = pretrain_reference(data, cfg, sched_tiny)
    model = Denoiser(latent_dim=4, seed=4)
    idx = trainer.seeded_randint(len(data), (6,), 4, trainer._S_IDX)
    ts = 1 + trainer.seeded_randint(sched_tiny.T, (6,), 4, trainer._S_T)
    tok_u = trainer.seeded_uniform((6,), 4, trainer._S_TOK)
    drop = trainer.seeded_uniform((6,), 4, trainer._S_DROP) < 0.3
    losses = []
    for d in range(6):
        z0, tokens = data[idx[d]]
        token = 0 if drop[d] else tokens[min(int(tok_u[d] * len(tokens)), len(tokens) - 1)]
        eps = seeded_gaussian((4,), 4, trainer._PRETRAIN_NOISE + d)
        z_t = sched.forward_noise(sched_tiny, z0, int(ts[d]), eps)
        pred = predict_noise(model, None, z_t[None], token, int(ts[d]))
        losses.append(np.mean((pred - eps) ** 2))
    assert abs(log.records[0]["loss"] - np.mean(losses)) <= 1e-12
    assert log.records[0]["t"] == ts[0]


def test_evaluate_mean_delta_matches_per_draw_oracle(sched_tiny):
    model, cfg = _ref(sched_tiny)
    adapters, gate, _ = align(model, _anomaly_set(), cfg, sched_tiny)
    got = evaluate_mean_delta(model, adapters, gate, _anomaly_set(), sched_tiny, 2)
    n = trainer._EVAL_DRAWS
    ts = 1 + trainer.seeded_randint(sched_tiny.T, (3, n), 2, trainer._S_T + 50)
    deltas = []
    for i, (z0, token) in enumerate(_anomaly_set()):
        for k in range(n):
            t = int(ts[i, k])
            eps = seeded_gaussian((4,), 2, trainer._EVAL_NOISE + i * n + k)
            z_t = sched.forward_noise(sched_tiny, z0, t, eps)[None]
            e_th = predict_noise(model, adapters, z_t, token, t, gate=gate)
            e_ref = predict_noise(model, None, z_t, token, t)
            deltas.append(np.sum((e_th - eps) ** 2) - np.sum((e_ref - eps) ** 2))
    assert got != 0.0
    assert abs(got - np.mean(deltas)) <= 1e-12


# -- alignment -----------------------------------------------------------------


def test_align_first_loss_is_ln2(sched_tiny):
    model, cfg = _ref(sched_tiny)
    _, _, log = align(model, _anomaly_set(), cfg, sched_tiny)
    assert abs(log.records[0]["loss"] - np.log(2.0)) < 1e-9
    assert abs(log.records[0]["delta"]) < 1e-12
    assert abs(log.records[0]["pref_prob"] - 0.5) < 1e-12


def test_align_reference_frozen(sched_tiny):
    model, cfg = _ref(sched_tiny)
    before = [p.copy() for p in model.params]
    align(model, _anomaly_set(), cfg, sched_tiny)
    for p, b in zip(model.params, before):
        assert np.array_equal(p, b)


def test_align_masked_rows_stay_zero(sched_tiny):
    # rank directions never activated by the gate receive exactly zero
    # gradient and keep their zero initialization in B's columns
    model, cfg = _ref(sched_tiny)
    cfg_high = stage_config("align", steps=20, lr=1e-2, seed=0, kmin=1, kmax=4)
    adapters, gate, _ = align(model, _anomaly_set(), cfg_high, sched_tiny)
    # rows of A beyond k(t) for the largest visited t are still touched at
    # lower t, so instead check the invariant through the gate itself:
    # a t=T forward uses only the first k_min directions of each layer
    from anomgen.denoiser import gate_matrix

    mask = gate_matrix(gate, sched_tiny.T)
    assert mask.sum() == cfg_high["kmin"]


def test_align_deterministic_and_beta_t_logged(sched_tiny):
    model, cfg = _ref(sched_tiny)
    a1, g1, l1 = align(model, _anomaly_set(), cfg, sched_tiny)
    a2, g2, l2 = align(model, _anomaly_set(), cfg, sched_tiny)
    for p, q in zip(a1.params, a2.params):
        assert np.array_equal(p, q)
    assert l1.records == l2.records
    for r in l1.records:
        assert r["beta_t"] == sched.beta_weight(sched_tiny, cfg["beta"], r["t"])
        assert r["beta_t"] > 0


def test_align_empty_set(sched_tiny):
    model, cfg = _ref(sched_tiny)
    with pytest.raises(ValueError):
        align(model, [], cfg, sched_tiny)


# -- logging -------------------------------------------------------------------


def test_trainlog_csv_roundtrip(tmp_path, sched_tiny):
    model, cfg = _ref(sched_tiny)
    _, _, log = align(model, _anomaly_set(), cfg, sched_tiny)
    path = tmp_path / "log.csv"
    log.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,delta,beta_t,loss,pref_prob"
    assert len(lines) == 1 + len(log.records)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[4]) == log.records[0]["loss"]


def test_evaluate_mean_delta_zero_adapters(sched_tiny):
    model, cfg = _ref(sched_tiny)
    zero_cfg = stage_config("align", steps=0, lr=1e-3, seed=0, kmin=1, kmax=4)
    adapters, gate, _ = align(model, _anomaly_set(), zero_cfg, sched_tiny)
    assert evaluate_mean_delta(model, adapters, gate, _anomaly_set(), sched_tiny, 0) == 0.0

