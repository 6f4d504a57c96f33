import csv

import numpy as np
import pytest

from anomgen import sampler, schedule as sched
from anomgen.denoiser import LoraStack, TemporalGate
from anomgen.rng import seeded_gaussian
from anomgen.sampler import ddim_step, deviation_run, guided_eps, sample, save_run, visit_schedule

from conftest import stage_config
from oracles import guided_log_density_check


@pytest.fixture(scope="module")
def small():
    return sched.build_schedule(50, "linear")


@pytest.fixture()
def warm_adapters(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    for i in range(len(adapters.B)):
        adapters.B[i] = seeded_gaussian(adapters.B[i].shape, 11, i) * 0.3
    return adapters, gate


# -- guided prediction ---------------------------------------------------------


def test_guided_eps_reductions_bitexact(tiny_model, warm_adapters):
    from anomgen.denoiser import predict_noise

    adapters, gate = warm_adapters
    for trial in range(20):
        z = seeded_gaussian((1, 4), trial, 0)
        t = 1 + trial % 50
        e_u = predict_noise(tiny_model, None, z, None, t)
        e_c = predict_noise(tiny_model, None, z, 1, t)
        e_p = predict_noise(tiny_model, adapters, z, 1, t, gate=gate)
        for scales, expect in (((0.0, 0.0), e_u), ((1.0, 0.0), e_c), ((1.0, 1.0), e_p)):
            out, _ = guided_eps(tiny_model, adapters, gate, z, 1, t, *scales)
            assert np.array_equal(out, expect)


def test_guided_eps_matches_telescoped_form(tiny_model, warm_adapters):
    from anomgen.denoiser import predict_noise

    adapters, gate = warm_adapters
    z = seeded_gaussian((1, 4), 5, 0)
    out, d_align = guided_eps(tiny_model, adapters, gate, z, 1, 10, 4.0, 2.5)
    e_u = predict_noise(tiny_model, None, z, None, 10)
    e_c = predict_noise(tiny_model, None, z, 1, 10)
    e_p = predict_noise(tiny_model, adapters, z, 1, 10, gate=gate)
    assert np.allclose(out, e_u + 4.0 * (e_c - e_u) + 2.5 * (e_p - e_c), atol=1e-12)
    assert np.array_equal(d_align, e_p - e_c)


def test_d_align_recorded_regardless_of_scales(tiny_model, warm_adapters):
    adapters, gate = warm_adapters
    z = seeded_gaussian((1, 4), 6, 0)
    _, d0 = guided_eps(tiny_model, adapters, gate, z, 1, 10, 0.0, 0.0)
    _, d1 = guided_eps(tiny_model, adapters, gate, z, 1, 10, 5.0, 3.0)
    assert np.array_equal(d0, d1)
    assert np.any(d0 != 0.0)


def test_guided_eps_without_adapters_zero_delta(tiny_model):
    z = seeded_gaussian((1, 4), 7, 0)
    _, d = guided_eps(tiny_model, None, None, z, 1, 10, 3.0, 1.5)
    assert np.array_equal(d, np.zeros((1, 4)))


# -- solver --------------------------------------------------------------------


def test_ddim_step_terminal_returns_z0(small):
    z0 = np.array([0.3, -0.4])
    eps = np.array([1.0, -0.5])
    z_t = sched.forward_noise(small, z0, 7, eps)
    out = ddim_step(small, z_t, eps, 7, 0, 0.0, np.inf)
    assert np.allclose(out, z0, atol=1e-12)


def test_ddim_inversion_exact_noise(small):
    # with the true noise, deterministic DDIM follows the analytic path
    z0 = np.array([0.5, -0.2, 0.1])
    eps = seeded_gaussian((3,), 0, 3)
    z = sched.forward_noise(small, z0, 50, eps)
    for t, t_prev in [(50, 40), (40, 25), (25, 10), (10, 1)]:
        z = ddim_step(small, z, eps, t, t_prev, 0.0, np.inf)
        expect = sched.forward_noise(small, z0, t_prev, eps)
        assert np.max(np.abs(z - expect)) < 1e-10


def test_ddim_step_hand_expansion(small):
    z_t = np.array([0.8])
    eps = np.array([0.25])
    t, t_prev = 20, 12
    z0p = (z_t - small.sigma[t] * eps) / small.alpha[t]
    expect = small.alpha[t_prev] * z0p + np.sqrt(1.0 - small.alpha[t_prev] ** 2) * eps
    assert np.allclose(ddim_step(small, z_t, eps, t, t_prev, 0.0, np.inf), expect, atol=1e-14)


def test_ddim_step_z0_clip(small):
    z_t = np.array([50.0])
    eps = np.array([0.0])
    out = ddim_step(small, z_t, eps, 40, 0, 0.0, clip=2.0)
    assert out[0] == 2.0
    out_free = ddim_step(small, z_t, eps, 40, 0, 0.0, clip=np.inf)
    assert out_free[0] > 2.0


# -- schedule of visits --------------------------------------------------------


def test_visit_schedule():
    v = visit_schedule(1000, 100)
    assert v[0] == 1000 and v[-1] == 1
    assert len(v) == 100
    assert all(a > b for a, b in zip(v, v[1:]))
    assert visit_schedule(10, 100) == list(range(10, 0, -1))
    assert visit_schedule(50, 1) == [50]


# -- full sampling -------------------------------------------------------------


def test_sample_deterministic_and_shapes(tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    cfg = stage_config("sample", s_text=2.0, s_align=1.0, steps=10)
    z1, ts1, norms1 = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[5])
    z2, ts2, norms2 = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[5])
    assert len(norms1) == 10 and all(len(step) == 1 for step in norms1)
    assert z1.shape == (1, 4)
    assert ts1 == ts2 == visit_schedule(50, 10)
    assert np.array_equal(z1, z2)
    assert norms1 == norms2
    z3, _, _ = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[6])
    assert not np.array_equal(z1, z3)


@pytest.mark.parametrize("eta", [0.0, 0.6])
def test_sample_batch_matches_single_seed_runs(tiny_model, warm_adapters, small, eta):
    adapters, gate = warm_adapters
    cfg = stage_config("sample", s_text=2.0, s_align=1.0, steps=10, eta=eta)
    z, ts, norms = sample(tiny_model, adapters, gate, 2, cfg, small, seeds=[3, 8])
    for row, seed in enumerate([3, 8]):
        z1, ts1, norms1 = sample(tiny_model, adapters, gate, 2, cfg, small, seeds=[seed])
        assert ts1 == ts
        assert np.max(np.abs(z1[0] - z[row])) <= 1e-12
        assert len(norms1) == len(norms)
        for a, b in zip(norms1, norms):
            assert abs(a[0] - b[row]) <= 1e-12


def test_sample_latents_bounded_by_clip(tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    cfg = stage_config("sample", s_text=2.0, s_align=1.0, steps=10, clip=2.0)
    z, _, _ = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[1, 2, 3])
    assert np.max(np.abs(z)) <= 2.0


def test_sample_zero_adapters_zero_delta(tiny_model, tiny_adapters, small):
    adapters, gate = tiny_adapters  # B still zero-initialized
    cfg = stage_config("sample", steps=5)
    _, ts, norms = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[0, 1])
    assert norms == [[0.0, 0.0]] * len(ts)


def test_deviation_run(tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    z0 = seeded_gaussian((1, 4), 9, 0)
    r1 = list(deviation_run(tiny_model, adapters, gate, z0, 2, 8, small, seed=3))
    r2 = list(deviation_run(tiny_model, adapters, gate, z0, 2, 8, small, seed=3))
    assert [t for t, _ in r1] == [t for t, _ in r2] == visit_schedule(50, 8)
    for (_, a), (_, b) in zip(r1, r2):
        assert a.shape == (1, 4)
        assert np.array_equal(a, b)
    assert any(np.any(d != 0.0) for _, d in r1)


def test_deviation_run_batch_matches_single_rows(tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    z0 = seeded_gaussian((3, 4), 10, 0)
    tokens = [2, 1, 2]
    both = list(deviation_run(tiny_model, adapters, gate, z0, tokens, 8, small, seed=4))
    for row in range(3):
        alone = list(deviation_run(tiny_model, adapters, gate, z0[row:row + 1], tokens[row],
                                   8, small, seed=4))
        assert [t for t, _ in alone] == [t for t, _ in both]
        for (_, a), (_, b) in zip(alone, both):
            assert np.max(np.abs(a[0] - b[row])) <= 1e-12


# -- density check -------------------------------------------------------------


def test_density_check_eta_zero_error(tiny_model, small):
    with pytest.raises(ValueError, match="degenerate"):
        guided_log_density_check(small, np.zeros(4), np.zeros(4), 1, 5, 3.0, 1.5, 0.0,
                                 tiny_model, None, None)


def test_density_check_small_residual(tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    for seed in range(10):
        z_t = seeded_gaussian((1, 4), seed, 0)
        z_prev = seeded_gaussian((1, 4), seed, 1)
        r = guided_log_density_check(small, z_t, z_prev, 1, 5 + seed, 1.0 + seed * 0.5,
                                     0.3 * seed, 0.7, tiny_model, adapters, gate)
        assert abs(r) < 1e-8


# -- persistence ---------------------------------------------------------------


def test_save_load_run_roundtrip(tmp_path, tiny_model, warm_adapters, small):
    # each run directory holds the decoded image and the per-step t and ||delta_align||_2
    adapters, gate = warm_adapters
    cfg = stage_config("sample", steps=6)
    z, ts, norms = sample(tiny_model, adapters, gate, 1, cfg, small, seeds=[2, 7])
    # the first step's norms are those of the delta at the initial noise
    z_init = np.stack([seeded_gaussian((4,), seed, sampler._S_INIT) for seed in (2, 7)])
    _, d = guided_eps(tiny_model, adapters, gate, z_init, 1, ts[0], cfg["s_text"],
                      cfg["s_align"])
    assert norms[0] == [float(np.linalg.norm(d[row])) for row in range(2)]
    save_run(z, ts, norms, [tmp_path / "r0", tmp_path / "r1"], lambda latent: np.zeros((2, 2)))
    for row, name in enumerate(["r0", "r1"]):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["delta_norms.csv",
                                                                       "sample.pgm"]
        with open(tmp_path / name / "delta_norms.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "delta_align_l2"]
        assert [int(r[0]) for r in rows[1:]] == ts
        assert [float(r[1]) for r in rows[1:]] == [step[row] for step in norms]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r0", "r1"]


def test_save_run_writes_image_when_decoding(tmp_path, tiny_model, warm_adapters, small):
    adapters, gate = warm_adapters
    z, ts, norms = sample(tiny_model, adapters, gate, 1, stage_config("sample", steps=3), small,
                          seeds=[4])
    save_run(z, ts, norms, [tmp_path / "r"], decode=lambda latent: np.full((2, 2), 0.5))
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["delta_norms.csv",
                                                                  "sample.pgm"]
