import numpy as np
import pytest

from anomgen import preference, schedule as sched
from anomgen.preference import (GaussianStep, alignment_deviation,
                                analytic_step_kl_difference, apo_loss,
                                bt_preference_prob, mc_deviation_estimate,
                                posterior_means, sd_loss)
from anomgen.rng import seeded_gaussian


# -- alignment deviation -------------------------------------------------------


def test_deviation_symmetry_zero():
    e = seeded_gaussian((8,), 0, 0)
    a = seeded_gaussian((8,), 0, 1)
    assert alignment_deviation(a, a, e) == 0.0


def test_deviation_direct_arithmetic():
    assert alignment_deviation([1.0, 0.0], [0.0, 0.0], [0.0, 0.0]) == 1.0


def test_deviation_loop_oracle():
    for seed in range(5):
        th = seeded_gaussian((64,), seed, 0)
        rf = seeded_gaussian((64,), seed, 1)
        e = seeded_gaussian((64,), seed, 2)
        expect = sum((th[i] - e[i]) ** 2 - (rf[i] - e[i]) ** 2 for i in range(64))
        assert abs(alignment_deviation(th, rf, e) - expect) < 1e-10


def test_deviation_shape_mismatch():
    with pytest.raises(ValueError):
        alignment_deviation(np.zeros(3), np.zeros(4), np.zeros(3))


# -- preference loss -----------------------------------------------------------


def test_apo_loss_at_zero():
    assert abs(apo_loss(0.0, 12.5) - np.log(2.0)) < 1e-12


def test_apo_loss_closed_forms():
    # beta_t * delta = -ln 3  ->  loss = ln(4/3)
    assert abs(apo_loss(-np.log(3.0), 1.0) - np.log(4.0 / 3.0)) < 1e-12
    # large positive argument -> softplus asymptote
    assert abs(apo_loss(50.0, 1.0) - 50.0) < 1e-9
    # large negative argument stays finite
    assert apo_loss(-1000.0, 1.0) == 0.0


def test_apo_loss_monotone_in_delta():
    deltas = np.linspace(-5, 5, 51)
    losses = [apo_loss(d, 2.0) for d in deltas]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_apo_loss_tensor_path_matches_float():
    ds = np.array([-3.0, -0.1, 0.0, 0.5, 4.0])
    rows, grad = apo_loss(ds, 1.7, grad=True)
    assert rows.shape == grad.shape == (5,)
    for i, d in enumerate(ds):
        assert abs(rows[i] - apo_loss(d, 1.7)) < 1e-12
        # d/dd mean_i softplus(b*d_i) = b * sigmoid(b*d) / n
        expect = 1.7 / (1.0 + np.exp(-1.7 * d)) / len(ds)
        assert abs(grad[i] - expect) < 1e-12
    # one weight per row
    betas = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    rows, grad = apo_loss(ds, betas, grad=True)
    for i, (d, b) in enumerate(zip(ds, betas)):
        assert abs(rows[i] - apo_loss(d, b)) < 1e-12
        assert abs(grad[i] - b / (1.0 + np.exp(-b * d)) / len(ds)) < 1e-12
    _, g1 = apo_loss(0.5, 1.7, grad=True)
    assert abs(float(g1) - 1.7 / (1.0 + np.exp(-1.7 * 0.5))) < 1e-12


def test_sd_loss_examples_and_oracle():
    e = seeded_gaussian((6,), 1, 0)
    assert sd_loss(e, e) == 0.0
    assert sd_loss(np.ones(4), np.zeros(4)) == 1.0
    a = seeded_gaussian((16,), 2, 0)
    b = seeded_gaussian((16,), 2, 1)
    expect = sum((a[i] - b[i]) ** 2 for i in range(16)) / 16
    assert abs(sd_loss(a, b) - expect) < 1e-12
    with pytest.raises(ValueError):
        sd_loss(np.zeros(3), np.zeros(4))


def test_sd_loss_tensor_path():
    a = seeded_gaussian((2, 8), 3, 0)
    b = seeded_gaussian((2, 8), 3, 1)
    out, grad = sd_loss(a, b, grad=True)
    assert out == sd_loss(a, b)
    assert abs(out - np.mean((a - b) ** 2)) < 1e-15
    assert np.allclose(grad, 2.0 * (a - b) / 16.0)


def test_bt_preference_prob():
    assert bt_preference_prob(0.0, 5.0) == 0.5
    assert bt_preference_prob(-1.0, 1.0) > 0.5
    assert abs(bt_preference_prob(-np.log(3.0), 1.0) - 0.75) < 1e-12
    for d in (-7.3, -0.2, 0.0, 1.1, 9.0):
        total = bt_preference_prob(d, 2.0) + bt_preference_prob(-d, 2.0)
        assert abs(total - 1.0) < 1e-12


# -- Gaussian oracles ----------------------------------------------------------


def test_step_kl_difference_examples():
    step = GaussianStep(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                        np.array([1.0, 0.0]), 1.0)
    assert analytic_step_kl_difference(step) == 0.5
    # perfect policy keeps the value non-negative
    mu_q = seeded_gaussian((4,), 0, 0)
    mu_ref = seeded_gaussian((4,), 0, 1)
    assert analytic_step_kl_difference(GaussianStep(mu_q, mu_ref, mu_q, 0.7)) >= 0


def test_step_kl_difference_full_gaussian_oracle():
    # KL between equal-covariance Gaussians: ||mu1 - mu2||^2 / (2 var)
    for seed in range(10):
        mu_q = seeded_gaussian((5,), seed, 0)
        mu_ref = seeded_gaussian((5,), seed, 1)
        mu_th = seeded_gaussian((5,), seed, 2)
        var = 0.1 + float(seeded_gaussian((1,), seed, 3)[0] ** 2)
        kl_ref = np.sum((mu_q - mu_ref) ** 2) / (2 * var)
        kl_th = np.sum((mu_q - mu_th) ** 2) / (2 * var)
        got = analytic_step_kl_difference(GaussianStep(mu_q, mu_ref, mu_th, var))
        assert abs(got - (kl_ref - kl_th)) < 1e-12


def test_step_kl_difference_errors():
    with pytest.raises(ValueError):
        analytic_step_kl_difference(GaussianStep(np.zeros(2), np.zeros(2), np.zeros(2), 0.0))
    with pytest.raises(ValueError):
        analytic_step_kl_difference(GaussianStep(np.zeros(2), np.zeros(3), np.zeros(2), 1.0))


def test_posterior_means_formula(sched_small):
    s = sched_small
    z_t = seeded_gaussian((4,), 0, 0)
    pred = seeded_gaussian((4,), 0, 1)
    for t in (1, 20, 50):
        a_t = s.alpha[t] ** 2 / s.alpha[t - 1] ** 2
        abar = s.alpha[t] ** 2
        expect = (z_t - ((1 - a_t) / np.sqrt(1 - abar)) * pred) / np.sqrt(a_t)
        assert np.allclose(posterior_means(s, z_t, pred, t), expect, atol=1e-14)
    with pytest.raises(ValueError):
        posterior_means(s, z_t, pred, 0)


def test_sign_consistency(sched_small):
    # policy closer to the true noise <=> positive KL improvement
    s = sched_small
    for seed in range(10):
        z0 = seeded_gaussian((3,), seed, 0)
        eps = seeded_gaussian((3,), seed, 1)
        t = 1 + int(seeded_gaussian((1,), seed, 2)[0] ** 2 * 10) % s.T
        z_t = sched.forward_noise(s, z0, t, eps)
        e_th = eps + 0.1 * seeded_gaussian((3,), seed, 3)
        e_rf = eps + 0.5 * seeded_gaussian((3,), seed, 4)
        delta = alignment_deviation(e_th, e_rf, eps)
        step = GaussianStep(posterior_means(s, z_t, eps, t),
                            posterior_means(s, z_t, e_rf, t),
                            posterior_means(s, z_t, e_th, t),
                            sched.posterior_variance(s, t))
        kl_diff = analytic_step_kl_difference(step)
        if delta != 0.0:
            assert (delta < 0) == (kl_diff > 0)


def test_per_draw_kl_identity(sched_small):
    # half the exact weight times the error difference equals the
    # analytic per-step KL difference after the posterior-mean mapping
    s = sched_small
    for seed in range(5):
        z0 = seeded_gaussian((2,), seed, 0)
        eps = seeded_gaussian((2,), seed, 1)
        t = 1 + seed * 9
        z_t = sched.forward_noise(s, z0, t, eps)
        e_rf = 0.4 * z_t + 0.1
        e_th = 0.7 * z_t - 0.2
        lhs = 0.5 * abs(sched.kl_slope(s, t)) * (
            np.sum((eps - e_rf) ** 2) - np.sum((eps - e_th) ** 2))
        step = GaussianStep(posterior_means(s, z_t, eps, t),
                            posterior_means(s, z_t, e_rf, t),
                            posterior_means(s, z_t, e_th, t),
                            sched.posterior_variance(s, t))
        rhs = analytic_step_kl_difference(step)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# -- Monte Carlo estimator -----------------------------------------------------


def test_mc_identical_networks_exact_zero(sched_small):
    net = lambda z, c, t: 0.3 * z + 0.1
    samples = [(np.array([0.5]), 1)]
    mean, se = mc_deviation_estimate(net, net, samples, sched_small, 100, seed=0)
    assert mean == 0.0
    assert se == 0.0


def test_mc_validation(sched_small):
    net = lambda z, c, t: z
    with pytest.raises(ValueError):
        mc_deviation_estimate(net, net, [(np.zeros(1), 1)], sched_small, 1, 0)
    with pytest.raises(ValueError):
        mc_deviation_estimate(net, net, [], sched_small, 10, 0)


def test_mc_standard_error_scaling(sched_small):
    ref = lambda z, c, t: 0.2 * z
    pol = lambda z, c, t: 0.5 * z + 0.1
    samples = [(np.array([0.7]), 1)]
    ses_small, ses_big = [], []
    for seed in range(8):
        _, se1 = mc_deviation_estimate(pol, ref, samples, sched_small, 500, seed)
        _, se2 = mc_deviation_estimate(pol, ref, samples, sched_small, 1000, seed + 100)
        ses_small.append(se1)
        ses_big.append(se2)
    ratio = np.mean(ses_small) / np.mean(ses_big)
    assert 1.2 < ratio < 1.7  # ~ sqrt(2)


def test_mc_deterministic(sched_small):
    ref = lambda z, c, t: 0.2 * z
    pol = lambda z, c, t: 0.5 * z + 0.1
    samples = [(np.array([0.7]), 1)]
    a = mc_deviation_estimate(pol, ref, samples, sched_small, 200, 42)
    b = mc_deviation_estimate(pol, ref, samples, sched_small, 200, 42)
    assert a == b
