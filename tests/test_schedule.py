import numpy as np
import pytest

from anomgen import schedule as sched

import oracles


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_unit_signal_noise_identity(kind):
    s = sched.build_schedule(1000, kind)
    assert np.all(np.abs(s.alpha**2 + s.sigma**2 - 1.0) < 1e-12)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_lambda_strictly_decreasing(kind):
    s = sched.build_schedule(1000, kind)
    assert np.all(np.diff(s.lam) < 0)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_alpha_non_increasing_and_first_step(kind):
    s = sched.build_schedule(1000, kind)
    assert np.all(np.diff(s.alpha) <= 0)
    assert s.alpha[0] >= 0.999


def test_linear_first_step_value():
    s = sched.build_schedule(1000, "linear")
    assert abs(s.alpha[0] ** 2 - (1.0 - 1e-4)) < 1e-15


def test_linear_cumulative_product_oracle():
    T = 10
    s = sched.build_schedule(T, "linear")
    # independent brute-force product of per-step variances
    prod = 1.0
    for t in range(6):
        var = 1e-4 + (2e-2 - 1e-4) * t / T
        prod *= 1.0 - var
    assert abs(s.alpha[5] - np.sqrt(prod)) < 1e-14


def test_build_schedule_errors():
    with pytest.raises(ValueError):
        sched.build_schedule(1, "linear")


def test_forward_noise():
    s = sched.build_schedule(10, "linear")
    z0 = np.array([1.0, -1.0])
    eps = np.array([0.5, 0.5])
    z = sched.forward_noise(s, z0, 3, eps)
    assert np.allclose(z, s.alpha[3] * z0 + s.sigma[3] * eps)
    assert np.allclose(sched.forward_noise(s, np.zeros(2), 3, eps), s.sigma[3] * eps)
    with pytest.raises(ValueError):
        sched.forward_noise(s, z0, 3, np.zeros(3))


def test_log_snr_slope_recomputation_oracle():
    s = sched.build_schedule(100, "linear")
    lam = np.log(s.alpha**2 / s.sigma**2)
    assert abs(sched.log_snr_slope(s, 50) - (lam[50] - lam[49])) < 1e-12


def test_log_snr_slope_negative_everywhere():
    s = sched.build_schedule(200, "linear")
    assert all(sched.log_snr_slope(s, t) < 0 for t in range(1, 201))


def test_log_snr_slope_t0_error():
    s = sched.build_schedule(10, "linear")
    with pytest.raises(ValueError, match="outside"):
        sched.log_snr_slope(s, 0)


def test_beta_weight_positive_and_formula(sched_1000):
    s = sched_1000
    for t in (1, 500, 1000):
        bt = sched.beta_weight(s, 1000.0, t)
        assert bt > 0
        assert abs(bt - (-0.5 * 1000.0 * sched.log_snr_slope(s, t))) < 1e-12


def test_beta_weight_linearity_bitexact(sched_1000):
    s = sched_1000
    for beta in (1.0, 3.7, 500.0, 1234.5):
        for t in (1, 250, 999):
            assert sched.beta_weight(s, 2.0 * beta, t) == 2.0 * sched.beta_weight(s, beta, t)


def test_beta_weight_errors(sched_1000):
    with pytest.raises(ValueError, match="outside"):
        sched.beta_weight(sched_1000, 1000.0, 0)
    with pytest.raises(ValueError, match="outside"):
        sched.beta_weight(sched_1000, 1000.0, 1001)


def test_step_and_cumulative_signal(sched_small):
    s = sched_small
    for t in (1, 10, 50):
        assert abs(oracles.step_signal(s, t) - s.alpha[t] ** 2 / s.alpha[t - 1] ** 2) < 1e-15
        assert abs(oracles.cumulative_signal(s, t) - s.alpha[t] ** 2) < 1e-15


def test_posterior_variance_oracle(sched_small):
    s = sched_small
    for t in (1, 10, 50):
        abar_t = s.alpha[t] ** 2
        abar_prev = s.alpha[t - 1] ** 2
        a_t = abar_t / abar_prev
        expect = (1.0 - a_t) * (1.0 - abar_prev) / (1.0 - abar_t)
        assert abs(oracles.posterior_variance(s, t) - expect) < 1e-15
        assert oracles.posterior_variance(s, t) > 0


def test_kl_slope_positive_and_formula(sched_small):
    s = sched_small
    for t in (1, 25, 50):
        a_t = oracles.step_signal(s, t)
        expect = (1.0 - a_t) ** 2 / (
            oracles.posterior_variance(s, t) * a_t * (1.0 - s.alpha[t] ** 2))
        w = oracles.kl_slope(s, t)
        assert w > 0
        assert abs(w - expect) < 1e-15


def test_timestep_range_checks(sched_small):
    with pytest.raises(ValueError):
        sched.forward_noise(sched_small, np.zeros(1), 51, np.zeros(1))
    with pytest.raises(ValueError):
        oracles.step_signal(sched_small, 0)


def test_schedule_table(sched_small):
    rows = sched.schedule_table(sched_small, beta=1000.0)
    assert len(rows) == 51
    t0 = rows[0]
    assert t0[4] is None and t0[5] is None
    for row in rows[1:]:
        t = row[0]
        assert row[4] == sched.log_snr_slope(sched_small, t)
        assert row[5] == sched.beta_weight(sched_small, 1000.0, t)
