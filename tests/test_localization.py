import numpy as np
import pytest

from anomgen.denoiser import TemporalGate, gate_dims
from anomgen.localization import (accumulate_map, normalize_and_smooth, smooth,
                                  upsample_bilinear)
from anomgen.rng import seeded_gaussian


# -- upsampling ----------------------------------------------------------------


def test_upsample_identity():
    m = seeded_gaussian((4, 4), 0, 0)
    out = upsample_bilinear(m, (4, 4))
    assert np.array_equal(out, m)
    assert out is not m


def test_upsample_2x2_to_2x3_midpoint():
    m = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = upsample_bilinear(m, (2, 3))
    assert np.allclose(out, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])


def test_upsample_exact_on_affine_fields():
    # bilinear with align-corners reproduces a*x + b*y + c exactly
    sy, sx = 5, 7
    y, x = np.mgrid[0:sy, 0:sx]
    m = 0.3 * x + 1.7 * y - 0.4
    ty, tx = 13, 19
    out = upsample_bilinear(m, (ty, tx))
    yy, xx = np.mgrid[0:ty, 0:tx]
    expect = 0.3 * (xx * (sx - 1) / (tx - 1)) + 1.7 * (yy * (sy - 1) / (ty - 1)) - 0.4
    assert np.max(np.abs(out - expect)) < 1e-12


def test_upsample_loop_oracle_4_to_9():
    m = seeded_gaussian((4, 4), 1, 0)
    out = upsample_bilinear(m, (9, 9))
    for ty in range(9):
        for tx in range(9):
            py, px = ty * 3 / 8, tx * 3 / 8
            y0, x0 = min(int(py), 2), min(int(px), 2)
            fy, fx = py - y0, px - x0
            expect = (m[y0, x0] * (1 - fy) * (1 - fx) + m[y0, x0 + 1] * (1 - fy) * fx
                      + m[y0 + 1, x0] * fy * (1 - fx) + m[y0 + 1, x0 + 1] * fy * fx)
            assert abs(out[ty, tx] - expect) < 1e-12


def test_upsample_corners_preserved():
    m = seeded_gaussian((3, 3), 2, 0)
    out = upsample_bilinear(m, (8, 8))
    assert out[0, 0] == m[0, 0]
    assert out[0, -1] == m[0, -1]
    assert out[-1, 0] == m[-1, 0]
    assert out[-1, -1] == m[-1, -1]


def test_upsample_downsample_error():
    with pytest.raises(ValueError):
        upsample_bilinear(np.zeros((4, 4)), (2, 4))


# -- accumulation --------------------------------------------------------------


def _run_with(timesteps, deltas):
    return list(zip(timesteps, [np.asarray(d, dtype=np.float64) for d in deltas]))


def test_accumulate_single_step_oracle():
    g = TemporalGate(k_min=2, k_max=8, T=100)
    d = seeded_gaussian((16,), 3, 0)
    run = _run_with([40], [d])
    out = accumulate_map(run, g, (4, 4))
    expect = gate_dims(g, 40) * np.abs(d).reshape(4, 4)
    assert np.allclose(out, expect, atol=1e-14)


def test_accumulate_two_steps_weighted_mean():
    g = TemporalGate(k_min=1, k_max=4, T=10)
    d1 = np.ones(4)
    d2 = -2.0 * np.ones(4)
    run = _run_with([10, 0], [d1, d2])
    out = accumulate_map(run, g, (2, 2))
    expect = 0.5 * (gate_dims(g, 10) * 1.0 + gate_dims(g, 0) * 2.0) * np.ones((2, 2))
    assert np.allclose(out, expect)


def test_accumulate_with_upsampling():
    g = TemporalGate(k_min=1, k_max=1, T=10)
    run = _run_with([5], [np.array([0.0, 1.0, 0.0, 1.0])])
    out = accumulate_map(run, g, (2, 3))
    assert np.allclose(out, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])


def test_accumulate_empty_error():
    g = TemporalGate(k_min=1, k_max=4, T=10)
    with pytest.raises(ValueError):
        accumulate_map(_run_with([], []), g, (2, 2))
    with pytest.raises(ValueError):
        accumulate_map(iter(()), g, (2, 2))


def test_accumulate_streams_a_one_shot_generator():
    # pairs arrive one at a time and are not revisited; the sum is the list's, bit for bit
    g = TemporalGate(k_min=2, k_max=8, T=100)
    ts = [90, 50, 10]
    deltas = [seeded_gaussian((3, 16), 5, i) for i in range(3)]
    pairs = ((t, d) for t, d in zip(ts, deltas))
    out = accumulate_map(pairs, g, (6, 6))
    assert out.shape == (3, 6, 6)
    assert np.array_equal(out, accumulate_map(_run_with(ts, deltas), g, (6, 6)))
    assert next(pairs, None) is None


# -- smoothing / normalization -------------------------------------------------


def test_smooth_single_interior_one():
    m = np.zeros((5, 5))
    m[2, 2] = 1.0
    out = smooth(m)
    assert abs(out[2, 2] - 4.0 / 16.0) < 1e-15
    assert abs(out[1, 2] - 2.0 / 16.0) < 1e-15
    assert abs(out[1, 1] - 1.0 / 16.0) < 1e-15
    assert out[0, 0] == 0.0
    # mass-preserving away from edges
    assert abs(out.sum() - 1.0) < 1e-12


def test_smooth_constant_preserved():
    m = 0.7 * np.ones((4, 6))
    assert np.allclose(smooth(m), m, atol=1e-15)


def test_normalize_constant_maps_to_zero():
    assert np.array_equal(normalize_and_smooth(3.0 * np.ones((4, 4))), np.zeros((4, 4)))


def test_normalize_range_and_scale_invariance():
    m = seeded_gaussian((8, 8), 4, 0)
    p = normalize_and_smooth(m)
    assert p.min() >= 0.0 and p.max() <= 1.0
    # positive affine reparameterizations cannot change the output
    assert np.allclose(normalize_and_smooth(5.0 * m + 3.0), p, atol=1e-12)


def test_normalize_non_finite_error():
    m = np.zeros((3, 3))
    m[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        normalize_and_smooth(m)
