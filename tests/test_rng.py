import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen.rng import seeded_gaussian, seeded_randint, seeded_uniform


def test_gaussian_deterministic():
    a = seeded_gaussian((2,), 7, 0)
    b = seeded_gaussian((2,), 7, 0)
    assert np.array_equal(a, b)


def test_gaussian_moments():
    g = seeded_gaussian((1_000_000,), 1, 0)
    assert abs(g.mean()) < 4e-3
    assert abs(g.var() - 1.0) < 6e-3


def test_gaussian_empty_shape_rejected():
    with pytest.raises(ValueError):
        seeded_gaussian((), 0, 0)


def test_gaussian_zero_sized():
    out = seeded_gaussian((0, 3), 0, 0)
    assert out.shape == (0, 3)


def test_gaussian_prefix_stability():
    # the first n values do not depend on how many are requested
    a = seeded_gaussian((10,), 3, 5)
    b = seeded_gaussian((4,), 3, 5)
    # Box-Muller pairs values (i, i+m); only identical shapes must agree
    assert np.array_equal(a, seeded_gaussian((10,), 3, 5))
    assert np.array_equal(b, seeded_gaussian((4,), 3, 5))


@pytest.mark.parametrize("shape", [(1,), (7,), (256,), (16, 16), (5, 3)])
@pytest.mark.parametrize("ids", [[3], list(range(1_000_000, 1_000_016))])
def test_gaussian_stream_array_matches_stacked_scalar_calls(shape, ids):
    rows = seeded_gaussian(shape, 17, np.array(ids))
    stacked = np.stack([seeded_gaussian(shape, 17, i) for i in ids])
    assert rows.shape == (len(ids),) + shape
    assert np.array_equal(rows.view(np.uint64), stacked.view(np.uint64))
    # a sequence of seeds, Python ints of any size taken mod 2^64 as a scalar seed is
    seeds = ids + [2**64 + ids[0], -ids[0], 10**340 + ids[-1]]
    rows = seeded_gaussian(shape, seeds, 5100)
    stacked = np.stack([seeded_gaussian(shape, seed, 5100) for seed in seeds])
    assert rows.shape == (len(seeds),) + shape
    assert np.array_equal(rows.view(np.uint64), stacked.view(np.uint64))
    assert np.array_equal(rows[len(ids)], rows[0])  # 2^64 + s wraps to s


def test_gaussian_empty_stream_array():
    assert seeded_gaussian((4,), 0, np.arange(0)).shape == (0, 4)


def test_streams_independent():
    a = seeded_gaussian((100,), 0, 1)
    b = seeded_gaussian((100,), 0, 2)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.3


def test_seeds_independent():
    a = seeded_gaussian((100,), 10, 0)
    b = seeded_gaussian((100,), 11, 0)
    assert not np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = seeded_uniform((100_000,), 2, 0)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3


def test_uniform_shape():
    assert seeded_uniform((3, 4), 0, 0).shape == (3, 4)


def test_randint_bounds():
    r = seeded_randint(7, (10_000,), 5, 3)
    assert r.min() >= 0
    assert r.max() <= 6
    # every value appears for a healthy generator
    assert set(np.unique(r)) == set(range(7))


def test_randint_invalid():
    with pytest.raises(ValueError):
        seeded_randint(0, (3,), 0, 0)


def test_gaussian_finite():
    g = seeded_gaussian((10_000,), 9, 9)
    assert np.all(np.isfinite(g))


@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 2**63 - 1),
       n=st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_gaussian_pure_function(seed, stream, n):
    a = seeded_gaussian((n,), seed, stream)
    b = seeded_gaussian((n,), seed, stream)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


@given(seed=st.integers(0, 2**32), stream=st.integers(0, 2**32), n=st.integers(1, 32))
@settings(max_examples=50, deadline=None)
def test_uniform_pure_function(seed, stream, n):
    a = seeded_uniform((n,), seed, stream)
    assert np.array_equal(a, seeded_uniform((n,), seed, stream))
    assert np.all((a >= 0.0) & (a < 1.0))
