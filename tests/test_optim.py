import tracemalloc

import numpy as np
import pytest

from anomgen.optim import Adam, DivergenceError, adam_step
from anomgen.rng import seeded_gaussian

from oracles import adam_step_allocating


def test_zero_gradient_no_change():
    p = np.array([1.0, -2.0])
    opt = Adam([p], learning_rate=0.1)
    before = p.copy()
    adam_step(opt, grads=[np.zeros(2)])
    assert np.array_equal(p, before)


def test_first_step_magnitude():
    p = np.array(1.0)
    opt = Adam([p], learning_rate=0.1)
    adam_step(opt, grads=[np.array(1.0)])
    # bias-corrected first step moves by ~lr
    assert abs((1.0 - p) - 0.1) < 1e-6


def test_quadratic_convergence():
    p = np.array(1.0)
    opt = Adam([p], learning_rate=0.05)
    for _ in range(100):
        opt.step([2.0 * p])  # d(p^2)/dp
    assert abs(p) < 0.05


def test_non_finite_gradient_rejected_without_update():
    p = np.array([1.0, 2.0])
    opt = Adam([p], learning_rate=0.1)
    before = p.copy()
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        adam_step(opt, grads=[np.array([np.nan, 0.0])])
    assert np.array_equal(p, before)
    assert opt.step_count == 0


def test_shape_mismatch_rejected():
    p = np.zeros(3)
    opt = Adam([p], learning_rate=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(opt, grads=[np.zeros(4)])


def test_state_shapes_and_step_count():
    ps = [np.zeros((2, 3)), np.zeros(5)]
    opt = Adam(ps, learning_rate=0.01)
    for m, p in zip(opt.m, ps):
        assert m.shape == p.shape
    adam_step(opt, grads=[np.ones((2, 3)), np.ones(5)])
    adam_step(opt, grads=[np.ones((2, 3)), np.ones(5)])
    assert opt.step_count == 2


def test_matches_reference_formula():
    # two manual steps against the textbook update
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x = 0.7
    m = v = 0.0
    p = np.array(x)
    opt = Adam([p], learning_rate=lr)
    for t, g in enumerate([0.3, -0.5], start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        adam_step(opt, grads=[np.array(g)])
        assert np.allclose(p, x, atol=1e-15)


def test_adam_wrapper_uses_leaf_grads():
    p = np.array(2.0)
    opt = Adam([p], learning_rate=0.1)
    opt.step([2.0 * p])
    assert p < 2.0  # updated in place: the caller's array is the parameter
    assert opt.step_count == 1


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_in_place_step_matches_allocating_step_bit_for_bit():
    shapes = [(), (1,), (7,), (3, 5), (16, 33), (2, 3, 4)]
    rng = np.random.default_rng(11)
    init = [rng.standard_normal(s) for s in shapes]
    fast = Adam([p.copy() for p in init], learning_rate=3e-3)
    slow = Adam([p.copy() for p in init], learning_rate=3e-3)
    for step in range(1, 31):
        # gradients from 1e-12 to 1e6, with exact zeros
        grads = [rng.standard_normal(s) * 10.0 ** rng.uniform(-12, 6) for s in shapes]
        grads[step % len(shapes)] *= 0.0
        adam_step(fast, grads)
        adam_step_allocating(slow, grads)
        for a, b in zip(fast.params + fast.m + fast.v, slow.params + slow.m + slow.v):
            assert np.array_equal(_bits(a), _bits(b)), step
    assert fast.step_count == slow.step_count == 30


def test_step_allocates_no_parameter_sized_array():
    # the pretrain parameters at the shipped sizes: 256 wide, ten tokens
    shapes = [(256, 256)] * 4 + [(256,)] * 4 + [(10, 256)]
    params = [np.zeros(s) for s in shapes]
    grads = [seeded_gaussian(s, 0, i) for i, s in enumerate(shapes)]
    opt = Adam(params, learning_rate=5e-4)
    adam_step(opt, grads)  # warm
    tracemalloc.start()
    try:
        adam_step(opt, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(p.nbytes for p in params) // 4
