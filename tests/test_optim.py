import numpy as np
import pytest

from anomgen.autodiff import Tensor, backward, zero_grads
from anomgen.optim import Adam, DivergenceError, adam_step


def test_zero_gradient_no_change():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    before = p.data.copy()
    adam_step(opt, grads=[np.zeros(2)])
    assert np.array_equal(p.data, before)


def test_first_step_magnitude():
    p = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    adam_step(opt, grads=[np.array(1.0)])
    # bias-corrected first step moves by ~lr
    assert abs((1.0 - p.data) - 0.1) < 1e-6


def test_quadratic_convergence():
    p = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([p], learning_rate=0.05)
    for _ in range(100):
        backward(p * p)
        opt.step()
        zero_grads([p])
    assert abs(p.data) < 0.05


def test_non_finite_gradient_rejected_without_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    before = p.data.copy()
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        adam_step(opt, grads=[np.array([np.nan, 0.0])])
    assert np.array_equal(p.data, before)
    assert opt.step_count == 0


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(opt, grads=[np.zeros(4)])


def test_state_shapes_and_step_count():
    ps = [Tensor(np.zeros((2, 3)), requires_grad=True),
          Tensor(np.zeros(5), requires_grad=True)]
    opt = Adam(ps, learning_rate=0.01)
    for m, p in zip(opt.m, ps):
        assert m.shape == p.data.shape
    adam_step(opt, grads=[np.ones((2, 3)), np.ones(5)])
    adam_step(opt, grads=[np.ones((2, 3)), np.ones(5)])
    assert opt.step_count == 2


def test_matches_reference_formula():
    # two manual steps against the textbook update
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x = 0.7
    m = v = 0.0
    p = Tensor(np.array(x), requires_grad=True)
    opt = Adam([p], learning_rate=lr)
    for t, g in enumerate([0.3, -0.5], start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        adam_step(opt, grads=[np.array(g)])
        assert np.allclose(p.data, x, atol=1e-15)


def test_adam_wrapper_uses_leaf_grads():
    p = Tensor(np.array(2.0), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    backward(p * p)
    opt.step()
    assert p.data < 2.0
    assert opt.step_count == 1
