import numpy as np

from anomgen import preference
from anomgen.autodiff import backward, sigmoid, zero_grads
from anomgen.rng import seeded_gaussian

from conftest import directional_derivative, grad_dot, random_direction, warm
from oracles import sigmoid_branchy

TOKENS = [1, 0, 1, 2]  # a repeated token and the null token
TIMES = [3, 17, 50, 17]


def _grads(model, z, c, t, g, adapters=None, gate=None):
    """Gradients of sum(out * g) over the model's or the adapters' parameters."""
    cache = []
    model.forward(z, c, t, adapters=adapters, gate=gate, cache=cache)
    grads = zero_grads(model.params if adapters is None else adapters.params)
    backward(model, cache, g, grads, adapters=adapters)
    return grads, cache


def test_pretrain_batch_gradient_matches_finite_differences(tiny_model):
    for seed in range(3):
        z = seeded_gaussian((4, 4), 40 + seed, 0)
        eps = seeded_gaussian((4, 4), 40 + seed, 1)

        def loss(cache=None):
            return preference.sd_loss(tiny_model.forward(z, TOKENS, TIMES, cache=cache), eps)

        cache = []
        _, g = loss(cache)
        grads = zero_grads(tiny_model.params)
        backward(tiny_model, cache, g, grads)
        direction = random_direction(tiny_model.params, seed + 500)
        fd = directional_derivative(lambda: loss()[0], tiny_model.params, direction)
        an = grad_dot(grads, direction)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) < 1e-4


def test_adapter_batch_gradient_matches_finite_differences(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    warm(adapters)
    weights = seeded_gaussian((4, 4), 60, 0)
    for seed in range(3):
        z = seeded_gaussian((4, 4), 61 + seed, 0)

        def loss():
            out = tiny_model.forward(z, TOKENS, TIMES, adapters=adapters, gate=gate)
            return float(np.sum(out * weights))

        grads, _ = _grads(tiny_model, z, TOKENS, TIMES, weights, adapters, gate)
        direction = random_direction(adapters.params, seed + 600)
        fd = directional_derivative(loss, adapters.params, direction)
        an = grad_dot(grads, direction)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) < 1e-4


def test_gradients_accumulate_and_zero(tiny_model):
    z = seeded_gaussian((3, 4), 1, 0)
    g = seeded_gaussian((3, 4), 1, 1)
    once, cache = _grads(tiny_model, z, [1, 2, 1], [5, 9, 5], g)
    twice = zero_grads(tiny_model.params)
    backward(tiny_model, cache, g, twice)
    backward(tiny_model, cache, g, twice)
    for a, b in zip(once, twice):
        assert np.allclose(b, 2.0 * a, rtol=1e-14, atol=0.0)
    fresh = zero_grads(tiny_model.params)
    for buf, p in zip(fresh, tiny_model.params):
        assert buf.shape == p.shape and not np.any(buf) and buf is not p


def test_row_gradient_scatter(tiny_model):
    # token 2 appears twice, so its table row receives both rows' gradients
    z = seeded_gaussian((3, 4), 2, 0)
    g = seeded_gaussian((3, 4), 2, 1)
    tokens, ts = [2, 1, 2], [4, 30, 11]
    table = _grads(tiny_model, z, tokens, ts, g)[0][-1]
    per_row = [_grads(tiny_model, z[r:r + 1], tokens[r], ts[r], g[r:r + 1])[0][-1]
               for r in range(3)]
    assert np.all(table[0] == 0.0)  # the null token was not used
    assert np.allclose(table[2], per_row[0][2] + per_row[2][2], rtol=1e-12, atol=0.0)
    assert np.allclose(table[1], per_row[1][1], rtol=1e-12, atol=0.0)


def test_broadcast_gradients(tiny_model, tiny_adapters):
    # a shared token and timestep broadcast over the batch: the same gradients
    # as the token and timestep repeated per row
    adapters, gate = tiny_adapters
    warm(adapters)
    z = seeded_gaussian((3, 4), 3, 0)
    g = seeded_gaussian((3, 4), 3, 1)
    for ad, gt in ((None, None), (adapters, gate)):
        shared = _grads(tiny_model, z, 2, 9, g, ad, gt)[0]
        per_row = _grads(tiny_model, z, [2, 2, 2], [9, 9, 9], g, ad, gt)[0]
        for a, b in zip(shared, per_row):
            assert np.array_equal(a, b)


def test_matmul_gradients(tiny_model, tiny_adapters):
    # last layer, against sums of per-row outer products
    adapters, gate = tiny_adapters
    warm(adapters)
    z = seeded_gaussian((3, 4), 4, 0)
    g = seeded_gaussian((3, 4), 4, 1)
    grads, cache = _grads(tiny_model, z, [1, 2, 1], [50, 20, 0], g)
    h = cache[-1][0]
    assert np.allclose(grads[3], sum(np.outer(g[r], h[r]) for r in range(3)), atol=1e-12)
    assert np.allclose(grads[7], g[0] + g[1] + g[2], atol=1e-12)

    grads, cache = _grads(tiny_model, z, [1, 2, 1], [50, 20, 0], g, adapters, gate)
    mask, (h, u) = cache[0][1], cache[-1][:2]
    g_u = [(adapters.B[3].T @ g[r]) * mask[r] for r in range(3)]
    assert np.allclose(grads[7], sum(np.outer(g[r], u[r]) for r in range(3)), atol=1e-12)
    assert np.allclose(grads[3], sum(np.outer(g_u[r], h[r]) for r in range(3)), atol=1e-12)


def test_sigmoid_matches_branchy_form_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, 709.78, 745.2, tiny, 7 * tiny, 1e-310, 1e308, 1.0, 36.7, 1e-17])
    x = np.concatenate([special, -special])
    assert np.signbit(x[len(special)])  # -0.0 is among the inputs
    # a (16, 256) batch like a hidden layer's pre-activations, at scales 1e-8 to 1e3
    batch = 10.0 ** np.linspace(-8, 3, 16)[:, None] * seeded_gaussian((16, 256), 5, 0)
    for v in (x, batch):
        assert np.array_equal(sigmoid(v).view(np.uint64), sigmoid_branchy(v).view(np.uint64))
