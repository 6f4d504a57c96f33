import numpy as np
import pytest

from anomgen.autodiff import backward, zero_grads
from anomgen.denoiser import (Denoiser, LoraStack, TemporalGate, gate_dims, gate_matrix,
                              load_adapters, load_reference, predict_noise, save_adapters,
                              save_reference, sinusoidal_embedding)
from anomgen.rng import seeded_gaussian

from conftest import directional_derivative, grad_dot, random_direction, warm
from oracles import effective_delta, layer_delta


# -- temporal gate -------------------------------------------------------------


def test_gate_endpoints_and_midpoint():
    g = TemporalGate(k_min=4, k_max=32, T=1000)
    assert gate_dims(g, 1000) == 4
    assert gate_dims(g, 0) == 32
    assert gate_dims(g, 500) == 18


def test_gate_monotone_non_increasing():
    g = TemporalGate(k_min=4, k_max=32, T=1000)
    ks = [gate_dims(g, t) for t in range(1001)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_gate_active_sets_nested():
    g = TemporalGate(k_min=2, k_max=8, T=100)
    for t1, t2 in [(10, 60), (0, 100), (30, 31)]:
        m1, m2 = gate_matrix(g, t1), gate_matrix(g, t2)
        assert np.all(m2 <= m1)  # later timestep's active set is a subset


def test_gate_matrix_pattern():
    g = TemporalGate(k_min=3, k_max=8, T=10)
    m = gate_matrix(g, 10)
    assert np.array_equal(m, [1, 1, 1, 0, 0, 0, 0, 0])
    assert np.array_equal(gate_matrix(g, 0), np.ones(8))


def test_gate_validation():
    with pytest.raises(ValueError):
        TemporalGate(k_min=0, k_max=4, T=10)
    with pytest.raises(ValueError):
        TemporalGate(k_min=5, k_max=4, T=10)


# -- adapters ------------------------------------------------------------------


def test_lora_zero_init_delta():
    adapters = LoraStack([(8, 4), (4, 8)], rank=4, seed=0)
    for B in adapters.B:
        assert np.array_equal(B, np.zeros_like(B))
    assert np.array_equal(layer_delta(adapters, 0, np.ones(4)), np.zeros((8, 4)))


def test_gate_annihilation():
    adapters = LoraStack([(3, 3)], rank=2, seed=1)
    adapters.B[0] = seeded_gaussian((3, 2), 2, 0)
    g = TemporalGate(k_min=1, k_max=2, T=10)
    assert np.array_equal(
        layer_delta(adapters, 0, np.zeros(2)), np.zeros((3, 3)))


def test_effective_delta_rank_one_oracle():
    adapters = LoraStack([(2, 2)], rank=2, seed=0)
    adapters.A[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
    adapters.B[0] = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = TemporalGate(k_min=1, k_max=2, T=10)
    # at t=T only the first rank direction is active: B[:,0] x A[0,:]
    out = effective_delta(adapters, g, 10)
    assert np.array_equal(out, np.outer([1.0, 0.0], [1.0, 2.0]))
    # full mask at t=0 gives the complete product
    assert np.array_equal(effective_delta(adapters, g, 0),
                          adapters.B[0] @ adapters.A[0])


def test_effective_delta_rank_mismatch():
    adapters = LoraStack([(2, 2)], rank=2, seed=0)
    g = TemporalGate(k_min=1, k_max=3, T=10)
    with pytest.raises(ValueError):
        effective_delta(adapters, g, 0)


def test_mask_length_validation():
    adapters = LoraStack([(2, 2)], rank=2, seed=0)
    with pytest.raises(ValueError):
        layer_delta(adapters, 0, np.ones(3))


# -- forward pass --------------------------------------------------------------


def test_zero_adapter_identity(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    z = seeded_gaussian((1, 4), 3, 0)
    for t in (1, 25, 50):
        with_adapters = predict_noise(tiny_model, adapters, z, 1, t, gate=gate)
        without = predict_noise(tiny_model, None, z, 1, t)
        assert np.array_equal(with_adapters, without)


def test_forward_deterministic(tiny_model):
    z = seeded_gaussian((1, 4), 0, 7)
    a = predict_noise(tiny_model, None, z, 2, 9)
    b = predict_noise(tiny_model, None, z, 2, 9)
    assert np.array_equal(a, b)
    assert a.shape == (1, 4)


def test_conditioning_matters(tiny_model):
    z = seeded_gaussian((1, 4), 0, 8)
    outs = [predict_noise(tiny_model, None, z, c, 5) for c in (None, 1, 2)]
    assert not np.array_equal(outs[0], outs[1])
    assert not np.array_equal(outs[1], outs[2])


def test_null_token_row_is_zero(tiny_model):
    assert np.array_equal(tiny_model.cond_table[0], np.zeros(8))


def test_forward_errors(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    z = np.zeros((1, 4))
    with pytest.raises(ValueError, match="token"):
        tiny_model.forward(z, 99, 5)
    with pytest.raises(ValueError, match="latent"):
        tiny_model.forward(np.zeros((1, 5)), 1, 5)
    with pytest.raises(ValueError, match="latent shape mismatch"):
        tiny_model.forward(np.zeros(4), 1, 5)  # a single latent is a 1-row batch
    with pytest.raises(ValueError, match="gate"):
        tiny_model.forward(z, 1, 5, adapters=adapters, gate=None)


def test_time_embedding_shape_and_range():
    e = sinusoidal_embedding(17, 16)
    assert e.shape == (16,)
    assert np.all(np.abs(e) <= 1.0)
    assert not np.array_equal(sinusoidal_embedding(17, 16), sinusoidal_embedding(18, 16))


def test_adapter_gradients_match_finite_differences(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    for layer in range(4):
        adapters.B[layer] = seeded_gaussian(adapters.B[layer].shape, 5, layer) * 0.1
    z = seeded_gaussian((1, 4), 6, 0)
    for seed, t in [(0, 3), (1, 25), (2, 49)]:
        def loss(cache=None):
            return np.mean(tiny_model.forward(z, 1, t, adapters=adapters, gate=gate, cache=cache))

        cache = []
        loss(cache)
        grads = zero_grads(adapters.params)
        backward(tiny_model, cache, np.full((1, 4), 0.25), grads, adapters=adapters)
        direction = random_direction(adapters.params, seed + 77)
        fd = directional_derivative(loss, adapters.params, direction)
        an = grad_dot(grads, direction)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) < 1e-4


@pytest.mark.parametrize("adapted", [False, True])
def test_batch_forward_matches_single_rows(tiny_model, tiny_adapters, adapted):
    adapters, gate = tiny_adapters
    adapters = warm(adapters) if adapted else None
    z = seeded_gaussian((5, 4), 21, 0)
    tokens = [0, 2, 1, 1, 0]
    ts = [1, 50, 17, 0, 33]
    batch = predict_noise(tiny_model, adapters, z, tokens, ts, gate=gate)
    assert batch.shape == (5, 4)
    for row in range(5):
        single = predict_noise(tiny_model, adapters, z[row:row + 1], tokens[row], ts[row],
                               gate=gate)
        assert single.shape == (1, 4)
        assert np.max(np.abs(batch[row] - single[0])) <= 1e-12


def test_shared_token_and_timestep_broadcast(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    warm(adapters)
    z = seeded_gaussian((3, 4), 22, 0)
    shared = predict_noise(tiny_model, adapters, z, 2, 9, gate=gate)
    per_row = predict_noise(tiny_model, adapters, z, [2, 2, 2], [9, 9, 9], gate=gate)
    assert np.array_equal(shared, per_row)
    with pytest.raises(ValueError, match="per latent row"):
        tiny_model.forward(z, [1, 2], 9)
    with pytest.raises(ValueError, match="per latent row"):
        tiny_model.forward(z, 1, [9, 9])


def test_unmerged_forward_matches_merged_weights(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    warm(adapters)
    z = seeded_gaussian((1, 4), 23, 0)
    for t in (0, 12, 37, 50):
        merged = Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)
        for layer, w in enumerate(merged.weights):
            w += effective_delta(adapters, gate, t, layer=layer)
        expect = predict_noise(merged, None, z, 1, t)
        got = predict_noise(tiny_model, adapters, z, 1, t, gate=gate)
        assert np.max(np.abs(got - expect)) <= 1e-12


def test_masked_directions_zero_gradient_in_mixed_t_batch(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters  # k(t) = 1 + floor(3 (50 - t) / 50)
    warm(adapters)
    ts = [50, 40, 30]
    z = seeded_gaussian((3, 4), 24, 0)
    cache = []
    tiny_model.forward(z, [1, 2, 1], ts, adapters=adapters, gate=gate, cache=cache)
    grads = zero_grads(adapters.params)
    backward(tiny_model, cache, np.ones((3, 4)), grads, adapters=adapters)  # d sum / d out
    widest = max(gate_dims(gate, t) for t in ts)
    assert widest == 2
    for layer in range(4):
        ga, gb = grads[layer], grads[4 + layer]
        assert np.all(ga[widest:] == 0.0) and np.all(gb[:, widest:] == 0.0)
        assert np.any(ga[:widest] != 0.0) and np.any(gb[:, :widest] != 0.0)


def test_loaded_checkpoints_are_frozen(tmp_path, tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    warm(adapters)
    save_reference(tmp_path / "ref.ckpt", tiny_model, "linear", 50)
    save_adapters(tmp_path / "ad.ckpt", adapters, gate, "linear", 50, tiny_model)
    model, _, _ = load_reference(tmp_path / "ref.ckpt")
    loaded, lgate, _, _ = load_adapters(tmp_path / "ad.ckpt", model)
    assert all(type(p) is np.ndarray for p in model.params + loaded.params)
    z = seeded_gaussian((2, 4), 25, 0)
    assert type(model.forward(z, 1, 7)) is np.ndarray
    assert type(model.forward(z, 1, 7, adapters=loaded, gate=lgate)) is np.ndarray


def test_reference_weights_not_leaves_when_frozen(tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    z = seeded_gaussian((1, 4), 1, 1)
    before = [p.copy() for p in tiny_model.params]
    cache = []
    tiny_model.forward(z, 1, 10, adapters=adapters, gate=gate, cache=cache)
    grads = zero_grads(adapters.params)
    backward(tiny_model, cache, np.ones((1, 4)), grads, adapters=adapters)
    # one buffer per adapter factor, none for the reference, whose arrays stay as they were
    assert [g.shape for g in grads] == [p.shape for p in adapters.params]
    for p, b in zip(tiny_model.params, before):
        assert np.array_equal(p, b)


# -- checkpoints ---------------------------------------------------------------


def test_reference_checkpoint_roundtrip(tmp_path, tiny_model):
    path = tmp_path / "ref.ckpt"
    save_reference(path, tiny_model, "linear", 50)
    loaded, kind, T = load_reference(path)
    assert (kind, T) == ("linear", 50)
    for a, b in zip(loaded.params, tiny_model.params):
        assert np.array_equal(a, b)


def test_adapter_checkpoint_roundtrip(tmp_path, tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    adapters.B[0] = seeded_gaussian(adapters.B[0].shape, 9, 0)
    path = tmp_path / "ad.ckpt"
    save_adapters(path, adapters, gate, "linear", 50, tiny_model)
    loaded, lgate, kind, T = load_adapters(path, tiny_model)
    assert (kind, T) == ("linear", 50)
    assert (lgate.k_min, lgate.k_max, lgate.T) == (gate.k_min, gate.k_max, 50)
    for a, b in zip(loaded.params, adapters.params):
        assert np.array_equal(a, b)


def test_checkpoint_loaders_draw_no_weights(tmp_path, tiny_model, tiny_adapters, monkeypatch):
    # the checkpoint overwrites every parameter, so initial draws would be discarded
    adapters, gate = tiny_adapters
    save_reference(tmp_path / "ref.ckpt", tiny_model, "linear", 50)
    save_adapters(tmp_path / "ad.ckpt", adapters, gate, "linear", 50, tiny_model)

    def no_draw(*args):
        raise AssertionError("a loader drew initial weights")

    monkeypatch.setattr("anomgen.denoiser.seeded_gaussian", no_draw)
    model, _, _ = load_reference(tmp_path / "ref.ckpt")
    loaded, _, _, _ = load_adapters(tmp_path / "ad.ckpt", model)
    for a, b in zip(model.params + loaded.params, tiny_model.params + adapters.params):
        assert np.array_equal(a, b)


def test_checkpoint_role_mismatch(tmp_path, tiny_model, tiny_adapters):
    adapters, gate = tiny_adapters
    ref_path = tmp_path / "ref.ckpt"
    ad_path = tmp_path / "ad.ckpt"
    save_reference(ref_path, tiny_model, "linear", 50)
    save_adapters(ad_path, adapters, gate, "linear", 50, tiny_model)
    with pytest.raises(ValueError, match="reference"):
        load_reference(ad_path)
    with pytest.raises(ValueError, match="adapter"):
        load_adapters(ref_path, tiny_model)


@pytest.mark.parametrize("keep", [0, 4, 9, 30, 33, 36, 45])
def test_truncated_checkpoint_rejected(tmp_path, tiny_model, keep):
    path = tmp_path / "ref.ckpt"
    save_reference(path, tiny_model, "linear", 50)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="magic|truncated"):
        load_reference(path)


def test_checkpoint_bad_magic(tmp_path, tiny_model):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_reference(path)
