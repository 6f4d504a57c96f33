import numpy as np
import pytest

from anomgen import cli, schedule as sched
from anomgen.denoiser import Denoiser, LoraStack, TemporalGate
from anomgen.rng import seeded_gaussian


@pytest.fixture(scope="session")
def sched_1000():
    return sched.build_schedule(1000, "linear")


@pytest.fixture(scope="session")
def sched_small():
    return sched.build_schedule(50, "linear")


@pytest.fixture()
def tiny_model():
    return Denoiser(latent_dim=4, hidden=8, n_tokens=3, seed=0)


@pytest.fixture()
def tiny_adapters(tiny_model):
    gate = TemporalGate(k_min=1, k_max=4, T=50)
    adapters = LoraStack(tiny_model.layer_shapes(), rank=4, seed=1)
    return adapters, gate


def stage_config(command, **values):
    """The resolved config of a CLI command: its defaults, with the given values set."""
    cfg = {name: default for name, (_typ, default, _domain) in cli._SPECS[command].items()}
    cfg.update(values)
    return cfg


def directional_derivative(loss_fn, params, direction, h=1e-5):
    """Central finite difference of loss_fn along a parameter direction.

    The parameter arrays are moved in place and moved back afterwards.
    """
    for p, d in zip(params, direction):
        p += h * d
    f_plus = float(loss_fn())
    for p, d in zip(params, direction):
        p -= 2.0 * h * d
    f_minus = float(loss_fn())
    for p, d in zip(params, direction):
        p += h * d
    return (f_plus - f_minus) / (2.0 * h)


def grad_dot(grads, direction):
    """Directional derivative from per-parameter gradients."""
    return sum(float(np.sum(g * d)) for g, d in zip(grads, direction))


def warm(adapters, seed=5, scale=0.3):
    """Give every adapter B a nonzero value, so the adapters change the output."""
    for layer in range(len(adapters.B)):
        adapters.B[layer] = seeded_gaussian(adapters.B[layer].shape, seed, layer) * scale
    return adapters


def random_direction(params, seed):
    return [seeded_gaussian(p.shape, seed, i) for i, p in enumerate(params)]


def pytest_terminal_summary(terminalreporter):
    """Re-emit the acceptance verdict lines outside output capture."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
