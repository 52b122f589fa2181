import numpy as np
import pytest

from clusterssl.errors import DivergenceError
from clusterssl.network import Model
from clusterssl.optim import EmaState, Sgd


def test_sgd_step_matches_hand_calc(rng):
    model = Model(3, (), 2, rng=rng)
    theta0 = model.get_params().copy()
    grads = rng.normal(size=theta0.shape)
    opt = Sgd(model.n_params, momentum=0.9)

    opt.step(model, grads, lr=0.5, weight_decay=0.1)
    want = theta0 - 0.5 * (grads + 0.1 * theta0)
    assert np.allclose(model.get_params(), want, atol=1e-12)

    # second step folds momentum into the velocity
    theta1 = model.get_params().copy()
    opt.step(model, grads, lr=0.5, weight_decay=0.1)
    vel = 0.9 * grads + grads
    want2 = theta1 - 0.5 * (vel + 0.1 * theta1)
    assert np.allclose(model.get_params(), want2, atol=1e-12)


def test_sgd_rejects_non_finite_grads(rng):
    model = Model(3, (), 2, rng=rng)
    opt = Sgd(model.n_params, momentum=0.0)
    bad = np.zeros(model.n_params)
    bad[0] = np.nan
    with pytest.raises(DivergenceError):
        opt.step(model, bad, 0.1, 0.0)


def test_velocity_shared_across_configs(rng):
    # one optimizer carries its velocity across the phases' learning rates
    model = Model(3, (), 2, rng=rng)
    opt = Sgd(model.n_params, momentum=0.5)
    grads = np.ones(model.n_params)
    opt.step(model, grads, 0.1, 0.0)
    assert np.allclose(opt.velocity, 1.0)
    opt.step(model, grads, 0.2, 0.0)
    assert np.allclose(opt.velocity, 1.5)


def test_per_phase_learning_rates_scale_step_norm(rng):
    # same frozen gradient, fresh optimizers: step norms scale as lr ratio
    grads = rng.normal(size=Model(6, (8,), 3, rng=rng).n_params)
    norms = {}
    for lr in (0.03, 0.01):
        model = Model(6, (8,), 3, rng=np.random.default_rng(5))
        before = model.get_params().copy()
        Sgd(model.n_params, momentum=0.9).step(model, grads, lr, 0.0)
        norms[lr] = np.linalg.norm(model.get_params() - before)
    assert norms[0.03] / norms[0.01] == pytest.approx(3.0, rel=1e-12)


def test_ema_update_math():
    ema = EmaState(np.array([1.0, 2.0]), decay=0.9)
    ema.update(np.array([2.0, 4.0]))
    assert np.allclose(ema.shadow, [1.1, 2.2])


def test_ema_decay_zero_tracks_exactly():
    ema = EmaState(np.array([1.0, 1.0]), decay=0.0)
    ema.update(np.array([5.0, -3.0]))
    assert np.array_equal(ema.shadow, [5.0, -3.0])


def test_ema_decay_validation():
    with pytest.raises(ValueError):
        EmaState(np.zeros(2), decay=1.0)
    with pytest.raises(ValueError):
        EmaState(np.zeros(2), decay=-0.1)
