import numpy as np
import pytest

from clusterssl.errors import DivergenceError
from clusterssl.network import Model
from clusterssl.optim import EmaState, Sgd


def test_sgd_step_matches_hand_calc(rng):
    model = Model(3, (), 2, rng=rng)
    theta0 = model.params.copy()
    grads = rng.normal(size=theta0.shape)
    opt = Sgd(model.n_params, momentum=0.9)

    opt.step(model, grads, lr=0.5, weight_decay=0.1)
    want = theta0 - 0.5 * (grads + 0.1 * theta0)
    assert np.allclose(model.params, want, atol=1e-12)

    # second step folds momentum into the velocity
    theta1 = model.params.copy()
    opt.step(model, grads, lr=0.5, weight_decay=0.1)
    vel = 0.9 * grads + grads
    want2 = theta1 - 0.5 * (vel + 0.1 * theta1)
    assert np.allclose(model.params, want2, atol=1e-12)


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
        before = model.params.copy()
        Sgd(model.n_params, momentum=0.9).step(model, grads, lr, 0.0)
        norms[lr] = np.linalg.norm(model.params - before)
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


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
def test_in_place_updates_match_the_out_of_place_formulas_bit_for_bit(rng, monkeypatch, block):
    from clusterssl import optim
    from clusterssl.trainer import TrainConfig

    if block is not None:  # many blocks and a partial last one
        monkeypatch.setattr(optim, "BLOCK", block)
    cfg = TrainConfig()
    phases = [(cfg.lr_ssl, cfg.wd_ssl), (cfg.lr_cluster, cfg.wd_cluster)]
    model = Model(6, (9, 7), 3, rng=rng)
    opt = Sgd(model.n_params, cfg.momentum)
    ema = EmaState(model.params, cfg.ema_decay)
    theta, velocity, shadow = model.params.copy(), np.zeros(model.n_params), model.params.copy()
    for step in range(20):
        lr, wd = phases[step % 2]
        grads = rng.normal(size=model.n_params)
        grads[:5] = [0.0, -0.0, 1e-310, -1e-310, 0.0]
        velocity = cfg.momentum * velocity + grads
        theta = theta - lr * (velocity + wd * theta)
        shadow = cfg.ema_decay * shadow + (1.0 - cfg.ema_decay) * theta
        if step % 3 == 0:  # a phase may build its gradient in the step's scratch
            grads = np.multiply(grads, 1.0, out=opt.scratch)
        opt.step(model, grads, lr, wd)
        ema.update(model.params)
        assert np.array_equal(bits(model.params), bits(theta))
        assert np.array_equal(bits(opt.velocity), bits(velocity))
        assert np.array_equal(bits(ema.shadow), bits(shadow))


def test_non_finite_update_leaves_the_parameters_untouched(rng):
    model = Model(3, (4,), 2, rng=rng)
    before = model.params.copy()
    opt = Sgd(model.n_params, momentum=0.9)
    huge = np.full(model.n_params, 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="parameters"):
            opt.step(model, huge, lr=10.0, weight_decay=0.0)
    assert np.array_equal(bits(model.params), bits(before))
    with pytest.raises(DivergenceError, match="gradient"):
        opt.step(model, np.full(model.n_params, np.inf), lr=0.1, weight_decay=0.0)
    assert np.array_equal(bits(model.params), bits(before))


def test_state_vectors_never_share_memory_with_the_parameters(rng):
    model = Model(3, (4,), 2, rng=rng)
    given = rng.normal(size=model.n_params)
    opt = Sgd(model.n_params, 0.9, velocity=given)
    ema = EmaState(model.params, 0.99)
    for _ in range(3):
        for vec in (opt.velocity, opt.scratch, ema.shadow, ema.scratch):
            assert not np.shares_memory(vec, model.params)
        opt.step(model, np.ones(model.n_params), 0.1, 0.0)
        ema.update(model.params)
    assert not np.shares_memory(opt.velocity, given)
    assert not np.shares_memory(opt.scratch, ema.scratch)


def test_sgd_owns_a_copy_of_the_velocity_it_is_given(rng):
    model = Model(3, (), 2, rng=rng)
    given = rng.normal(size=model.n_params)
    opt = Sgd(model.n_params, 0.5, velocity=given)
    assert np.array_equal(opt.velocity, given) and opt.velocity is not given
    kept = given.copy()
    opt.step(model, np.ones(model.n_params), 0.1, 0.0)
    assert np.array_equal(given, kept)
    with pytest.raises(ValueError, match="velocity shape"):
        Sgd(model.n_params, 0.5, velocity=given[:-1])
