import numpy as np
import pytest

from clusterssl.augment import spec_for
from clusterssl.fixmatch import (
    SslHyper,
    SslPhaseSettings,
    _LabeledCycler,
    class_distribution,
    labeled_loss_grads,
    pseudo_labels_batch,
    run_epoch,
    unlabeled_loss_grads,
)
from clusterssl.network import Model, softmax_cross_entropy
from clusterssl.optim import EmaState, Sgd, SgdConfig


IDENTITY = spec_for("weak", (16,), jitter_strength=0.0, flip_prob=0.0,
                    max_translate_frac=0.0, noise_sigma=0.0)


def test_hyper_validation():
    SslHyper()
    with pytest.raises(ValueError):
        SslHyper(tau=1.0)
    with pytest.raises(ValueError):
        SslHyper(tau=0.0)
    with pytest.raises(ValueError):
        SslHyper(lambda_u=-0.1)
    with pytest.raises(ValueError):
        SslHyper(mu=0)
    with pytest.raises(ValueError):
        SslHyper(batch_size=0)
    with pytest.raises(ValueError):
        SslHyper(logit_temperature=0.0)
    assert SslHyper(mu=7, batch_size=64).unlabeled_batch_size == 448


def test_class_distribution_uniform_row():
    k = 10
    f = np.full((1, k), 1.0 / np.sqrt(k))  # unit norm, no preferred class
    p = class_distribution(f, 0.1)
    assert p.shape == (1, k)
    np.testing.assert_allclose(p, 0.1, rtol=0, atol=1e-15)


def test_class_distribution_one_hot_is_certain():
    # scale k/T = 40 pushes the top score far enough that the cross-entropy
    # against the argmax class underflows to exactly zero in float64
    for k in (4, 10):
        f = np.eye(k)
        p = class_distribution(f, 0.1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        loss, _ = softmax_cross_entropy((k / 0.1) * f, np.arange(k))
        assert loss == 0.0


def test_pseudo_labels_match_distribution(rng):
    model = Model(16, (8,), 4, rng=rng)
    u = rng.normal(size=(12, 16))
    hyper = SslHyper()
    classes, conf = pseudo_labels_batch(model, u, IDENTITY, hyper,
                                        np.random.default_rng(0))
    f, _ = model.forward(u)
    p = class_distribution(f, hyper.logit_temperature)
    assert np.array_equal(classes, p.argmax(axis=1))
    np.testing.assert_allclose(conf, p.max(axis=1), rtol=1e-15)


def test_labeled_loss_rejects_bad_labels(rng):
    model = Model(16, (8,), 4, rng=rng)
    x = rng.normal(size=(3, 16))
    with pytest.raises(ValueError):
        labeled_loss_grads(model, x, np.array([0, 1, 4]), IDENTITY, SslHyper(), rng)
    with pytest.raises(ValueError):
        labeled_loss_grads(model, x, np.array([-1, 0, 1]), IDENTITY, SslHyper(), rng)


def test_unlabeled_equals_labeled_on_identity_views(rng):
    # when weak == strong == identity and every image clears tau, the
    # consistency term is exactly supervised CE against the pseudo-labels
    model = Model(16, (8,), 4, rng=rng)
    u = rng.normal(size=(20, 16))
    probe = SslHyper(tau=0.5)
    classes, conf = pseudo_labels_batch(model, u, IDENTITY, probe,
                                        np.random.default_rng(0))
    tau = float(min(conf)) * 0.5
    assert 0.0 < tau < 1.0
    hyper = SslHyper(tau=tau)
    loss_u, grads_u, n_conf = unlabeled_loss_grads(
        model, u, IDENTITY, IDENTITY, hyper, np.random.default_rng(0))
    loss_s, grads_s = labeled_loss_grads(model, u, classes, IDENTITY, hyper,
                                         np.random.default_rng(0))
    assert n_conf == 20
    assert loss_u == loss_s
    np.testing.assert_array_equal(grads_u, grads_s)


def test_unlabeled_zero_confident(rng):
    # zero weights with a constant head bias make every output the uniform
    # unit vector, so no image can clear the confidence threshold
    model = Model(16, (8,), 4, rng=rng)
    model.set_params(np.zeros(model.n_params))
    model.cluster_head.bias[:] = 1.0
    u = rng.normal(size=(10, 16))
    _, conf = pseudo_labels_batch(model, u, IDENTITY, SslHyper(),
                                  np.random.default_rng(0))
    np.testing.assert_allclose(conf, 0.25, atol=1e-15)
    loss, grads, n = unlabeled_loss_grads(
        model, u, IDENTITY, IDENTITY, SslHyper(tau=0.95), np.random.default_rng(0))
    assert loss == 0.0 and n == 0
    assert not grads.any()


def test_labeled_cycler_balances_passes():
    idx = np.array([3, 7, 11, 19])
    cyc = _LabeledCycler(idx, np.random.default_rng(5))
    got = cyc.take(64)
    assert got.shape == (64,)
    counts = {i: int((got == i).sum()) for i in idx}
    assert all(c == 16 for c in counts.values())  # 16 full reshuffled passes


def test_run_epoch_step_count_and_stats(rng):
    model = Model(16, (8,), 4, rng=rng)
    n = 120
    feats = rng.normal(size=(n, 16))
    labels = rng.integers(0, 4, size=n)
    labeled_idx = np.arange(8)
    unlabeled_idx = np.arange(8, n)
    hyper = SslHyper(mu=2, batch_size=16)  # chunks of 32 over 112 unlabeled
    settings = SslPhaseSettings(
        hyper=hyper, weak_spec=IDENTITY,
        strong_spec=spec_for("strong", (16,)),
        sgd=SgdConfig(0.01, 0.0, 0.9),
    )
    opt = Sgd(model.n_params)
    ema = EmaState(model.get_params(), 0.99)
    before = model.get_params().copy()
    stats = run_epoch(model, feats, labels, labeled_idx, unlabeled_idx,
                      settings, opt, ema, np.random.default_rng(0))
    assert stats.steps == int(np.ceil(112 / 32))
    assert 0.0 <= stats.mask_rate <= 1.0
    assert np.isfinite(stats.loss_s)
    assert not np.array_equal(model.get_params(), before)
    assert not np.array_equal(ema.shadow, model.get_params())
