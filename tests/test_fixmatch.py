import numpy as np
import pytest

from clusterssl.augment import spec_for
from clusterssl.fixmatch import (
    _LabeledCycler,
    class_distribution,
    labeled_loss_grads,
    pseudo_labels_batch,
    run_epoch,
    unlabeled_loss_grads,
)
from clusterssl.network import Model, softmax_cross_entropy
from clusterssl.optim import EmaState, Sgd
from clusterssl.trainer import TrainConfig


IDENTITY = spec_for("weak", (16,), jitter_strength=0.0, flip_prob=0.0,
                    max_translate_frac=0.0, noise_sigma=0.0)


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
    classes, conf = pseudo_labels_batch(model, u, IDENTITY, 0.1, np.random.default_rng(0))
    f = model.forward(u)
    p = class_distribution(f, 0.1)
    assert np.array_equal(classes, p.argmax(axis=1))
    np.testing.assert_allclose(conf, p.max(axis=1), rtol=1e-15)


def test_labeled_loss_rejects_bad_labels(rng):
    model = Model(16, (8,), 4, rng=rng)
    x = rng.normal(size=(3, 16))
    with pytest.raises(ValueError):
        labeled_loss_grads(model, x, np.array([0, 1, 4]), IDENTITY, 0.1, rng)
    with pytest.raises(ValueError):
        labeled_loss_grads(model, x, np.array([-1, 0, 1]), IDENTITY, 0.1, rng)


def test_unlabeled_equals_labeled_on_identity_views(rng):
    # when weak == strong == identity and every image clears tau, the
    # consistency term is exactly supervised CE against the pseudo-labels
    model = Model(16, (8,), 4, rng=rng)
    u = rng.normal(size=(20, 16))
    classes, conf = pseudo_labels_batch(model, u, IDENTITY, 0.1, np.random.default_rng(0))
    tau = float(min(conf)) * 0.5
    assert 0.0 < tau < 1.0
    loss_u, grads_u, n_conf = unlabeled_loss_grads(
        model, u, IDENTITY, IDENTITY, tau, 0.1, np.random.default_rng(0))
    grads_u = grads_u.copy()  # the model's gradient vector; the next backward overwrites it
    loss_s, grads_s = labeled_loss_grads(model, u, classes, IDENTITY, 0.1,
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
    _, conf = pseudo_labels_batch(model, u, IDENTITY, 0.1, np.random.default_rng(0))
    np.testing.assert_allclose(conf, 0.25, atol=1e-15)
    loss, grads, n = unlabeled_loss_grads(
        model, u, IDENTITY, IDENTITY, 0.95, 0.1, np.random.default_rng(0))
    assert loss == 0.0 and n == 0
    assert not grads.any()


def test_labeled_cycler_balances_passes():
    idx = np.array([3, 7, 11, 19])
    cyc = _LabeledCycler(idx, np.random.default_rng(5))
    got = cyc.take(64)
    assert got.shape == (64,)
    counts = {i: int((got == i).sum()) for i in idx}
    assert all(c == 16 for c in counts.values())  # 16 full reshuffled passes


def test_labeled_cycler_rejects_an_empty_set():
    with pytest.raises(ValueError):
        _LabeledCycler(np.empty(0, dtype=np.int64), np.random.default_rng(5))


def test_run_epoch_step_count_and_stats(rng, monkeypatch):
    steps = []
    step = Sgd.step

    def counted(self, *args):
        steps.append(args)
        step(self, *args)

    monkeypatch.setattr(Sgd, "step", counted)
    model = Model(16, (8,), 4, rng=rng)
    n = 120
    feats = rng.normal(size=(n, 16))
    labels = rng.integers(0, 4, size=n)
    labeled_idx = np.arange(8)
    unlabeled_idx = np.arange(8, n)
    cfg = TrainConfig(mu=2, batch_size=16, lr_ssl=0.01, wd_ssl=0.0)  # chunks of 32 over 112
    opt = Sgd(model.n_params, cfg.momentum)
    ema = EmaState(model.params.copy(), 0.99)
    before = model.params.copy()
    stats = run_epoch(model, feats, labels, labeled_idx, unlabeled_idx,
                      cfg, opt, ema, np.random.default_rng(0))
    assert len(steps) == int(np.ceil(112 / 32))
    assert 0.0 <= stats.mask_rate <= 1.0
    assert np.isfinite(stats.loss_s)
    assert not np.array_equal(model.params, before)
    assert not np.array_equal(ema.shadow, model.params)
