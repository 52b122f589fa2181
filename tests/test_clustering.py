import numpy as np
import pytest

from clusterssl.assignment import Assignment
from clusterssl.augment import spec_for
from clusterssl.clustering import (
    ClusterBatchPlan,
    ClusterPhaseSettings,
    ConfidenceRule,
    TargetPool,
    UNASSIGNED,
    assign_batch,
    clustering_epoch,
    clustering_loss,
    confident_pseudo,
    init_target_pool,
    one_hot,
    rotation_epoch,
    rotnet_pass,
)
from clusterssl.errors import ConfigurationError
from clusterssl.network import Model
from clusterssl.optim import EmaState, Sgd, SgdConfig


IDENTITY_VEC = spec_for("cluster", (16,), jitter_strength=0.0, flip_prob=0.0,
                        max_translate_frac=0.0, noise_sigma=0.0)


def make_pool(n=40, k=4, alpha=1.0, seed=0):
    return init_target_pool(n, k, alpha, np.random.default_rng(seed))


def test_confidence_rule_bounds():
    ConfidenceRule(0.2)
    with pytest.raises(ValueError):
        ConfidenceRule(0.0)
    with pytest.raises(ValueError):
        ConfidenceRule(2.0)


def test_confidence_rule_formula():
    # confident iff 2 - 2 * max_coordinate < rho; values chosen so every
    # distance is an exact binary fraction and the boundary case is unambiguous
    rule = ConfidenceRule(0.25)
    outputs = np.array([
        [0.9375, 0.0625, 0.0, 0.0],  # distance 0.125 -> confident
        [0.75, 0.25, 0.0, 0.0],      # distance 0.5 -> not
        [0.875, 0.125, 0.0, 0.0],    # distance exactly 0.25 -> not (strict)
    ])
    unassigned = np.zeros(3, dtype=bool)
    idx, classes = confident_pseudo(outputs, unassigned, rule)
    assert idx.tolist() == [0]
    assert classes.tolist() == [0]


def test_confident_pseudo_skips_assigned():
    rule = ConfidenceRule(1.9)
    outputs = np.array([[1.0, 0.0], [1.0, 0.0]])
    assigned = np.array([True, False])
    idx, classes = confident_pseudo(outputs, assigned, rule)
    assert idx.tolist() == [1] and classes.tolist() == [0]


def test_one_hot():
    t = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(t, [[0, 0, 1], [1, 0, 0]])


def test_pool_balanced_counts():
    for alpha in (1.0, 0.5, 0.3):
        pool = make_pool(n=41, alpha=alpha)
        per = int(alpha * 41) // 4
        counts = np.bincount(pool.target_class, minlength=4)
        assert np.all(counts == per)
        pool.check_invariants()


def test_pool_validation():
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 4, 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 4, 1.5, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        init_target_pool(3, 4, 1.0, np.random.default_rng(0))  # n < k
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 30, 0.1, np.random.default_rng(0))  # 0 per cluster


def test_assign_rebind_conserves_targets(rng):
    pool = make_pool(n=24, k=3)
    model = Model(16, (8,), 3, rng=rng)
    feats = rng.normal(size=(24, 16))
    batch = np.arange(12)
    plan = pool.batch_plan(batch)
    f, _ = model.forward(feats[batch])
    before = pool.img_to_target[batch].copy()
    changed = assign_batch(pool, plan, f)  # rebinds the pool in place
    pool.check_invariants()
    assert changed == int((pool.img_to_target[batch] != before).sum())
    counts = np.bincount(pool.target_class, minlength=3)
    assert np.all(counts == 8)  # pool composition never changes


def test_rebind_rejects_stale_plan():
    # one target per class; target 0 starts on image 0
    pool = TargetPool(
        n=3, k=2,
        target_class=np.array([0, 1]),
        img_to_target=np.array([0, 1, UNASSIGNED]),
    )
    plan = pool.batch_plan(np.array([0]))
    sol = Assignment((0,), 0.0)
    pool.rebind(plan, sol)
    # a wider batch hands target 0 to image 2
    wide = pool.batch_plan(np.array([0, 2]))
    outputs = np.array([[0.0, 1.0], [1.0, 0.0]])
    assign_batch(pool, wide, outputs)
    with pytest.raises(ValueError):
        pool.rebind(plan, sol)  # plan's snapshot no longer matches the pool


def test_assign_batch_empty_plan():
    pool = make_pool(n=8, k=4, alpha=0.5)
    # batch containing only unbound images after detaching everything
    plan = ClusterBatchPlan(image_indices=np.array([], dtype=np.int64),
                            target_indices=np.array([], dtype=np.int64))
    assert assign_batch(pool, plan, np.zeros((0, 4))) == 0


def test_assign_batch_prefers_nearby_targets():
    pool = TargetPool(
        n=4, k=2,
        target_class=np.array([0, 1]),
        img_to_target=np.array([0, 1, UNASSIGNED, UNASSIGNED]),
    )
    plan = pool.batch_plan(np.array([0, 1]))
    outputs = np.array([[0.1, 0.9], [0.9, 0.1]])  # image 0 looks like class 1
    assign_batch(pool, plan, outputs)
    assert pool.target_class[pool.img_to_target[0]] == 1
    assert pool.target_class[pool.img_to_target[1]] == 0


def test_clustering_loss_value_and_empty(rng):
    model = Model(16, (8,), 4, rng=rng)
    feats = rng.normal(size=(3, 16))
    targets = one_hot(np.array([0, 1, 2]), 4)
    loss, grads = clustering_loss(model, feats, targets, IDENTITY_VEC, r=1,
                                  rng=np.random.default_rng(0))
    f, _ = model.forward(feats)
    want = float(((f - targets) ** 2).sum()) / 3.0
    assert loss == pytest.approx(want, rel=1e-12)
    assert grads.shape == (model.n_params,)
    with pytest.raises(ValueError):
        clustering_loss(model, feats[:0], targets[:0], IDENTITY_VEC, r=1, rng=rng)


def test_replicas_average_the_loss(rng):
    model = Model(16, (8,), 4, rng=rng)
    feats = rng.normal(size=(5, 16))
    targets = one_hot(np.array([0, 1, 2, 3, 0]), 4)
    l1, _ = clustering_loss(model, feats, targets, IDENTITY_VEC, r=1,
                            rng=np.random.default_rng(0))
    l3, _ = clustering_loss(model, feats, targets, IDENTITY_VEC, r=3,
                            rng=np.random.default_rng(0))
    # identity augmentation makes every replica equal
    assert l3 == pytest.approx(l1, rel=1e-12)


def test_rotnet_pass_requires_square_images(rng):
    model = Model(16, (8,), 4, rng=rng)
    with pytest.raises(ConfigurationError):
        rotnet_pass(model, rng.normal(size=(3, 16)))
    loss, grads = rotnet_pass(Model(64, (8,), 4, rng=rng), rng.normal(size=(3, 8, 8)))
    assert np.isfinite(loss) and grads.shape[0] > 0


def test_clustering_epoch_runs_and_counts(rng):
    n = 60
    pool = make_pool(n=n, k=4)
    model = Model(16, (16,), 4, rng=rng)
    feats = rng.normal(size=(n, 16))
    settings = ClusterPhaseSettings(rot_enabled=False, batch_size=16)
    opt = Sgd(model.n_params)
    ema = EmaState(model.get_params(), 0.99)
    stats = clustering_epoch(pool, model, feats, settings, IDENTITY_VEC, opt, ema, rng)
    pool.check_invariants()
    assert np.isfinite(stats.loss_cluster)
    assert stats.confident_count >= 0
    assert 0 <= stats.reassigned_count <= n
    assert np.isnan(stats.loss_rot)  # rotation disabled


def test_frozen_model_reaches_fixed_point(rng):
    n = 48
    pool = make_pool(n=n, k=4, seed=3)
    model = Model(16, (16,), 4, rng=rng)
    feats = rng.normal(size=(n, 16))
    settings = ClusterPhaseSettings(rot_enabled=False, batch_size=n)
    opt = Sgd(model.n_params)
    ema = EmaState(model.get_params(), 0.99)
    counts = []
    for _ in range(4):
        stats = clustering_epoch(pool, model, feats, settings, IDENTITY_VEC, opt, ema, rng,
                                 freeze=True)
        counts.append(stats.reassigned_count)
    assert counts[-1] == 0  # assignments stabilize once the model stops moving
    assert np.array_equal(model.get_params(), ema.shadow * 0 + model.get_params())


def test_rotation_epoch_freeze_keeps_params(rng):
    model = Model(64, (8,), 4, rng=rng)
    before = model.get_params().copy()
    opt = Sgd(model.n_params)
    ema = EmaState(before, 0.99)
    feats = rng.normal(size=(12, 8, 8))
    loss = rotation_epoch(model, feats, ClusterPhaseSettings(batch_size=6), opt, ema, rng,
                          freeze=True)
    assert np.isfinite(loss)
    assert np.array_equal(model.get_params(), before)


def test_pool_state_round_trip():
    pool = make_pool(n=30, k=3, alpha=0.6, seed=9)
    back = TargetPool.from_state(pool.to_state())
    back.check_invariants()
    assert np.array_equal(back.img_to_target, pool.img_to_target)
    assert np.array_equal(back.target_class, pool.target_class)
