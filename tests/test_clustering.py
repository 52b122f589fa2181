import numpy as np
import pytest

from clusterssl.assignment import Assignment
from clusterssl.augment import spec_for
from clusterssl.clustering import (
    ClusterBatchPlan,
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
from clusterssl.errors import ConfigurationError, DivergenceError
from clusterssl.network import Model
from clusterssl.optim import EmaState, Sgd
from clusterssl.trainer import TrainConfig


IDENTITY_VEC = spec_for("cluster", (16,), jitter_strength=0.0, flip_prob=0.0,
                        max_translate_frac=0.0, noise_sigma=0.0)


def make_pool(n=40, k=4, alpha=1.0, seed=0):
    return init_target_pool(n, k, alpha, np.random.default_rng(seed))


def test_confidence_rule_formula():
    # confident iff 2 - 2 * max_coordinate < rho; values chosen so every
    # distance is an exact binary fraction and the boundary case is unambiguous
    outputs = np.array([
        [0.9375, 0.0625, 0.0, 0.0],  # distance 0.125 -> confident
        [0.75, 0.25, 0.0, 0.0],      # distance 0.5 -> not
        [0.875, 0.125, 0.0, 0.0],    # distance exactly 0.25 -> not (strict)
    ])
    unassigned = np.zeros(3, dtype=bool)
    idx, classes = confident_pseudo(outputs, unassigned, 0.25)
    assert idx.tolist() == [0]
    assert classes.tolist() == [0]


def test_confident_pseudo_skips_assigned():
    outputs = np.array([[1.0, 0.0], [1.0, 0.0]])
    assigned = np.array([True, False])
    idx, classes = confident_pseudo(outputs, assigned, 1.9)
    assert idx.tolist() == [1] and classes.tolist() == [0]


def test_one_hot():
    t = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(t, [[0, 0, 1], [1, 0, 0]])


def test_pool_balanced_counts():
    for alpha in (1.0, 0.5, 0.3):
        pool = make_pool(n=41, alpha=alpha)
        per = int(alpha * 41) // 4
        assert pool.per_cluster == per
        bound = pool.img_class[pool.img_class != UNASSIGNED]
        assert np.all(np.bincount(bound, minlength=4) == per)
        pool.check_invariants()


def test_pool_init_classes_follow_the_permutation():
    # the first per_cluster drawn images get class 0, the next class 1, ...
    pool = make_pool(n=41, k=4, alpha=0.5, seed=2)
    chosen = np.random.default_rng(2).permutation(41)[:20]
    assert pool.img_class[chosen].tolist() == np.repeat(np.arange(4), 5).tolist()
    assert np.all(np.delete(pool.img_class, chosen) == UNASSIGNED)


@pytest.mark.parametrize("img_class, message", [
    ([0, 0, 1, UNASSIGNED], "binding counts"),  # class 0 bound one time too many
    ([0, UNASSIGNED, UNASSIGNED, UNASSIGNED], "binding counts"),  # class 1 lost
    ([0, 1, 2, UNASSIGNED], "outside"),
    ([0, 1, -2, UNASSIGNED], "outside"),
    ([0, 1, UNASSIGNED], "shape"),
])
def test_pool_invariants_catch_damage(img_class, message):
    pool = TargetPool(n=4, k=2, per_cluster=1, img_class=np.array([0, 1, UNASSIGNED, UNASSIGNED]))
    pool.img_class = np.array(img_class)
    with pytest.raises(AssertionError, match=message):
        pool.check_invariants()


def test_pool_validation():
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        init_target_pool(40, 4, 0.0, np.random.default_rng(0))  # floors to zero
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
    f = model.forward(feats[batch])
    before = pool.img_class[batch].copy()
    changed = assign_batch(pool, plan, f)  # rebinds the pool in place
    pool.check_invariants()
    assert changed == int((pool.img_class[batch] != before).sum())
    counts = np.bincount(pool.img_class[pool.img_class != UNASSIGNED], minlength=3)
    assert np.all(counts == 8)  # every class keeps its count


def test_rebind_counts_only_class_changes():
    # images 0 and 1 both hold class 0; swapping them leaves every class in place
    pool = TargetPool(n=4, k=2, per_cluster=2, img_class=np.array([0, 0, 1, 1]))
    plan = pool.batch_plan(np.array([0, 1]))
    assert pool.rebind(plan, Assignment((1, 0), 0.0)) == 0
    assert pool.img_class.tolist() == [0, 0, 1, 1]
    # crossing classes between images 1 and 2 changes both
    plan = pool.batch_plan(np.array([1, 2]))
    assert pool.rebind(plan, Assignment((1, 0), 0.0)) == 2
    assert pool.img_class.tolist() == [0, 1, 0, 1]


def test_rebind_rejects_stale_plan():
    # one image per class; image 0 starts with class 0
    pool = TargetPool(n=3, k=2, per_cluster=1, img_class=np.array([0, 1, UNASSIGNED]))
    plan = pool.batch_plan(np.array([0]))
    sol = Assignment((0,), 0.0)
    pool.rebind(plan, sol)
    # a wider batch hands class 0 to image 2
    wide = pool.batch_plan(np.array([0, 2]))
    outputs = np.array([[0.0, 1.0], [1.0, 0.0]])
    assign_batch(pool, wide, outputs)
    with pytest.raises(ValueError):
        pool.rebind(plan, sol)  # plan's snapshot no longer matches the pool


def test_assign_batch_empty_plan():
    pool = make_pool(n=8, k=4, alpha=0.5)
    # batch containing only unbound images after detaching everything
    plan = ClusterBatchPlan(image_indices=np.array([], dtype=np.int64),
                            held=np.array([], dtype=np.int64))
    assert assign_batch(pool, plan, np.zeros((0, 4))) == 0


def test_assign_batch_prefers_nearby_targets():
    pool = TargetPool(n=4, k=2, per_cluster=1, img_class=np.array([0, 1, UNASSIGNED, UNASSIGNED]))
    plan = pool.batch_plan(np.array([0, 1]))
    outputs = np.array([[0.1, 0.9], [0.9, 0.1]])  # image 0 looks like class 1
    assert assign_batch(pool, plan, outputs) == 2
    assert pool.img_class.tolist() == [1, 0, UNASSIGNED, UNASSIGNED]


def test_clustering_loss_value_and_empty(rng):
    model = Model(16, (8,), 4, rng=rng)
    feats = rng.normal(size=(3, 16))
    targets = one_hot(np.array([0, 1, 2]), 4)
    loss, grads = clustering_loss(model, feats, targets, IDENTITY_VEC, r=1,
                                  rng=np.random.default_rng(0))
    f = model.forward(feats)
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


def test_rotation_epoch_raises_on_an_overflowed_trunk(rng):
    # a rotation-only forward computes no cluster norms; its logits are checked instead
    model = Model(64, (8, 8), 4, rng=rng)
    model.set_params(model.params * 1e160)  # the second trunk layer overflows to inf
    before = model.params.copy()
    cfg = TrainConfig(batch_size=4)
    opt = Sgd(model.n_params, cfg.momentum)
    ema = EmaState(model.params.copy(), 0.99)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match="rotation"):
        rotation_epoch(model, rng.normal(size=(8, 8, 8)), np.arange(8), cfg, opt, ema, rng)
    assert np.array_equal(model.params.view(np.uint64), before.view(np.uint64))
    assert model._held is None  # the epoch scope is left on the error too


def test_clustering_epoch_runs_and_counts(rng):
    n = 60
    pool = make_pool(n=n, k=4)
    model = Model(16, (16,), 4, rng=rng)
    feats = rng.normal(size=(n, 16))
    cfg = TrainConfig(batch_size=16)
    opt = Sgd(model.n_params, cfg.momentum)
    ema = EmaState(model.params.copy(), 0.99)
    stats = clustering_epoch(pool, model, feats, np.arange(n), cfg, opt, ema, rng)
    pool.check_invariants()
    assert np.isfinite(stats.loss_cluster)
    assert stats.confident_count >= 0


def test_frozen_model_reaches_fixed_point(rng):
    # whole-set batches in a fresh order each pass, as a clustering epoch
    # with batch_size = n draws them, against outputs that never move
    n = 48
    pool = make_pool(n=n, k=4, seed=3)
    model = Model(16, (16,), 4, rng=rng)
    feats = rng.normal(size=(n, 16))
    counts = []
    for _ in range(4):
        order = rng.permutation(n)
        f = model.forward(feats[order])
        counts.append(assign_batch(pool, pool.batch_plan(order), f))
        pool.check_invariants()
    assert counts[-1] == 0  # assignments stabilize once the model stops moving


def test_pool_state_round_trip():
    pool = make_pool(n=30, k=3, alpha=0.6, seed=9)
    back = TargetPool.from_state(pool.to_state())
    back.check_invariants()
    assert np.array_equal(back.img_class, pool.img_class)
    assert (back.n, back.k, back.per_cluster) == (pool.n, pool.k, pool.per_cluster)
