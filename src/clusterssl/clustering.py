"""Balanced-target clustering phase.

The pool binds floor(alpha*n/K) images to each cluster; a bound image's
target is its cluster's one-hot vector. Each batch re-pairs its bound
classes with its images through the assignment solver, so every class keeps
its count. Unbound images near a one-hot corner get transient pseudo-
targets, and the squared-distance loss pulls augmented replicas toward
their targets. The trainer follows each assignment pass with a
rotation-prediction pass over the same data when the data is image shaped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assignment import Assignment, hungarian_solve
from .augment import AugmentSpec, apply_batch, rotate90_batch, spec_for
from .errors import ConfigurationError, check_value
from .network import Model, softmax_cross_entropy
from .optim import EmaState, Sgd

if TYPE_CHECKING:
    from .trainer import TrainConfig

logger = logging.getLogger(__name__)

UNASSIGNED = -1


@dataclass(frozen=True)
class ClusterBatchPlan:
    """A sampled batch plus a copy of the classes its images hold."""

    image_indices: np.ndarray
    held: np.ndarray


def one_hot(classes: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k)[np.asarray(classes, dtype=np.int64)]


class TargetPool:
    """Each image's class binding; every class binds exactly per_cluster images."""

    def __init__(self, n: int, k: int, per_cluster: int, img_class: np.ndarray):
        self.n = int(n)
        self.k = int(k)
        self.per_cluster = int(per_cluster)
        self.img_class = np.asarray(img_class, dtype=np.int64)
        self.check_invariants()

    def check_invariants(self) -> None:
        """Raise AssertionError on any violated structural invariant."""
        if self.img_class.shape != (self.n,):
            raise AssertionError(f"bindings have shape {self.img_class.shape}, not ({self.n},)")
        bound = self.img_class[self.img_class != UNASSIGNED]
        if bound.size and (bound.min() < 0 or bound.max() >= self.k):
            raise AssertionError(f"a binding names a class outside 0..{self.k - 1}")
        counts = np.bincount(bound, minlength=self.k)
        if not np.all(counts == self.per_cluster):
            raise AssertionError(f"per-class binding counts {counts} are not all {self.per_cluster}")

    def batch_plan(self, image_indices: np.ndarray) -> ClusterBatchPlan:
        image_indices = np.asarray(image_indices, dtype=np.int64)
        return ClusterBatchPlan(image_indices, self.img_class[image_indices])

    def rebind(self, plan: ClusterBatchPlan, sol: Assignment) -> int:
        """Give the batch's bound classes to the images the solver matched.

        Solver row i is the i-th bound class in batch order, and sol.cols[i]
        the batch position that receives it. Returns the number of batch
        images whose class changed.
        """
        imgs = plan.image_indices
        if not np.array_equal(self.img_class[imgs], plan.held):
            raise ValueError("stale plan: the batch's bindings changed since it was drawn")
        self.img_class[imgs] = UNASSIGNED
        self.img_class[imgs[np.array(sol.cols, dtype=np.int64)]] = plan.held[plan.held != UNASSIGNED]
        return int((self.img_class[imgs] != plan.held).sum())

    def to_state(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "per_cluster": self.per_cluster,
            "img_class": self.img_class.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TargetPool":
        return cls(state["n"], state["k"], state["per_cluster"], np.array(state["img_class"]))


def init_target_pool(n: int, k: int, alpha: float, rng: np.random.Generator) -> TargetPool:
    """floor(alpha*n/K) distinct images bound to each cluster."""
    check_value("dataset.k", k)  # the clustering phase needs two classes
    if n < k:
        raise ConfigurationError(f"need n >= k, got n={n}, k={k}")
    per_cluster = int(alpha * n / k)
    if per_cluster == 0:
        raise ConfigurationError(f"alpha*n/K = {alpha * n / k:.3f} floors to zero targets per cluster")
    img_class = np.full(n, UNASSIGNED, dtype=np.int64)
    img_class[rng.permutation(n)[: per_cluster * k]] = np.repeat(np.arange(k), per_cluster)
    return TargetPool(n, k, per_cluster, img_class)


def assign_batch(pool: TargetPool, plan: ClusterBatchPlan, outputs: np.ndarray) -> int:
    """Optimal pairing of the batch's bound classes to the batch images.

    The solver gets one cost row per class present, cost[g][j] =
    ||outputs_j - e_g||^2, and solver row i, the i-th bound class in batch
    order, takes the row of its class. The pool is updated in place and
    each class keeps its count. Returns the number of batch images whose
    class changed.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    b = plan.image_indices.shape[0]
    if outputs.shape != (b, pool.k):
        raise ValueError(f"outputs shape {outputs.shape} != ({b}, {pool.k})")
    classes = plan.held[plan.held != UNASSIGNED]
    if classes.size == 0:
        return 0
    present, groups = np.unique(classes, return_inverse=True)
    cost = ((one_hot(present, pool.k)[:, None, :] - outputs[None]) ** 2).sum(axis=2)
    return pool.rebind(plan, hungarian_solve(cost, groups))


def confident_pseudo(
    outputs: np.ndarray, assigned_mask: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batch positions and argmax classes of confident unassigned images.

    Confidence means ||f - e_argmax||^2 = 2 - 2*max_k f_k < rho; for
    unit-norm f, only rho in (0, 2) is satisfiable. The pseudo-targets are
    transient; nothing is written into any pool.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    assigned_mask = np.asarray(assigned_mask, dtype=bool)
    distances = 2.0 - 2.0 * outputs.max(axis=1)
    sel = ~assigned_mask & (distances < rho)
    idx = np.flatnonzero(sel)
    return idx, outputs[idx].argmax(axis=1)


def flatten(batch: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(batch).reshape(batch.shape[0], -1)


def clustering_loss(
    model: Model,
    images: np.ndarray,
    targets: np.ndarray,
    g_spec: AugmentSpec,
    r: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean squared distance of r augmented replicas to their shared targets.

    L = (1/(|S|*r)) sum_i sum_{j<=r} ||f(g(x_i)) - y_i||^2. The gradient is
    summed in ``out`` when given, else in a new vector. Raises on an empty
    image set; callers skip the parameter update in that case.
    """
    images = np.asarray(images, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m = images.shape[0]
    if m == 0:
        raise ValueError("clustering loss over an empty image set")
    check_value("train.r", r)
    if targets.shape != (m, model.k):
        raise ValueError(f"targets shape {targets.shape} != ({m}, {model.k})")
    total = 0.0
    grads = np.empty(model.n_params) if out is None else out
    grads.fill(0.0)
    for _ in range(r):
        aug = apply_batch(g_spec, images, rng)
        f = model.forward(flatten(aug))
        diff = f - targets
        total += float((diff**2).sum())
        grads += model.backward(2.0 * diff / (m * r))
    return total / (m * r), grads


def _rotated_logits(model: Model, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-head logits and rotation labels for the four 90-degree views of each image."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 3 or images.shape[1] != images.shape[2]:
        raise ConfigurationError(
            f"rotation pretext needs square image data, got item shape {images.shape[1:]}"
        )
    views = np.concatenate([rotate90_batch(images, q) for q in range(4)])
    logits = model.forward(flatten(views), head="rotation")
    return logits, np.repeat(np.arange(4), images.shape[0])


def rotnet_pass(model: Model, images: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy of the rotation head over all four 90-degree views."""
    logits, labels = _rotated_logits(model, images)
    loss, d_logits = softmax_cross_entropy(logits, labels)
    return loss, model.backward(d_logits)


def rotation_accuracy(model: Model, images: np.ndarray) -> float:
    """Fraction of the 4m rotated views whose rotation the head identifies."""
    logits, labels = _rotated_logits(model, images)
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class ClusterEpochStats:
    loss_cluster: float
    confident_count: int
    reassigned_count: int


def _batched(order: np.ndarray, batch_size: int):
    for start in range(0, order.shape[0], batch_size):
        yield order[start : start + batch_size]


def rotation_epoch(
    model: Model,
    features: np.ndarray,
    idx: np.ndarray,
    cfg: TrainConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass of rotation-prediction updates over ``features[idx]``;
    returns mean loss. Batches are gathered as they are drawn.

    Steps use the clustering phase's learning rate and weight decay.
    """
    order = rng.permutation(idx.size)
    losses = []
    with model.epoch():
        for batch in _batched(order, cfg.batch_size):
            loss, grads = rotnet_pass(model, features[idx[batch]])
            losses.append(loss)
            opt.step(model, grads, cfg.lr_cluster, cfg.wd_cluster)
            ema.update(model.params)
    return float(np.mean(losses)) if losses else float("nan")


def clustering_epoch(
    pool: TargetPool,
    model: Model,
    features: np.ndarray,
    idx: np.ndarray,
    cfg: TrainConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> ClusterEpochStats:
    """One shuffled assignment+gradient pass over the unlabeled features ``features[idx]``.

    Pool position i is image ``idx[i]``; batches are gathered as they are drawn."""
    g_spec = spec_for("cluster", features.shape[1:])
    order = rng.permutation(idx.size)
    cluster_losses = []
    confident_total = 0
    reassigned_total = 0
    with model.epoch():
        for batch in _batched(order, cfg.batch_size):
            feats = features[idx[batch]]
            f = model.forward(flatten(feats))
            reassigned_total += assign_batch(pool, pool.batch_plan(batch), f)
            classes = pool.img_class[batch]
            pseudo_idx, pseudo_cls = confident_pseudo(f, classes != UNASSIGNED, cfg.rho)
            confident_total += int(pseudo_idx.size)
            classes[pseudo_idx] = pseudo_cls
            sel = np.flatnonzero(classes != UNASSIGNED)
            if sel.size == 0:
                continue
            targets = one_hot(classes[sel], pool.k)
            loss, grads = clustering_loss(model, feats[sel], targets, g_spec, cfg.r, rng, opt.scratch)
            cluster_losses.append(loss)
            opt.step(model, grads, cfg.lr_cluster, cfg.wd_cluster)
            ema.update(model.params)

    loss_cluster = float(np.mean(cluster_losses)) if cluster_losses else float("nan")
    return ClusterEpochStats(loss_cluster, confident_total, reassigned_total)
