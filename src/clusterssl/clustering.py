"""Balanced-target clustering phase.

The pool holds a fixed multiset of one-hot targets, floor(alpha*n/K) per
cluster, and a mutable injective map from images to target slots. Each
batch re-derives the optimal image<->target pairing with the assignment
solver, unassigned images near a one-hot corner get transient pseudo-
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
from .errors import ConfigurationError
from .network import Model, softmax_cross_entropy
from .optim import EmaState, Sgd

if TYPE_CHECKING:
    from .trainer import TrainConfig

logger = logging.getLogger(__name__)

UNASSIGNED = -1


@dataclass(frozen=True)
class ClusterBatchPlan:
    """A sampled batch plus the targets its images currently hold."""

    image_indices: np.ndarray
    target_indices: np.ndarray

    def __post_init__(self) -> None:
        if self.target_indices.shape[0] > self.image_indices.shape[0]:
            raise ValueError("plan has more targets than images")


def one_hot(classes: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k)[np.asarray(classes, dtype=np.int64)]


class TargetPool:
    """Fixed target multiset plus the injective image->target map."""

    def __init__(self, n: int, k: int, target_class: np.ndarray, img_to_target: np.ndarray):
        self.n = int(n)
        self.k = int(k)
        self.target_class = np.asarray(target_class, dtype=np.int64)
        self.img_to_target = np.asarray(img_to_target, dtype=np.int64)
        self.target_to_img = np.full(self.n_targets, UNASSIGNED, dtype=np.int64)
        owned = np.flatnonzero(self.img_to_target != UNASSIGNED)
        self.target_to_img[self.img_to_target[owned]] = owned
        self.check_invariants()

    @property
    def n_targets(self) -> int:
        return self.target_class.shape[0]

    @property
    def per_cluster(self) -> int:
        return self.n_targets // self.k

    def check_invariants(self) -> None:
        """Raise AssertionError on any violated structural invariant."""
        counts = np.bincount(self.target_class, minlength=self.k)
        if not np.all(counts == self.per_cluster):
            raise AssertionError(f"per-cluster target counts {counts} are not all {self.per_cluster}")
        owned = self.img_to_target[self.img_to_target != UNASSIGNED]
        if owned.size != np.unique(owned).size:
            raise AssertionError("two images share a target")
        if owned.size and (owned.min() < 0 or owned.max() >= self.n_targets):
            raise AssertionError("assignment points outside the target pool")
        back = self.target_to_img[owned]
        if not np.all(self.img_to_target[back] == owned):
            raise AssertionError("img->target and target->img maps disagree")

    def assigned_mask(self, image_indices: np.ndarray) -> np.ndarray:
        return self.img_to_target[image_indices] != UNASSIGNED

    def assigned_classes(self, image_indices: np.ndarray) -> np.ndarray:
        """Cluster ids of the targets held by the given (all assigned) images."""
        slots = self.img_to_target[image_indices]
        if np.any(slots == UNASSIGNED):
            raise ValueError("some images are unassigned")
        return self.target_class[slots]

    def batch_plan(self, image_indices: np.ndarray) -> ClusterBatchPlan:
        image_indices = np.asarray(image_indices, dtype=np.int64)
        slots = self.img_to_target[image_indices]
        return ClusterBatchPlan(image_indices, slots[slots != UNASSIGNED])

    def rebind(self, plan: ClusterBatchPlan, sol: Assignment) -> int:
        """Point the plan's targets at the images the solver matched.

        Returns the number of images in the batch whose binding changed.
        """
        imgs = plan.image_indices
        tgts = plan.target_indices
        current = self.target_to_img[tgts]
        if not np.isin(current, imgs).all():
            raise ValueError("stale plan: some targets no longer belong to the batch")
        before = self.img_to_target[imgs].copy()
        self.img_to_target[current] = UNASSIGNED
        new_imgs = imgs[np.array(sol.cols, dtype=np.int64)]
        self.img_to_target[new_imgs] = tgts
        self.target_to_img[tgts] = new_imgs
        return int((self.img_to_target[imgs] != before).sum())

    def to_state(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "per_cluster": self.per_cluster,
            "img_to_target": self.img_to_target.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TargetPool":
        target_class = np.repeat(np.arange(state["k"]), state["per_cluster"])
        return cls(state["n"], state["k"], target_class, np.array(state["img_to_target"]))


def init_target_pool(n: int, k: int, alpha: float, rng: np.random.Generator) -> TargetPool:
    """floor(alpha*n/K) one-hot targets per cluster, each bound to a distinct image."""
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    if n < k:
        raise ConfigurationError(f"need n >= k, got n={n}, k={k}")
    per_cluster = int(alpha * n / k)
    if per_cluster == 0:
        raise ConfigurationError(f"alpha*n/K = {alpha * n / k:.3f} floors to zero targets per cluster")
    n_targets = per_cluster * k
    target_class = np.repeat(np.arange(k), per_cluster)
    img_to_target = np.full(n, UNASSIGNED, dtype=np.int64)
    chosen = rng.permutation(n)[:n_targets]
    img_to_target[chosen] = np.arange(n_targets)
    return TargetPool(n, k, target_class, img_to_target)


def assign_batch(pool: TargetPool, plan: ClusterBatchPlan, outputs: np.ndarray) -> int:
    """Optimal pairing of the plan's targets to the batch images.

    cost[i][j] = ||outputs_j - t_i||^2. The pool is updated in place;
    targets are conserved and injectivity is preserved by construction.
    Returns the number of batch images whose binding changed.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    b = plan.image_indices.shape[0]
    c = plan.target_indices.shape[0]
    if outputs.shape != (b, pool.k):
        raise ValueError(f"outputs shape {outputs.shape} != ({b}, {pool.k})")
    if c == 0:
        return 0
    tvecs = one_hot(pool.target_class[plan.target_indices], pool.k)
    cost = ((tvecs[:, None, :] - outputs[None, :, :]) ** 2).sum(axis=2)
    return pool.rebind(plan, hungarian_solve(cost))


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
) -> tuple[float, np.ndarray]:
    """Mean squared distance of r augmented replicas to their shared targets.

    L = (1/(|S|*r)) sum_i sum_{j<=r} ||f(g(x_i)) - y_i||^2. Raises on an
    empty image set; callers skip the parameter update in that case.
    """
    images = np.asarray(images, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m = images.shape[0]
    if m == 0:
        raise ValueError("clustering loss over an empty image set")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if targets.shape != (m, model.k):
        raise ValueError(f"targets shape {targets.shape} != ({m}, {model.k})")
    total = 0.0
    grads = np.zeros(model.n_params)
    for _ in range(r):
        aug = apply_batch(g_spec, images, rng)
        f, _ = model.forward(flatten(aug))
        diff = f - targets
        total += float((diff**2).sum())
        grads += model.backward(d_cluster=2.0 * diff / (m * r))
    return total / (m * r), grads


def _rotated_logits(model: Model, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-head logits and rotation labels for the four 90-degree views of each image."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 3 or images.shape[1] != images.shape[2]:
        raise ConfigurationError(
            f"rotation pretext needs square image data, got item shape {images.shape[1:]}"
        )
    views = np.concatenate([rotate90_batch(images, q) for q in range(4)])
    _, logits = model.forward(flatten(views))
    return logits, np.repeat(np.arange(4), images.shape[0])


def rotnet_pass(model: Model, images: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy of the rotation head over all four 90-degree views."""
    logits, labels = _rotated_logits(model, images)
    loss, d_logits = softmax_cross_entropy(logits, labels)
    return loss, model.backward(d_rot=d_logits)


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
    cfg: TrainConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass of rotation-prediction updates; returns mean loss.

    Steps use the clustering phase's learning rate and weight decay.
    """
    order = rng.permutation(features.shape[0])
    losses = []
    for batch in _batched(order, cfg.batch_size):
        loss, grads = rotnet_pass(model, features[batch])
        losses.append(loss)
        opt.step(model, grads, cfg.lr_cluster, cfg.wd_cluster)
        ema.update(model.params)
    return float(np.mean(losses)) if losses else float("nan")


def clustering_epoch(
    pool: TargetPool,
    model: Model,
    features: np.ndarray,
    cfg: TrainConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> ClusterEpochStats:
    """One shuffled assignment+gradient pass over the unlabeled features."""
    g_spec = spec_for("cluster", features.shape[1:])
    order = rng.permutation(features.shape[0])
    cluster_losses = []
    confident_total = 0
    reassigned_total = 0
    for batch in _batched(order, cfg.batch_size):
        feats = features[batch]
        f, _ = model.forward(flatten(feats))
        reassigned_total += assign_batch(pool, pool.batch_plan(batch), f)
        assigned = pool.assigned_mask(batch)
        pseudo_idx, pseudo_cls = confident_pseudo(f, assigned, cfg.rho)
        confident_total += int(pseudo_idx.size)

        member = assigned.copy()
        member[pseudo_idx] = True
        classes = np.empty(batch.shape[0], dtype=np.int64)
        if assigned.any():
            classes[assigned] = pool.assigned_classes(batch[assigned])
        classes[pseudo_idx] = pseudo_cls
        sel = np.flatnonzero(member)
        if sel.size == 0:
            continue
        loss, grads = clustering_loss(
            model, feats[sel], one_hot(classes[sel], pool.k), g_spec, cfg.r, rng
        )
        cluster_losses.append(loss)
        opt.step(model, grads, cfg.lr_cluster, cfg.wd_cluster)
        ema.update(model.params)

    loss_cluster = float(np.mean(cluster_losses)) if cluster_losses else float("nan")
    return ClusterEpochStats(loss_cluster, confident_total, reassigned_total)
