"""Semi-supervised phase: supervised cross-entropy plus thresholded
pseudo-label consistency on unlabeled batches.

The shared cluster head emits unit-norm vectors, not distributions; the
bridge to class probabilities is a temperature softmax over K*<f, e_k>
scores (temperature 0.1 by default). Pseudo-labels come from the weakly
augmented view with gradients blocked; only images whose confidence
reaches tau contribute to the consistency term, which is averaged over
the confident count rather than the full batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentSpec, apply_batch
from .clustering import flatten
from .network import Model, softmax_cross_entropy, softmax_rows
from .optim import EmaState, Sgd, SgdConfig


@dataclass(frozen=True)
class SslHyper:
    """FixMatch-style knobs; defaults follow the published configuration."""

    tau: float = 0.95
    lambda_u: float = 1.0
    mu: int = 7
    batch_size: int = 64
    logit_temperature: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.lambda_u < 0.0:
            raise ValueError(f"lambda_u must be >= 0, got {self.lambda_u}")
        if self.mu < 1 or self.batch_size < 1:
            raise ValueError(f"mu and batch_size must be >= 1, got {self.mu}, {self.batch_size}")
        if self.logit_temperature <= 0.0:
            raise ValueError(f"logit_temperature must be positive, got {self.logit_temperature}")

    @property
    def unlabeled_batch_size(self) -> int:
        return self.mu * self.batch_size


def class_distribution(cluster_out: np.ndarray, temperature: float) -> np.ndarray:
    """Probability rows from unit-norm head outputs: softmax(K*f / T)."""
    cluster_out = np.asarray(cluster_out, dtype=np.float64)
    k = cluster_out.shape[1]
    return softmax_rows(k * cluster_out / temperature)


def _bridge_loss(
    model: Model, x_flat: np.ndarray, labels: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Cross-entropy through the softmax bridge; returns (loss, flat grads)."""
    f, _ = model.forward(x_flat)
    scale = model.k / temperature
    loss, d_logits = softmax_cross_entropy(scale * f, labels)
    return loss, model.backward(d_cluster=scale * d_logits)


def pseudo_labels_batch(
    model: Model, u: np.ndarray, g_spec: AugmentSpec, hyper: SslHyper,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(class_ids, confidences) over a batch; no gradients are retained."""
    aug = apply_batch(g_spec, u, rng)
    f, _ = model.forward(flatten(aug))
    probs = class_distribution(f, hyper.logit_temperature)
    return probs.argmax(axis=1), probs.max(axis=1)


def labeled_loss_grads(
    model: Model, x: np.ndarray, y: np.ndarray, g_spec: AugmentSpec, hyper: SslHyper,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the weakly augmented labeled batch."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= model.k):
        raise ValueError(f"labels out of range [0, {model.k})")
    aug = apply_batch(g_spec, np.asarray(x, dtype=np.float64), rng)
    return _bridge_loss(model, flatten(aug), y, hyper.logit_temperature)


def unlabeled_loss_grads(
    model: Model, u: np.ndarray, weak_spec: AugmentSpec, strong_spec: AugmentSpec,
    hyper: SslHyper, rng: np.random.Generator,
) -> tuple[float, np.ndarray, int]:
    """Consistency loss over confident images; (L_u, grads, n_confident).

    L_u = (1/max(1, n_conf)) * sum over {conf >= tau} of
    H(strong-view prediction, weak-view pseudo-label). Zero images above
    the threshold yields L_u = 0 and a zero gradient.
    """
    u = np.asarray(u, dtype=np.float64)
    classes, conf = pseudo_labels_batch(model, u, weak_spec, hyper, rng)
    strong = apply_batch(strong_spec, u, rng)
    keep = conf >= hyper.tau
    n_conf = int(keep.sum())
    if n_conf == 0:
        return 0.0, np.zeros(model.n_params), 0
    loss, grads = _bridge_loss(
        model, flatten(strong[keep]), classes[keep], hyper.logit_temperature
    )
    return loss, grads, n_conf


@dataclass
class SslStepStats:
    loss_total: float
    loss_s: float
    loss_u: float
    n_confident: int
    n_unlabeled: int


def ssl_step(
    model: Model,
    labeled_x: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_x: np.ndarray,
    weak_spec: AugmentSpec,
    strong_spec: AugmentSpec,
    hyper: SslHyper,
    sgd: SgdConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> SslStepStats:
    """One combined update on L_s + lambda_u * L_u."""
    loss_u, grads_u, n_conf = unlabeled_loss_grads(
        model, unlabeled_x, weak_spec, strong_spec, hyper, rng
    )
    loss_s, grads_s = labeled_loss_grads(model, labeled_x, labeled_y, weak_spec, hyper, rng)
    total = loss_s + hyper.lambda_u * loss_u
    opt.step(model, grads_s + hyper.lambda_u * grads_u, sgd)
    ema.update(model.get_params())
    return SslStepStats(total, loss_s, loss_u, n_conf, int(np.asarray(unlabeled_x).shape[0]))


@dataclass
class SslPhaseSettings:
    """Everything one SSL epoch needs beyond the model and data."""

    hyper: SslHyper
    weak_spec: AugmentSpec
    strong_spec: AugmentSpec
    sgd: SgdConfig = field(default_factory=lambda: SgdConfig(0.03, 5e-4, 0.9))


@dataclass
class SslEpochStats:
    loss_s: float
    loss_u: float
    mask_rate: float
    steps: int


class _LabeledCycler:
    """Endless stream of labeled batches: reshuffle each exhausted pass."""

    def __init__(self, idx: np.ndarray, rng: np.random.Generator):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.rng = rng
        self.order = self.idx[rng.permutation(self.idx.shape[0])]
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        out = []
        need = count
        while need > 0:
            if self.pos >= self.order.shape[0]:
                self.order = self.idx[self.rng.permutation(self.idx.shape[0])]
                self.pos = 0
            grab = self.order[self.pos : self.pos + need]
            out.append(grab)
            self.pos += grab.shape[0]
            need -= grab.shape[0]
        return np.concatenate(out)


def run_epoch(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    labeled_idx: np.ndarray,
    unlabeled_idx: np.ndarray,
    settings: SslPhaseSettings,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> SslEpochStats:
    """One pass over the unlabeled pool in chunks of mu*b.

    Labeled batches of size b are drawn by cycling reshuffled passes of
    the (typically tiny) labeled set. This is the narrow entry point a
    different semi-supervised engine would have to reimplement.
    """
    hyper = settings.hyper
    order = unlabeled_idx[rng.permutation(unlabeled_idx.shape[0])]
    cycler = _LabeledCycler(labeled_idx, rng)
    losses_s, losses_u = [], []
    conf_total = 0
    unl_total = 0
    steps = 0
    for start in range(0, order.shape[0], hyper.unlabeled_batch_size):
        chunk = order[start : start + hyper.unlabeled_batch_size]
        lab = cycler.take(hyper.batch_size)
        stats = ssl_step(
            model, features[lab], labels[lab], features[chunk],
            settings.weak_spec, settings.strong_spec, hyper, settings.sgd, opt, ema, rng,
        )
        losses_s.append(stats.loss_s)
        losses_u.append(stats.loss_u)
        conf_total += stats.n_confident
        unl_total += stats.n_unlabeled
        steps += 1
    mask_rate = conf_total / unl_total if unl_total else 0.0
    return SslEpochStats(
        float(np.mean(losses_s)) if losses_s else float("nan"),
        float(np.mean(losses_u)) if losses_u else float("nan"),
        mask_rate,
        steps,
    )
