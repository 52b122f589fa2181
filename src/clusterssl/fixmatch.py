"""Semi-supervised phase: supervised cross-entropy plus thresholded
pseudo-label consistency on unlabeled batches.

The shared cluster head emits unit-norm vectors, not distributions; the
bridge to class probabilities is a temperature softmax over K*<f, e_k>
scores (TrainConfig.logit_temperature). Pseudo-labels come from the weakly
augmented view with gradients blocked; only images whose confidence
reaches tau contribute to the consistency term, which is averaged over
the confident count rather than the full batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .augment import AugmentSpec, apply_batch, spec_for
from .clustering import flatten
from .network import Model, softmax_cross_entropy, softmax_rows
from .optim import EmaState, Sgd

if TYPE_CHECKING:
    from .trainer import TrainConfig


def class_distribution(cluster_out: np.ndarray, temperature: float) -> np.ndarray:
    """Probability rows from unit-norm head outputs: softmax(K*f / T)."""
    cluster_out = np.asarray(cluster_out, dtype=np.float64)
    k = cluster_out.shape[1]
    return softmax_rows(k * cluster_out / temperature)


def _bridge_loss(
    model: Model, x_flat: np.ndarray, labels: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Cross-entropy through the softmax bridge; returns (loss, flat grads)."""
    f = model.forward(x_flat)
    scale = model.k / temperature
    loss, d_logits = softmax_cross_entropy(scale * f, labels)
    return loss, model.backward(scale * d_logits)


def pseudo_labels_batch(
    model: Model, u: np.ndarray, g_spec: AugmentSpec, temperature: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(class_ids, confidences) over a batch; no gradients are retained."""
    aug = apply_batch(g_spec, u, rng)
    f = model.forward(flatten(aug))
    probs = class_distribution(f, temperature)
    return probs.argmax(axis=1), probs.max(axis=1)


def labeled_loss_grads(
    model: Model, x: np.ndarray, y: np.ndarray, g_spec: AugmentSpec, temperature: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the weakly augmented labeled batch."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= model.k):
        raise ValueError(f"labels out of range [0, {model.k})")
    aug = apply_batch(g_spec, np.asarray(x, dtype=np.float64), rng)
    return _bridge_loss(model, flatten(aug), y, temperature)


def unlabeled_loss_grads(
    model: Model, u: np.ndarray, weak_spec: AugmentSpec, strong_spec: AugmentSpec,
    tau: float, temperature: float, rng: np.random.Generator,
) -> tuple[float, np.ndarray, int]:
    """Consistency loss over confident images; (L_u, grads, n_confident).

    L_u = (1/max(1, n_conf)) * sum over {conf >= tau} of
    H(strong-view prediction, weak-view pseudo-label). Zero images above
    the threshold yields L_u = 0 and a zero gradient.
    """
    u = np.asarray(u, dtype=np.float64)
    classes, conf = pseudo_labels_batch(model, u, weak_spec, temperature, rng)
    strong = apply_batch(strong_spec, u, rng)
    keep = conf >= tau
    n_conf = int(keep.sum())
    if n_conf == 0:
        return 0.0, np.zeros(model.n_params), 0
    loss, grads = _bridge_loss(model, flatten(strong[keep]), classes[keep], temperature)
    return loss, grads, n_conf


@dataclass
class SslEpochStats:
    loss_s: float
    loss_u: float
    mask_rate: float


class _LabeledCycler:
    """Endless stream of labeled batches: reshuffle each exhausted pass."""

    def __init__(self, idx: np.ndarray, rng: np.random.Generator):
        self.idx = np.asarray(idx, dtype=np.int64)
        if self.idx.size == 0:
            raise ValueError("cannot cycle an empty labeled set")
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
    cfg: TrainConfig,
    opt: Sgd,
    ema: EmaState,
    rng: np.random.Generator,
) -> SslEpochStats:
    """One pass over the unlabeled pool in chunks of mu*b.

    Labeled batches of size b are drawn by cycling reshuffled passes of
    the (typically tiny) labeled set. This is the narrow entry point a
    different semi-supervised engine would have to reimplement.
    """
    weak_spec = spec_for("weak", features.shape[1:])
    strong_spec = spec_for("strong", features.shape[1:])
    chunk_size = cfg.mu * cfg.batch_size
    order = unlabeled_idx[rng.permutation(unlabeled_idx.shape[0])]
    cycler = _LabeledCycler(labeled_idx, rng)
    temperature = cfg.logit_temperature
    losses_s, losses_u = [], []
    conf_total = 0
    with model.epoch():
        for start in range(0, order.shape[0], chunk_size):
            chunk = order[start : start + chunk_size]
            lab = cycler.take(cfg.batch_size)
            # one combined update on L_s + lambda_u * L_u. The batches and the unlabeled
            # gradient are freed together when the step ends: freeing the 229 KB shapes8
            # batch right after the unlabeled pass took a shapes8 run from 55k to 124k minor
            # page faults, as glibc trims and regrows the heap top
            x_lab, y_lab, u = features[lab], labels[lab], features[chunk]
            loss_u, grads_u, n_conf = unlabeled_loss_grads(
                model, u, weak_spec, strong_spec, cfg.tau, temperature, rng
            )
            # kept in the optimizer's scratch: the labeled backward reuses the model's gradient vector
            grads = np.multiply(grads_u, cfg.lambda_u, out=opt.scratch)
            loss_s, grads_s = labeled_loss_grads(model, x_lab, y_lab, weak_spec, temperature, rng)
            grads += grads_s
            opt.step(model, grads, cfg.lr_ssl, cfg.wd_ssl)
            ema.update(model.params)
            losses_s.append(loss_s)
            losses_u.append(loss_u)
            conf_total += n_conf
            del x_lab, y_lab, u, grads_u
    mask_rate = conf_total / order.shape[0] if order.shape[0] else 0.0
    return SslEpochStats(
        float(np.mean(losses_s)) if losses_s else float("nan"),
        float(np.mean(losses_u)) if losses_u else float("nan"),
        mask_rate,
    )
