"""Alternating trainer: warmup rotation epochs, then per iteration e1
semi-supervised epochs followed by e2 clustering epochs.

One master generator seeded from the config drives every random decision
in a fixed order (model init, pool init, warmup, epochs), so runs are
resumable and, for a fixed BLAS thread count, bit-reproducible: checkpoints
carry parameters, EMA shadow, optimizer velocity, pool bindings, generator
state, and the metric rows written so far. Evaluation always uses the EMA
shadow weights.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .assignment import clustering_accuracy, count_injections, murty_kbest
from .augment import rotate90_batch, spec_for
from .clustering import (
    ClusterPhaseSettings,
    ConfidenceRule,
    TargetPool,
    clustering_epoch,
    flatten,
    init_target_pool,
    rotation_accuracy,
    rotation_epoch,
)
from .data import Dataset, DatasetSplit
from .errors import ConfigurationError, DivergenceError
from .fixmatch import SslHyper, SslPhaseSettings, class_distribution, run_epoch
from .network import Model
from .optim import EmaState, Sgd, SgdConfig

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1

_CHECKPOINT_KEYS = (
    "version", "iteration", "arch", "params", "ema_shadow", "ema_decay",
    "velocity", "pool", "rng_state", "config", "rows",
)

CSV_COLUMNS = (
    "iter", "phase", "epoch", "L_s", "L_u", "L_c", "L_r",
    "mask_rate", "confident_count", "test_cls_acc", "test_clu_acc",
)


@dataclass(frozen=True)
class TrainConfig:
    """Every schedule and method hyper-parameter in one place."""

    iters: int = 200
    e1: int = 5
    e2: int = 1
    warmup_rot_epochs: int = 5
    lr_ssl: float = 0.03
    wd_ssl: float = 5e-4
    lr_cluster: float = 0.01
    wd_cluster: float = 1e-4
    momentum: float = 0.9
    ema_decay: float = 0.999
    rho: float = 0.2
    alpha: float = 1.0
    tau: float = 0.95
    lambda_u: float = 1.0
    mu: int = 7
    r: int = 2
    batch_size: int = 64
    logit_temperature: float = 0.1
    rotnet: bool = True
    hidden_sizes: tuple[int, ...] = (128, 128)
    leaky_slope: float = 0.01
    seed: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.iters < 0 or self.e1 < 0 or self.e2 < 0 or self.warmup_rot_epochs < 0:
            raise ConfigurationError("iteration and epoch counts must be >= 0")
        for name in ("lr_ssl", "lr_cluster", "divergence_limit"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("wd_ssl", "wd_cluster"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigurationError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.r < 1 or self.batch_size < 1:
            raise ConfigurationError("r and batch_size must be >= 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "hidden_sizes" in d:
            d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return cls(**d)


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run produced."""

    rows: list[dict]
    summary: dict
    model: Model
    ema: EmaState
    pool: TargetPool | None

    def csv_text(self) -> str:
        return rows_to_csv(self.rows)


def _fmt(val) -> str:
    if val is None:
        return ""
    if isinstance(val, float):
        return repr(val)
    return str(val)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _row(iter_no: int, phase: str, epoch: int, **vals) -> dict:
    row = {"iter": iter_no, "phase": phase, "epoch": epoch}
    row.update(vals)
    return row


# -- evaluation ------------------------------------------------------------


def evaluate(model: Model, features: np.ndarray, labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(classification_acc, clustering_acc, best_perm) on a test set.

    Classification reads cluster ids as class labels directly; clustering
    accuracy maximizes over bijections, so it can never be lower.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise ValueError("evaluation needs a non-empty test set")
    f, _ = model.forward(flatten(features))
    pred = f.argmax(axis=1)
    cls_acc = float((pred == labels).mean())
    clu_acc, perm = clustering_accuracy(pred, labels, model.k)
    return cls_acc, clu_acc, perm


def topk_permutation_accuracy(
    model: Model,
    labeled_features: np.ndarray,
    labeled_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    k: int,
    temperature: float = 0.1,
) -> np.ndarray:
    """Best test accuracy within the k lowest-cost label->cluster matchings.

    Each labeled image votes with its prediction averaged over the four
    rotations; the vote matrix is ranked by the k-best solver and the
    curve reports the running best accuracy, so it is nondecreasing and
    reaches the bijection optimum once k covers all K! permutations.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labeled_features = np.asarray(labeled_features, dtype=np.float64)
    if labeled_features.ndim < 3 or labeled_features.shape[1] != labeled_features.shape[2]:
        raise ConfigurationError("top-k permutation voting needs square image data")
    kk = model.k
    labeled_labels = np.asarray(labeled_labels, dtype=np.int64)
    probs = np.zeros((labeled_features.shape[0], kk))
    for q in range(4):
        f, _ = model.forward(flatten(rotate90_batch(labeled_features, q)))
        probs += class_distribution(f, temperature)
    probs /= 4.0
    score = np.zeros((kk, kk))
    np.add.at(score, labeled_labels, probs)
    cost = score.max() - score
    ranked = murty_kbest(cost, min(k, count_injections(kk, kk)))

    test_features = np.asarray(test_features, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    f, _ = model.forward(flatten(test_features))
    pred = f.argmax(axis=1)
    curve = np.empty(len(ranked))
    best = 0.0
    for i, sol in enumerate(ranked):
        cluster_of_label = np.array(sol.cols, dtype=np.int64)
        label_of_cluster = np.empty(kk, dtype=np.int64)
        label_of_cluster[cluster_of_label] = np.arange(kk)
        acc = float((label_of_cluster[pred] == test_labels).mean())
        best = max(best, acc)
        curve[i] = best
    return curve


# -- artifacts -------------------------------------------------------------


@contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that replaces ``path`` when the block ends.

    If the block or the write fails, ``path`` keeps its old bytes and the
    temporary file is removed.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


# -- checkpointing ---------------------------------------------------------


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, size: int) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    arr = np.frombuffer(raw, dtype="<f8")
    if arr.shape != (size,):
        raise ValueError(f"checkpoint array has {arr.shape[0]} values, expected {size}")
    return arr.copy()


def save_checkpoint(
    path: str,
    *,
    iteration: int,
    model: Model,
    ema: EmaState,
    opt: Sgd,
    pool: TargetPool | None,
    rng: np.random.Generator,
    cfg: TrainConfig,
    rows: list[dict],
) -> None:
    state = {
        "version": CHECKPOINT_VERSION,
        "iteration": iteration,
        "arch": model.arch(),
        "params": _encode(model.get_params()),
        "ema_shadow": _encode(ema.shadow),
        "ema_decay": ema.decay,
        "velocity": _encode(opt.velocity),
        "pool": pool.to_state() if pool is not None else None,
        "rng_state": rng.bit_generator.state,
        "config": cfg.to_dict(),
        "rows": rows,
    }
    with _atomic_open(path) as fh:
        json.dump(state, fh)


def load_checkpoint(path: str) -> dict:
    """Parsed checkpoint dict with arrays decoded; refuses unknown versions."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt or truncated checkpoint {path}: {exc}") from None
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version} not supported (want {CHECKPOINT_VERSION})")
    missing = [key for key in _CHECKPOINT_KEYS if key not in state]
    if missing:
        raise ValueError(f"checkpoint {path} lacks key(s): {', '.join(missing)}")
    model = Model.from_arch(state["arch"])
    n = model.n_params
    state["model"] = model
    model.set_params(_decode(state["params"], n))
    state["ema_shadow_arr"] = _decode(state["ema_shadow"], n)
    state["velocity_arr"] = _decode(state["velocity"], n)
    return state


# -- the trainer -----------------------------------------------------------


class _Driver:
    """Owns all mutable run state; train() is the public face."""

    def __init__(self, cfg: TrainConfig, dataset: Dataset, split: DatasetSplit, out_dir: str | None):
        self.cfg = cfg
        self.dataset = dataset
        self.split = split
        self.out_dir = out_dir
        square = dataset.is_image and dataset.features.shape[1] == dataset.features.shape[2]
        self.rot_ok = cfg.rotnet and square
        if cfg.rotnet and not square and cfg.warmup_rot_epochs:
            logger.warning("rotation pretext disabled: data is not square-image shaped")
        self.unl_features = dataset.features[split.unlabeled_idx]
        self.rows: list[dict] = []
        self.start_iter = 1

        shape = dataset.item_shape
        in_dim = int(np.prod(shape))
        hyper = SslHyper(
            tau=cfg.tau, lambda_u=cfg.lambda_u, mu=cfg.mu,
            batch_size=cfg.batch_size, logit_temperature=cfg.logit_temperature,
        )
        self.ssl_settings = SslPhaseSettings(
            hyper=hyper,
            weak_spec=spec_for("weak", shape),
            strong_spec=spec_for("strong", shape),
            sgd=SgdConfig(cfg.lr_ssl, cfg.wd_ssl, cfg.momentum),
        )
        self.cluster_settings = ClusterPhaseSettings(
            rule=ConfidenceRule(cfg.rho),
            r=cfg.r,
            batch_size=cfg.batch_size,
            sgd=SgdConfig(cfg.lr_cluster, cfg.wd_cluster, cfg.momentum),
            rot_enabled=self.rot_ok,
        )
        self.g_spec = spec_for("cluster", shape)
        self.in_dim = in_dim

    def fresh_state(self, model: Model | None = None) -> None:
        cfg = self.cfg
        self.rng = np.random.default_rng(cfg.seed)
        if model is None:
            model = Model(self.in_dim, cfg.hidden_sizes, self.dataset.k, cfg.leaky_slope, self.rng)
        elif model.k != self.dataset.k:
            raise ConfigurationError(
                f"model has {model.k} clusters but dataset has {self.dataset.k} classes"
            )
        self.model = model
        self.pool = init_target_pool(self.unl_features.shape[0], self.dataset.k, cfg.alpha, self.rng)
        self.opt = Sgd(self.model.n_params)
        self.ema = EmaState(self.model.get_params(), cfg.ema_decay)

    def resume_state(self, path: str) -> None:
        state = load_checkpoint(path)
        if state["config"] != self.cfg.to_dict():
            raise ConfigurationError("checkpoint was produced by a different config; refusing to resume")
        self.model = state["model"]
        self.ema = EmaState(state["ema_shadow_arr"], state["ema_decay"])
        self.opt = Sgd(self.model.n_params)
        self.opt.velocity = state["velocity_arr"]
        self.pool = TargetPool.from_state(state["pool"]) if state["pool"] is not None else None
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = state["rng_state"]
        self.rows = list(state["rows"])
        self.start_iter = state["iteration"] + 1

    # -- emission ----------------------------------------------------------

    def emit(self, row: dict) -> None:
        self.rows.append(row)
        for key in ("L_s", "L_u", "L_c", "L_r"):
            val = row.get(key)
            if val is None:
                continue
            if not math.isfinite(val):
                raise DivergenceError(f"{key} is non-finite")
            if val > self.cfg.divergence_limit:
                raise DivergenceError(f"{key} = {val} exceeds divergence limit")

    def write_outputs(self) -> None:
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        with _atomic_open(os.path.join(self.out_dir, "metrics.csv")) as fh:
            fh.write(rows_to_csv(self.rows))

    def checkpoint(self, iteration: int) -> None:
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        save_checkpoint(
            os.path.join(self.out_dir, "checkpoint.json"),
            iteration=iteration, model=self.model, ema=self.ema, opt=self.opt,
            pool=self.pool, rng=self.rng, cfg=self.cfg, rows=self.rows,
        )

    # -- phases ------------------------------------------------------------

    def eval_model(self) -> Model:
        shadow = self.model.copy()
        shadow.set_params(self.ema.shadow)
        return shadow

    def run_warmup(self) -> None:
        for epoch in range(self.cfg.warmup_rot_epochs):
            if not self.rot_ok:
                break
            loss = rotation_epoch(
                self.model, self.unl_features, self.cluster_settings,
                self.opt, self.ema, self.rng,
            )
            self.emit(_row(0, "warmup", epoch, L_r=loss))

    def run_iteration(self, t: int, on_cluster_epoch=None) -> None:
        cfg = self.cfg
        for epoch in range(cfg.e1):
            stats = run_epoch(
                self.model, self.dataset.features, self.dataset.labels,
                self.split.labeled_idx, self.split.unlabeled_idx,
                self.ssl_settings, self.opt, self.ema, self.rng,
            )
            self.emit(_row(t, "ssl", epoch, L_s=stats.loss_s, L_u=stats.loss_u,
                           mask_rate=stats.mask_rate))
        for epoch in range(cfg.e2):
            stats = clustering_epoch(
                self.pool, self.model, self.unl_features, self.cluster_settings,
                self.g_spec, self.opt, self.ema, self.rng,
            )
            # nan means no batch contributed (all skipped), not divergence
            loss_c = None if math.isnan(stats.loss_cluster) else stats.loss_cluster
            self.emit(_row(t, "cluster", epoch, L_c=loss_c,
                           L_r=stats.loss_rot if self.rot_ok else None,
                           confident_count=stats.confident_count))
            if on_cluster_epoch is not None:
                on_cluster_epoch(self.pool, t, epoch)
        if self.split.test_idx.size:
            cls_acc, clu_acc, _ = evaluate(
                self.eval_model(),
                self.dataset.features[self.split.test_idx],
                self.dataset.labels[self.split.test_idx],
            )
            self.emit(_row(t, "eval", 0, test_cls_acc=cls_acc, test_clu_acc=clu_acc))


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    split: DatasetSplit,
    out_dir: str | None = None,
    resume_from: str | None = None,
    model: Model | None = None,
    on_cluster_epoch=None,
) -> RunRecord:
    """Run the full alternation schedule; returns the record of the run.

    With ``out_dir`` set, metrics.csv and checkpoint.json are refreshed
    after warmup and after every outer iteration, and summary.json at the
    end. On divergence the last finite checkpoint is kept and the error
    re-raised. ``model`` continues training from an existing network
    instead of a fresh one. ``on_cluster_epoch(pool, iter, epoch)`` is an
    instrumentation hook invoked after every clustering epoch.
    """
    driver = _Driver(cfg, dataset, split, out_dir)
    if resume_from is not None:
        if model is not None:
            raise ConfigurationError("pass either resume_from or model, not both")
        driver.resume_state(resume_from)
    else:
        driver.fresh_state(model)
        driver.run_warmup()
        driver.checkpoint(0)
        driver.write_outputs()

    try:
        for t in range(driver.start_iter, cfg.iters + 1):
            driver.run_iteration(t, on_cluster_epoch)
            driver.checkpoint(t)
            driver.write_outputs()
    except DivergenceError:
        logger.exception("run diverged; last finite checkpoint kept")
        driver.write_outputs()
        raise

    eval_model = driver.eval_model()
    summary: dict = {
        "version": __version__,
        "config": cfg.to_dict(),
        "n_params": driver.model.n_params,
        "iterations_run": cfg.iters,
    }
    if split.test_idx.size:
        cls_acc, clu_acc, perm = evaluate(
            eval_model, dataset.features[split.test_idx], dataset.labels[split.test_idx]
        )
        summary.update(
            test_cls_acc=cls_acc, test_clu_acc=clu_acc, best_perm=perm.tolist()
        )
        if driver.rot_ok and split.labeled_idx.size:
            curve = topk_permutation_accuracy(
                eval_model,
                dataset.features[split.labeled_idx], dataset.labels[split.labeled_idx],
                dataset.features[split.test_idx], dataset.labels[split.test_idx],
                k=min(100, count_injections(dataset.k, dataset.k)),
                temperature=cfg.logit_temperature,
            )
            summary["topk_curve"] = curve.tolist()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with _atomic_open(os.path.join(out_dir, "summary.json")) as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return RunRecord(driver.rows, summary, driver.model, driver.ema, driver.pool)


def warmup_rotation_accuracy(cfg: TrainConfig, dataset: Dataset, split: DatasetSplit) -> float:
    """Rotation-head accuracy on the test images right after warmup."""
    driver = _Driver(cfg, dataset, split, None)
    if not driver.rot_ok:
        raise ConfigurationError("rotation accuracy needs square image data")
    driver.fresh_state()
    driver.run_warmup()
    return rotation_accuracy(driver.model, dataset.features[split.test_idx])
