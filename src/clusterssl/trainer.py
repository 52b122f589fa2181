"""Alternating trainer: warmup rotation epochs, then per iteration e1
semi-supervised epochs followed by e2 clustering epochs.

One master generator seeded from the config drives every random decision
in a fixed order (model init, pool init, warmup, epochs), so runs are
resumable and, for a fixed BLAS thread count and kernel, bit-reproducible:
checkpoints carry parameters, EMA shadow, optimizer velocity, pool bindings,
generator state, the metric rows written so far, and the thread and numpy
settings they were written under. Evaluation always uses the EMA shadow
weights. The CPU count is not a condition: the ``network`` docstring says
why a forward pass split over two CPUs writes the same bytes.
"""

from __future__ import annotations

import json
import logging
import math
import os
import zlib
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import THREAD_VARS, __version__
from .assignment import clustering_accuracy, murty_kbest
from .augment import rotate90_batch
from .clustering import (
    TargetPool,
    clustering_epoch,
    flatten,
    init_target_pool,
    rotation_epoch,
)
from .data import Dataset, DatasetSplit, read_record, write_record
from .errors import ConfigurationError, DivergenceError, check_value
from .fixmatch import class_distribution, run_epoch
from .network import Model
from .optim import EmaState, Sgd

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 4

_CHECKPOINT_KEYS = (
    "version", "iteration", "arch", "ema_decay", "pool", "rng_state", "config", "rows",
    "tensors", "environment",
)
# the records of the tensor file, in order
_TENSOR_KEYS = ("params", "ema_shadow", "velocity")

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
        for f in fields(self):
            if f.name != "hidden_sizes":
                check_value(f"train.{f.name}", getattr(self, f.name))
        if not isinstance(self.hidden_sizes, (list, tuple)):
            raise ConfigurationError(f"train.hidden_sizes must be a list, got {self.hidden_sizes!r}")
        for i, h in enumerate(self.hidden_sizes):
            check_value(f"train.hidden_sizes[{i}]", h)
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


# keys whose value is an object, with the keys it must hold; a checkpoint's
# config holds every TrainConfig field, so no default fills a gap
_OBJECT_KEYS = {
    "arch": ("in_dim", "hidden_sizes", "k", "leaky_slope"),
    "config": tuple(f.name for f in fields(TrainConfig)),
    "tensors": ("file", "bytes", "crc32"),
    "environment": (*THREAD_VARS, "numpy"),
}


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run produced."""

    rows: list[dict]
    summary: dict
    model: Model
    ema: EmaState

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
    f = model.forward(flatten(features))
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
    temperature: float,
) -> np.ndarray:
    """Best test accuracy within the k lowest-cost label->cluster matchings.

    Each labeled image votes with its prediction averaged over the four
    rotations; the vote matrix is ranked by the k-best solver and the
    curve reports the running best accuracy, so it is nondecreasing and
    reaches the bijection optimum once k covers all K! permutations. It has
    min(k, K!) entries.
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
        f = model.forward(flatten(rotate90_batch(labeled_features, q)))
        probs += class_distribution(f, temperature)
    probs /= 4.0
    score = np.zeros((kk, kk))
    np.add.at(score, labeled_labels, probs)
    cost = score.max() - score
    ranked = murty_kbest(cost, k)

    test_features = np.asarray(test_features, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    f = model.forward(flatten(test_features))
    pred = f.argmax(axis=1)
    # row i maps each cluster to its label under the i-th ranked matching
    cluster_of_label = np.array([sol.cols for sol in ranked], dtype=np.int64)
    label_of_cluster = np.empty_like(cluster_of_label)
    label_of_cluster[np.arange(len(ranked))[:, None], cluster_of_label] = np.arange(kk)
    return np.maximum.accumulate((label_of_cluster[:, pred] == test_labels).mean(axis=1))


def eval_summary(
    model: Model, dataset: Dataset, split: DatasetSplit, topk: int, temperature: float,
    scores: tuple[float, float, np.ndarray] | None = None,
) -> dict:
    """The test fields of a run summary: ``test_cls_acc``, ``test_clu_acc`` and
    ``best_perm``, from ``scores`` when ``evaluate`` already gave them for this
    model, and ``topk_curve`` over the ``topk`` best matchings when topk > 0."""
    test = split.test_idx
    cls_acc, clu_acc, perm = scores or evaluate(model, dataset.features[test], dataset.labels[test])
    fields = {"test_cls_acc": cls_acc, "test_clu_acc": clu_acc, "best_perm": perm.tolist()}
    if topk:
        fields["topk_curve"] = topk_permutation_accuracy(
            model,
            dataset.features[split.labeled_idx], dataset.labels[split.labeled_idx],
            dataset.features[test], dataset.labels[test],
            k=topk, temperature=temperature,
        ).tolist()
    return fields


# -- artifacts -------------------------------------------------------------


@contextmanager
def _atomic_open(path: str, binary: bool = False):
    """Handle on a temporary file that replaces ``path`` when the block ends.

    If the block or the write fails, ``path`` keeps its old bytes and the
    temporary file is removed.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


# -- checkpointing ---------------------------------------------------------


def _run_environment() -> dict:
    """What bit-reproducibility depends on besides the config: thread settings and numpy."""
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env["numpy"] = np.__version__
    return env


def _tensor_slots(path: str, iteration: int) -> tuple[str, str | None]:
    """(file to write, file to remove) for the save of ``iteration``.

    Even iterations take slot a and odd ones slot b, so the files a run
    leaves do not depend on what its directory held before. The slot the
    manifest at ``path`` names is removed after the save and never
    overwritten: when it is the one due, as for the first save of a fresh
    run into a used directory, the save takes slot c.
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    a, b, c = (f"{stem}.{slot}.cssr" for slot in "abc")
    try:
        with open(path, encoding="utf-8") as fh:
            named = json.load(fh)["tensors"]["file"]
    except (OSError, ValueError, KeyError, TypeError):
        named = None
    named = named if named in (a, b, c) else None
    due = b if iteration % 2 else a
    return (c if due == named else due), named


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
    """Write the manifest at ``path`` and the tensor file it names.

    The tensor file goes to the slot ``_tensor_slots`` picks, never the one
    the manifest on disk names; then the manifest is replaced and the slot
    it named removed. A crash at any step leaves a manifest that names a
    complete tensor file.
    """
    directory = os.path.dirname(path)
    name, other = _tensor_slots(path, iteration)
    crc = 0
    with _atomic_open(os.path.join(directory, name), binary=True) as fh:
        for arr in (model.params, ema.shadow, opt.velocity):
            arr = np.ascontiguousarray(arr, dtype="<f8")  # the bytes the record holds
            write_record(fh, arr)
            crc = zlib.crc32(arr, crc)
        size = fh.tell()
    state = {
        "version": CHECKPOINT_VERSION,
        "iteration": iteration,
        "arch": model.arch(),
        "ema_decay": ema.decay,
        "pool": pool.to_state() if pool is not None else None,
        "rng_state": rng.bit_generator.state,
        "config": cfg.to_dict(),
        "rows": rows,
        "tensors": {"file": name, "bytes": size, "crc32": crc},
        "environment": _run_environment(),
    }
    try:
        with _atomic_open(path) as fh:
            fh.write(json.dumps(state))
    except BaseException:  # the manifest on disk still names the other slot
        with suppress(FileNotFoundError):
            os.remove(os.path.join(directory, name))
        raise
    if other is not None:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(directory, other))


def _read_tensors(path: str, tensors: dict) -> list[np.ndarray]:
    """The float64 vectors of the tensor file that the manifest at ``path`` names, CRC-checked."""
    name = tensors["file"]
    if not isinstance(name, str) or not name or os.path.basename(name) != name:
        raise ValueError(f"checkpoint {path}: tensors.file {name!r} is not a file name")
    file = os.path.join(os.path.dirname(path), name)
    where = f"checkpoint {path}: tensor file {file}"
    arrays = []
    crc = 0
    try:
        with open(file, "rb") as fh:
            for key in _TENSOR_KEYS:
                try:
                    arr = read_record(fh)
                except ValueError as exc:
                    raise ValueError(f"{where}, {key} record: {exc}") from None
                if arr.dtype != np.float64 or arr.ndim != 1:
                    raise ValueError(f"{where}, {key} record: not a float64 vector")
                crc = zlib.crc32(arr, crc)
                arrays.append(arr)
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise ValueError(f"checkpoint {path}: cannot read tensor file: {exc}") from None
    if size != tensors["bytes"]:
        raise ValueError(f"{where} holds {size} bytes, tensors.bytes says {tensors['bytes']}")
    if crc != tensors["crc32"]:
        raise ValueError(f"{where} has CRC-32 {crc}, tensors.crc32 says {tensors['crc32']}")
    return arrays


def load_checkpoint(path: str) -> dict:
    """Parsed manifest, plus the model and the EMA shadow and velocity arrays.

    Any unreadable, damaged or unknown-version checkpoint raises ValueError
    naming the path and, where one is at fault, the key or the byte offset."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt or truncated checkpoint {path}: {exc}") from None
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: version {version} not supported (want {CHECKPOINT_VERSION})")
    missing = [key for key in _CHECKPOINT_KEYS if key not in state]
    for key, inner in _OBJECT_KEYS.items():
        if key in state:
            if not isinstance(state[key], dict):
                raise ValueError(f"checkpoint {path}: {key} is not a JSON object")
            missing += [f"{key}.{name}" for name in inner if name not in state[key]]
    if missing:
        raise ValueError(f"checkpoint {path} lacks key(s): {', '.join(missing)}")
    try:
        check_value("iteration", state["iteration"])
        check_value("ema_decay", state["ema_decay"])
    except ConfigurationError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    rows = state["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"checkpoint {path}: rows must be a list of objects")
    unknown = sorted(set().union(*rows).difference(CSV_COLUMNS))
    if unknown:
        raise ValueError(f"checkpoint {path}: rows hold key(s) no metrics.csv column has: {', '.join(unknown)}")
    try:
        np.random.PCG64().state = state["rng_state"]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: rng_state is not a PCG64 state: {exc!r}") from None
    try:
        TrainConfig.from_dict(state["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: config is not a valid TrainConfig: {exc}") from None
    params, ema_shadow, velocity = _read_tensors(path, state["tensors"])
    try:
        model = Model.from_arch(state["arch"], params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: arch and params do not make a model: {exc}") from None
    for key, values in (("ema_shadow", ema_shadow), ("velocity", velocity)):
        if values.size != model.n_params:
            raise ValueError(
                f"checkpoint {path}: {key} holds {values.size} values, expected {model.n_params}")
    state["model"] = model
    state["ema_shadow_arr"] = ema_shadow
    state["velocity_arr"] = velocity
    return state


def check_fit(model: Model, pool: TargetPool | None, dataset: Dataset, split: DatasetSplit):
    """Raise ConfigurationError unless the model (and pool) were built for this data."""
    if model.k != dataset.k:
        raise ConfigurationError(
            f"model has {model.k} clusters but dataset has {dataset.k} classes"
        )
    in_dim = int(np.prod(dataset.item_shape))
    if model.in_dim != in_dim:
        raise ConfigurationError(
            f"model expects {model.in_dim}-dim inputs but dataset items have {in_dim}"
        )
    n_unlabeled = split.unlabeled_idx.size
    if pool is not None and pool.n != n_unlabeled:
        raise ConfigurationError(
            f"target pool covers {pool.n} unlabeled images but the split has {n_unlabeled}"
        )


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
        self.rows: list[dict] = []
        self.start_iter = 1
        # (cls_acc, clu_acc, perm) of the newest eval this call made; the
        # summary reuses it because nothing changes the EMA shadow after it
        self.last_eval: tuple[float, float, np.ndarray] | None = None

        self.in_dim = int(np.prod(dataset.item_shape))

    def fresh_state(self) -> None:
        cfg = self.cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.model = Model(
            self.in_dim, cfg.hidden_sizes, self.dataset.k, cfg.leaky_slope, rng=self.rng
        )
        self.pool = init_target_pool(self.split.unlabeled_idx.size, self.dataset.k, cfg.alpha, self.rng)
        self.opt = Sgd(self.model.n_params, cfg.momentum)
        self.ema = EmaState(self.model.params, cfg.ema_decay)

    def resume_state(self, path: str) -> None:
        state = load_checkpoint(path)
        if state["config"] != self.cfg.to_dict():
            raise ConfigurationError("checkpoint was produced by a different config; refusing to resume")
        if state["iteration"] > self.cfg.iters:
            raise ConfigurationError(f"checkpoint {path} is at iteration {state['iteration']}, "
                                     f"past the config's iters ({self.cfg.iters})")
        self.model = state["model"]
        try:
            self.pool = TargetPool.from_state(state["pool"]) if state["pool"] is not None else None
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"checkpoint {path} holds a damaged target pool: {exc!r}") from None
        check_fit(self.model, self.pool, self.dataset, self.split)
        self.ema = EmaState(state["ema_shadow_arr"], state["ema_decay"])
        self.opt = Sgd(self.model.n_params, self.cfg.momentum, state["velocity_arr"])
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = state["rng_state"]
        self.rows = list(state["rows"])
        self.start_iter = state["iteration"] + 1
        written = state["environment"]
        changed = [f"{key} {written[key]!r} -> {value!r}"
                   for key, value in _run_environment().items() if written[key] != value]
        if changed:
            logger.warning("resuming %s under other settings than it was written with (%s); "
                           "the run may not reproduce an uninterrupted one bit for bit",
                           path, ", ".join(changed))

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
        """A model on the EMA shadow itself: evaluation only reads it."""
        return Model.from_arch(self.model.arch(), self.ema.shadow)

    def run_warmup(self) -> None:
        for epoch in range(self.cfg.warmup_rot_epochs):
            if not self.rot_ok:
                break
            loss = rotation_epoch(
                self.model, self.dataset.features, self.split.unlabeled_idx,
                self.cfg, self.opt, self.ema, self.rng,
            )
            self.emit(_row(0, "warmup", epoch, L_r=loss))

    def run_iteration(self, t: int, on_cluster_epoch=None) -> None:
        cfg = self.cfg
        for epoch in range(cfg.e1):
            stats = run_epoch(
                self.model, self.dataset.features, self.dataset.labels,
                self.split.labeled_idx, self.split.unlabeled_idx,
                cfg, self.opt, self.ema, self.rng,
            )
            self.emit(_row(t, "ssl", epoch, L_s=stats.loss_s, L_u=stats.loss_u,
                           mask_rate=stats.mask_rate))
        for epoch in range(cfg.e2):
            stats = clustering_epoch(
                self.pool, self.model, self.dataset.features, self.split.unlabeled_idx,
                cfg, self.opt, self.ema, self.rng,
            )
            loss_r = None
            if self.rot_ok:
                loss_r = rotation_epoch(
                    self.model, self.dataset.features, self.split.unlabeled_idx,
                    cfg, self.opt, self.ema, self.rng,
                )
            # nan means no batch contributed (all skipped), not divergence
            loss_c = None if math.isnan(stats.loss_cluster) else stats.loss_cluster
            self.emit(_row(t, "cluster", epoch, L_c=loss_c, L_r=loss_r,
                           confident_count=stats.confident_count))
            if on_cluster_epoch is not None:
                on_cluster_epoch(self.pool, t, epoch)
        if self.split.test_idx.size:
            self.last_eval = evaluate(
                self.eval_model(),
                self.dataset.features[self.split.test_idx],
                self.dataset.labels[self.split.test_idx],
            )
            cls_acc, clu_acc, _ = self.last_eval
            self.emit(_row(t, "eval", 0, test_cls_acc=cls_acc, test_clu_acc=clu_acc))


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    split: DatasetSplit,
    out_dir: str | None = None,
    resume_from: str | None = None,
    on_cluster_epoch=None,
) -> RunRecord:
    """Run the full alternation schedule; returns the record of the run.

    With ``out_dir`` set, metrics.csv and the checkpoint (checkpoint.json
    and the tensor file it names) are refreshed after warmup and after every
    outer iteration, and summary.json at the end; a fresh run removes an
    earlier run's summary.json before its first write. On divergence the
    last finite checkpoint is kept and the error re-raised.
    ``on_cluster_epoch(pool, iter, epoch)`` is an instrumentation hook
    invoked after every clustering epoch.
    """
    if cfg.iters > 0 and cfg.e1 > 0 and split.labeled_idx.size == 0:
        raise ConfigurationError("semi-supervised epochs (e1 > 0) need at least one labeled image")
    driver = _Driver(cfg, dataset, split, out_dir)
    if resume_from is not None:
        driver.resume_state(resume_from)
    else:
        driver.fresh_state()
        driver.run_warmup()
        if out_dir is not None:
            with suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, "summary.json"))
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

    summary: dict = {
        "version": __version__,
        "config": cfg.to_dict(),
        "n_params": driver.model.n_params,
        "iterations_run": cfg.iters,
    }
    if split.test_idx.size:
        # every one of K! <= 100 permutations, else the best 100
        topk = 100 if driver.rot_ok and split.labeled_idx.size else 0
        summary.update(eval_summary(driver.eval_model(), dataset, split, topk,
                                    cfg.logit_temperature, driver.last_eval))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with _atomic_open(os.path.join(out_dir, "summary.json")) as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return RunRecord(driver.rows, summary, driver.model, driver.ema)
