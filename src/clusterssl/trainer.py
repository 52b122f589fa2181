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
    "pool": ("n", "k", "per_cluster", "img_class"),
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
    pool: TargetPool,
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
        "pool": pool.to_state(),
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
    for key in ("hidden_sizes", "leaky_slope"):
        if state["arch"][key] != state["config"][key]:
            raise ValueError(f"checkpoint {path}: arch.{key} {state['arch'][key]!r} differs from "
                             f"config.{key} {state['config'][key]!r}")
    if state["pool"]["k"] != model.k:
        raise ValueError(f"checkpoint {path}: pool.k {state['pool']['k']!r} is not arch.k {model.k}")
    try:
        TargetPool.from_state(state["pool"])
    except (AssertionError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: pool is not a valid target pool: {exc}") from None
    state["model"] = model
    state["ema_shadow_arr"] = ema_shadow
    state["velocity_arr"] = velocity
    return state


def check_fit(model: Model, dataset: Dataset) -> None:
    """Raise ConfigurationError unless the model was built for this data."""
    if model.k != dataset.k:
        raise ConfigurationError(
            f"model has {model.k} clusters but dataset has {dataset.k} classes"
        )
    in_dim = int(np.prod(dataset.item_shape))
    if model.in_dim != in_dim:
        raise ConfigurationError(
            f"model expects {model.in_dim}-dim inputs but dataset items have {in_dim}"
        )


# -- the trainer -----------------------------------------------------------


def _resume(path: str, cfg: TrainConfig, dataset: Dataset, split: DatasetSplit):
    """(model, pool, opt, ema, rng, rows, iteration) of the checkpoint at ``path``.

    Refuses a checkpoint of another config, past ``cfg.iters`` or built for
    other data; warns when the thread or numpy settings differ from the ones
    it was written under.
    """
    state = load_checkpoint(path)
    if state["config"] != cfg.to_dict():
        raise ConfigurationError("checkpoint was produced by a different config; refusing to resume")
    if state["iteration"] > cfg.iters:
        raise ConfigurationError(f"checkpoint {path} is at iteration {state['iteration']}, "
                                 f"past the config's iters ({cfg.iters})")
    model = state["model"]
    pool = TargetPool.from_state(state["pool"])
    check_fit(model, dataset)
    if pool.n != split.unlabeled_idx.size:
        raise ConfigurationError(f"target pool covers {pool.n} unlabeled images "
                                 f"but the split has {split.unlabeled_idx.size}")
    ema = EmaState(state["ema_shadow_arr"], state["ema_decay"])
    opt = Sgd(model.n_params, cfg.momentum, state["velocity_arr"])
    rng = np.random.default_rng()
    rng.bit_generator.state = state["rng_state"]
    written = state["environment"]
    changed = [f"{key} {written[key]!r} -> {value!r}"
               for key, value in _run_environment().items() if written[key] != value]
    if changed:
        logger.warning("resuming %s under other settings than it was written with (%s); "
                       "the run may not reproduce an uninterrupted one bit for bit",
                       path, ", ".join(changed))
    return model, pool, opt, ema, rng, list(state["rows"]), state["iteration"]


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    split: DatasetSplit,
    out_dir: str | None = None,
    resume_from: str | None = None,
) -> RunRecord:
    """Run the full alternation schedule, fresh or from the checkpoint at
    ``resume_from``; returns the record of the run.

    With ``out_dir`` set, the checkpoint (checkpoint.json and the tensor
    file it names) and then metrics.csv are refreshed after warmup and after
    every outer iteration, and summary.json at the end; a fresh run removes
    an earlier run's summary.json before its first write. On divergence the
    last finite checkpoint is kept and the error re-raised.
    """
    if cfg.iters > 0 and cfg.e1 > 0 and split.labeled_idx.size == 0:
        raise ConfigurationError("semi-supervised epochs (e1 > 0) need at least one labeled image")
    features, labels = dataset.features, dataset.labels
    unlabeled, test = split.unlabeled_idx, split.test_idx
    square = dataset.is_image and features.shape[1] == features.shape[2]
    rot_ok = cfg.rotnet and square
    if cfg.rotnet and not square and cfg.warmup_rot_epochs:
        logger.warning("rotation pretext disabled: data is not square-image shaped")

    def emit(row: dict) -> None:
        rows.append(row)
        for key in ("L_s", "L_u", "L_c", "L_r"):
            val = row.get(key)
            if val is None:
                continue
            if not math.isfinite(val):
                raise DivergenceError(f"{key} is non-finite")
            if val > cfg.divergence_limit:
                raise DivergenceError(f"{key} = {val} exceeds divergence limit")

    def write_metrics() -> None:
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        with _atomic_open(os.path.join(out_dir, "metrics.csv")) as fh:
            fh.write(rows_to_csv(rows))

    def save(iteration: int) -> None:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            save_checkpoint(
                os.path.join(out_dir, "checkpoint.json"), iteration=iteration, model=model,
                ema=ema, opt=opt, pool=pool, rng=rng, cfg=cfg, rows=rows,
            )
        write_metrics()

    def eval_model() -> Model:
        """A model on the EMA shadow itself: evaluation only reads it."""
        return Model.from_arch(model.arch(), ema.shadow)

    if resume_from is not None:
        model, pool, opt, ema, rng, rows, done = _resume(resume_from, cfg, dataset, split)
    else:
        rng = np.random.default_rng(cfg.seed)
        model = Model(int(np.prod(dataset.item_shape)), cfg.hidden_sizes, dataset.k,
                      cfg.leaky_slope, rng=rng)
        pool = init_target_pool(unlabeled.size, dataset.k, cfg.alpha, rng)
        opt = Sgd(model.n_params, cfg.momentum)
        ema = EmaState(model.params, cfg.ema_decay)
        rows, done = [], 0
        for epoch in range(cfg.warmup_rot_epochs if rot_ok else 0):
            loss = rotation_epoch(model, features, unlabeled, cfg, opt, ema, rng)
            emit({"iter": 0, "phase": "warmup", "epoch": epoch, "L_r": loss})
        if out_dir is not None:
            with suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, "summary.json"))
        save(0)

    # (cls_acc, clu_acc, perm) of the newest eval this call made; the
    # summary reuses it because nothing changes the EMA shadow after it
    last_eval = None
    try:
        for t in range(done + 1, cfg.iters + 1):
            for epoch in range(cfg.e1):
                stats = run_epoch(model, features, labels, split.labeled_idx, unlabeled,
                                  cfg, opt, ema, rng)
                emit({"iter": t, "phase": "ssl", "epoch": epoch, "L_s": stats.loss_s,
                      "L_u": stats.loss_u, "mask_rate": stats.mask_rate})
            for epoch in range(cfg.e2):
                stats = clustering_epoch(pool, model, features, unlabeled, cfg, opt, ema, rng)
                loss_r = None
                if rot_ok:
                    loss_r = rotation_epoch(model, features, unlabeled, cfg, opt, ema, rng)
                # nan means no batch contributed (all skipped), not divergence
                loss_c = None if math.isnan(stats.loss_cluster) else stats.loss_cluster
                emit({"iter": t, "phase": "cluster", "epoch": epoch, "L_c": loss_c, "L_r": loss_r,
                      "confident_count": stats.confident_count})
            if test.size:
                last_eval = evaluate(eval_model(), features[test], labels[test])
                emit({"iter": t, "phase": "eval", "epoch": 0,
                      "test_cls_acc": last_eval[0], "test_clu_acc": last_eval[1]})
            save(t)
    except DivergenceError:
        logger.exception("run diverged; last finite checkpoint kept")
        write_metrics()
        raise

    summary = {"version": __version__, "config": cfg.to_dict(),
               "n_params": model.n_params, "iterations_run": cfg.iters}
    if test.size:
        # every one of K! <= 100 permutations, else the best 100
        topk = 100 if rot_ok and split.labeled_idx.size else 0
        summary.update(eval_summary(eval_model(), dataset, split, topk,
                                    cfg.logit_temperature, last_eval))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with _atomic_open(os.path.join(out_dir, "summary.json")) as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return RunRecord(rows, summary, model, ema)
