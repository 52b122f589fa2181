"""Dataset synthesis, partitioning, and a small binary tensor format.

Two generators cover the desk-scale regimes: a separated Gaussian mixture
for vector experiments and procedural grayscale shape images for the
rotation pretext path. partition() carves a dataset into test / labeled /
unlabeled index sets; the unlabeled pool deliberately contains the labeled
points too, because the clustering phase ignores labels and should see
every training image.

Each generator draws from ``default_rng(seed)`` in a fixed order, which
the tests pin against a per-image reference:

* shapes: for each image, in label order, four doubles (off_y, off_x,
  scale, amp) then size² standard normals scaled by 0.05; then one
  permutation of n. The images are drawn one at a time, because the
  normal sampler consumes a variable number of words, and are then
  rasterized in array passes, one class block at a time.
* mixture: n×d standard normals, then one permutation of n.

Record files hold one tensor each: magic ``CSSR``, version byte, dtype
code byte, ndim byte, ndim little-endian u32 dims, then the row-major
payload. A dataset file is two consecutive records (features, labels).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAGIC = b"CSSR"
RECORD_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("u1")}
_CODE_FOR_DTYPE = {v: k for k, v in _DTYPE_CODES.items()}

# canonical shape classes; all are asymmetric under 90-degree rotation and
# no rotation of one reproduces another
SHAPE_NAMES = ("l_bracket", "t_bar", "wedge", "diag_dot", "cup", "lollipop")

# make_shape_images rasterizes at most this many pixels per _shape_mask call,
# which bounds each float64 temporary at 64 KB
_RASTER_BLOCK_PIXELS = 8192


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label arrays plus the class count."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        # casting would truncate fractional labels into classes silently
        if not np.issubdtype(labs.dtype, np.integer):
            raise ValueError(f"labels must have an integer dtype, got {labs.dtype}")
        labs = np.ascontiguousarray(labs, dtype=np.int64)
        if feats.ndim < 2:
            raise ValueError(f"features must be (n, ...), got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labs.shape} does not match {feats.shape[0]} items")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if labs.size and (labs.min() < 0 or labs.max() >= self.k):
            raise ValueError(f"labels out of range [0, {self.k})")
        present = np.unique(labs)
        if present.size != self.k:
            missing = sorted(set(range(self.k)) - set(present.tolist()))
            raise ValueError(f"classes {missing} have no items")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def item_shape(self) -> tuple[int, ...]:
        return self.features.shape[1:]

    @property
    def is_image(self) -> bool:
        return self.features.ndim >= 3


@dataclass(frozen=True)
class DatasetSplit:
    """Index sets over one Dataset. labeled is a subset of the unlabeled pool."""

    labeled_by_class: tuple[np.ndarray, ...]
    unlabeled_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def labeled_idx(self) -> np.ndarray:
        if not self.labeled_by_class:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.labeled_by_class)

    def check(self, ds: Dataset, labels_per_class: int) -> None:
        """Raise if any structural invariant is violated."""
        test = set(self.test_idx.tolist())
        pool = set(self.unlabeled_idx.tolist())
        if test & pool:
            raise AssertionError("test indices leak into the training pool")
        if len(self.labeled_by_class) != ds.k:
            raise AssertionError("labeled_by_class must have one entry per class")
        for cls, idx in enumerate(self.labeled_by_class):
            if idx.shape[0] != labels_per_class:
                raise AssertionError(f"class {cls} has {idx.shape[0]} labeled points, want {labels_per_class}")
            if not np.all(ds.labels[idx] == cls):
                raise AssertionError(f"labeled indices for class {cls} carry wrong labels")
            if not set(idx.tolist()) <= pool:
                raise AssertionError("labeled points must be members of the unlabeled pool")


# The checks below need no data, so config loading runs them too; their
# messages name the config key that holds each value.


def check_gaussian_mixture(k: int, n: int, d: int, separation: float, min_k: int = 1) -> None:
    """Raise ConfigurationError unless make_gaussian_mixture accepts these values.

    ``min_k`` raises the lower bound on k for a caller that needs more classes
    than the generator does.
    """
    if k < min_k:
        raise ConfigurationError(f"dataset.k must be >= {min_k}, got {k}")
    for key, value in (("n", n), ("d", d)):
        if value < 1:
            raise ConfigurationError(f"dataset.{key} must be >= 1, got {value}")
    if n < k:
        raise ConfigurationError(f"dataset.n must be >= dataset.k (one point per class), got n={n} < k={k}")
    if separation < 0:
        raise ConfigurationError(f"dataset.separation must be >= 0, got {separation}")
    if separation > 0 and d < k:
        raise ConfigurationError(f"dataset.d must be >= dataset.k for simplex means, got d={d} < k={k}")


def check_shape_images(k: int, n: int, size: int, min_k: int = 1) -> None:
    """Raise ConfigurationError unless make_shape_images accepts these values.

    ``min_k`` is as in check_gaussian_mixture.
    """
    if not 8 <= size <= 32:
        raise ConfigurationError(f"dataset.size must be in [8, 32], got {size}")
    if not min_k <= k <= len(SHAPE_NAMES):
        raise ConfigurationError(f"dataset.k must be in [{min_k}, {len(SHAPE_NAMES)}], got {k}")
    if n < k:
        raise ConfigurationError(f"dataset.n must be >= dataset.k (one image per class), got n={n} < k={k}")


def check_split(labels_per_class: int, test_frac: float) -> None:
    """Raise ConfigurationError unless partition accepts these values for some dataset."""
    if not 0.0 <= test_frac < 1.0:
        raise ConfigurationError(f"split.test_frac must be in [0, 1), got {test_frac}")
    if labels_per_class < 1:
        raise ConfigurationError(f"split.labels_per_class must be >= 1, got {labels_per_class}")


def make_gaussian_mixture(k: int, n: int, d: int, separation: float, seed: int) -> Dataset:
    """n points from k unit-variance spherical Gaussians, balanced within 1.

    Means sit on a scaled simplex so every pair is exactly ``separation``
    apart, which needs d >= k whenever separation > 0.
    """
    check_gaussian_mixture(k, n, d, separation)
    rng = np.random.default_rng(seed)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    feats = rng.standard_normal((n, d))
    # normal(0.0, 1.0) returns 0.0 + z, which turns a -0.0 into +0.0
    feats += 0.0
    if separation > 0:
        # the mean of class c is separation / sqrt(2) on axis c, zero elsewhere
        feats[np.arange(n), labels] += separation / np.sqrt(2.0)
    order = rng.permutation(n)
    return Dataset(feats[order], labels[order], k)


def _shape_mask(name: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Canonical mask on normalized coordinates u (down) and v (right) in [0,1]."""
    t = 0.16
    box = (u >= 0.1) & (u <= 0.9) & (v >= 0.1) & (v <= 0.9)
    if name == "l_bracket":
        return box & ((v <= 0.1 + t) | (u >= 0.9 - t))
    if name == "t_bar":
        return box & ((u <= 0.1 + t) | (np.abs(v - 0.5) <= t / 2))
    if name == "wedge":
        return box & (u >= v)
    if name == "diag_dot":
        diag = box & (np.abs(u - v) <= t / 2)
        dot = (u >= 0.1) & (u <= 0.1 + 2 * t) & (v >= 0.1) & (v <= 0.1 + 2 * t)
        return diag | dot
    if name == "cup":
        return box & ((v <= 0.1 + t) | (v >= 0.9 - t) | (u >= 0.9 - t))
    if name == "lollipop":
        # head must stay wider than the stick after coarse rasterization,
        # otherwise the 180-degree view degenerates to a plain bar
        stick = (u >= 0.3) & (u <= 0.9) & (np.abs(v - 0.5) <= t / 2)
        head = (u >= 0.1) & (u <= 0.34) & (v >= 0.28) & (v <= 0.72)
        return stick | head
    raise ValueError(f"unknown shape {name!r}")


def _uniform(lo: float, hi: float, d: np.ndarray) -> np.ndarray:
    """What Generator.uniform(lo, hi) returns for each double d that random() drew."""
    return lo + (hi - lo) * d


def make_shape_images(k: int, n: int, size: int, seed: int) -> Dataset:
    """n grayscale size x size images of k procedural shape classes.

    Position, scale, and intensity are jittered per image and Gaussian
    pixel noise added. Shapes are chosen so each looks different under
    every multiple of 90 degrees, keeping rotation labels unambiguous.
    """
    check_shape_images(k, n, size)
    rng = np.random.default_rng(seed)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    # the normal sampler consumes a variable number of words per value, so
    # each image's four doubles must be drawn after the previous image's noise
    draws = np.empty((n, 4))
    feats = np.empty((n, size, size))
    for i in range(n):
        rng.random(out=draws[i])
        rng.standard_normal(out=feats[i])
    # normal(0.0, 0.05) returns 0.0 + 0.05 z; adding a non-negative amp * mask
    # below maps -0.0 to +0.0 just as that 0.0 + does
    feats *= 0.05
    off_y, off_x = (_uniform(-0.08, 0.08, draws[:, j])[:, None, None] for j in (0, 1))
    scale = _uniform(0.8, 1.0, draws[:, 2])[:, None, None]
    amp = _uniform(0.8, 1.2, draws[:, 3])[:, None, None]
    grid = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(grid - 0.5, grid - 0.5, indexing="ij")
    block = max(1, _RASTER_BLOCK_PIXELS // (size * size))
    ends = np.cumsum(counts)
    for cls, end in enumerate(ends):
        for lo in range(end - counts[cls], end, block):
            s = slice(lo, min(lo + block, end))
            u = (yy - off_y[s]) / scale[s] + 0.5
            v = (xx - off_x[s]) / scale[s] + 0.5
            feats[s] += amp[s] * _shape_mask(SHAPE_NAMES[cls], u, v)
    order = rng.permutation(n)
    return Dataset(feats[order], labels[order], k)


def partition(ds: Dataset, labels_per_class: int, test_frac: float, seed: int) -> DatasetSplit:
    """Stratified test carve-out, then a stratified labeled pick.

    Everything outside the test set forms the unlabeled pool, including
    the labeled points themselves.
    """
    check_split(labels_per_class, test_frac)
    rng = np.random.default_rng(seed)
    test_parts = []
    train_parts = []
    for cls in range(ds.k):
        members = np.flatnonzero(ds.labels == cls)
        members = members[rng.permutation(members.size)]
        n_test = round(test_frac * members.size)
        test_parts.append(members[:n_test])
        train_parts.append(members[n_test:])
    labeled = []
    for cls, pool in enumerate(train_parts):
        if pool.size < labels_per_class:
            raise ConfigurationError(
                f"class {cls} has {pool.size} training points, cannot label {labels_per_class}"
            )
        labeled.append(np.sort(pool[:labels_per_class]).astype(np.int64))
    unlabeled = np.sort(np.concatenate(train_parts)).astype(np.int64)
    test_idx = np.sort(np.concatenate(test_parts)).astype(np.int64)
    return DatasetSplit(tuple(labeled), unlabeled, test_idx)


def write_record(fh, arr: np.ndarray) -> None:
    """Append one tensor record to an open binary file."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float64:
        arr = arr.astype("<f8", copy=False)
    elif arr.dtype == np.int64:
        arr = arr.astype("<i8", copy=False)
    code = _CODE_FOR_DTYPE.get(arr.dtype)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype}; use float64, int64, or uint8")
    if arr.ndim > 255:
        raise ValueError("too many dimensions")
    fh.write(MAGIC + struct.pack(f"<BBB{arr.ndim}I", RECORD_VERSION, code, arr.ndim, *arr.shape))
    fh.write(memoryview(arr.reshape(-1)).cast("B"))


def read_record(fh) -> np.ndarray:
    """Read one tensor record into a new array; raises ValueError on corrupt or truncated data.

    Each message names the stream offset at which the bad field starts. A
    payload longer than the rest of the stream is refused before anything
    is allocated for it.
    """
    start = fh.tell()
    head = fh.read(7)
    if len(head) < 7:
        raise ValueError(f"truncated record header at offset {start}")
    if head[:4] != MAGIC:
        raise ValueError(f"bad magic {head[:4]!r} at offset {start}, expected {MAGIC!r}")
    version, code, ndim = struct.unpack("<BBB", head[4:])
    if version != RECORD_VERSION:
        raise ValueError(f"unsupported record version {version} at offset {start + 4}")
    if code not in _DTYPE_CODES:
        raise ValueError(f"unknown dtype code {code} at offset {start + 5}")
    dim_bytes = fh.read(4 * ndim)
    if len(dim_bytes) < 4 * ndim:
        raise ValueError(f"truncated record dims at offset {start + 7}")
    shape = struct.unpack(f"<{ndim}I", dim_bytes)
    dtype = _DTYPE_CODES[code]
    nbytes = math.prod(shape) * dtype.itemsize
    payload_at = start + 7 + 4 * ndim
    if nbytes > fh.seek(0, io.SEEK_END) - payload_at:
        raise ValueError(f"truncated record payload at offset {payload_at}")
    fh.seek(payload_at)
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != nbytes:
        raise ValueError(f"truncated record payload at offset {payload_at}")
    return arr


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "wb") as fh:
        write_record(fh, ds.features)
        write_record(fh, ds.labels)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        feats = read_record(fh)
        labels = read_record(fh)
    if labels.size == 0:
        raise ValueError("dataset file has no items")
    k = int(labels.max()) + 1
    return Dataset(feats, labels, k)
