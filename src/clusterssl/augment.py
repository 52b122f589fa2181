"""Seeded stochastic augmentation for image grids and feature vectors.

Three pipelines per data kind:

* image weak     flip(p) -> integer translate within max_translate_frac,
                 mirror padded
* image cluster  per-pixel jitter -> flip(p) -> mirror-pad crop
* image strong   two random ops from {translate, jitter, contrast,
                 additive noise} -> cutout of cutout_frac area
* vector weak    additive Gaussian noise (sigma)
* vector cluster same as weak
* vector strong  stronger Gaussian noise plus coordinate dropout

Vector pipelines are an extension for non-image data; the image pipelines
are the reference behavior. Ops with zero magnitude are skipped outright
so an all-zero AugmentSpec is an exact identity. Every draw comes from
the generator the caller hands in, so outputs are byte-reproducible.

Image batches run in two passes: draws per image in pipeline order; pixel
work per batch. The first pass makes each image's draws in turn, one call
at a time, skipping the zero-magnitude ops; no draw depends on a pixel.
The second applies each op once to all images that drew it: translate is
one gather of mirrored indices, flips reverse an axis, jitter and noise
add the stacked drawn fields, cutout is a mask, and the strong pipeline's
first op slot runs before its second. Output and generator state are
those of running the pipeline on one image at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KINDS = ("weak", "strong", "cluster")

# strong image ops drawn per application
_STRONG_OPS = ("translate", "jitter", "contrast", "noise")
_N_STRONG_DRAWS = 2


@dataclass(frozen=True)
class AugmentSpec:
    """Full parameterization of one augmentation pipeline."""

    kind: str
    data_shape: tuple[int, ...]
    flip_prob: float = 0.5
    max_translate_frac: float = 0.125
    jitter_strength: float = 0.2
    cutout_frac: float = 0.25
    noise_sigma: float = 0.1
    dropout_prob: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "data_shape", tuple(int(s) for s in self.data_shape))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len(self.data_shape) not in (1, 2, 3):
            raise ValueError(f"data_shape must be (d,), (h, w) or (h, w, ch), got {self.data_shape}")
        if any(s < 1 for s in self.data_shape):
            raise ValueError(f"data_shape dims must be positive, got {self.data_shape}")
        for name in ("flip_prob", "max_translate_frac", "cutout_frac", "dropout_prob"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        if self.jitter_strength < 0 or self.noise_sigma < 0:
            raise ValueError("jitter_strength and noise_sigma must be >= 0")

    @property
    def is_image(self) -> bool:
        return len(self.data_shape) >= 2


def spec_for(kind: str, data_shape, **overrides) -> AugmentSpec:
    """Pipeline spec with per-kind default magnitudes (strong noise is 3x weak)."""
    sigma = 0.3 if kind == "strong" else 0.1
    base = AugmentSpec(kind=kind, data_shape=tuple(data_shape), noise_sigma=sigma)
    return replace(base, **overrides) if overrides else base


def rotate90_batch(xs: np.ndarray, quarters: int) -> np.ndarray:
    """Rotate every (h, w[, ch]) image of a batch by quarters * 90 degrees counterclockwise."""
    return np.ascontiguousarray(np.rot90(xs, k=quarters % 4, axes=(1, 2)))


def _reflect(pos: np.ndarray, size: int) -> np.ndarray:
    """Source index of each position on an axis padded like np.pad(mode="reflect")."""
    if size == 1:
        return np.zeros_like(pos)  # numpy pads a 1-pixel axis with its edge
    period = 2 * (size - 1)
    pos = pos % period
    return np.where(pos < size, pos, period - pos)


def _translate(xs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Image i moved by shifts[i] = (dy, dx), mirror padded, as one gather."""
    n, h, w = xs.shape[:3]
    rows = _reflect(np.arange(h) + shifts[:, :1], h)
    cols = _reflect(np.arange(w) + shifts[:, 1:], w)
    return xs[np.arange(n)[:, None, None], rows[:, :, None], cols[:, None, :]]


def _draw_shift(my: int, mx: int, rng: np.random.Generator) -> tuple[int, int]:
    # two scalar draws: one sized draw would consume the stream differently
    dy = int(rng.integers(-my, my + 1)) if my else 0
    dx = int(rng.integers(-mx, mx + 1)) if mx else 0
    return dy, dx


def _crop_mean(x: np.ndarray) -> float:
    # x.mean() as numpy sums a crop of a padded image: rows not contiguous,
    # which above its 8192-item reduction buffer changes the summation order
    buf = np.empty((x.shape[0], x.shape[1] + 1) + x.shape[2:])
    buf[:, :-1] = x
    return buf[:, :-1].mean()


def _flip_translate_batch(spec: AugmentSpec, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Weak and cluster pipelines: [jitter ->] flip -> translate."""
    n = xs.shape[0]
    my, mx = (round(d * spec.max_translate_frac) for d in spec.data_shape[:2])
    s = spec.jitter_strength if spec.kind == "cluster" else 0.0
    fields, flips, shifts = [], np.zeros(n, dtype=bool), np.zeros((n, 2), dtype=np.int64)
    for i in range(n):
        if s:
            fields.append(rng.uniform(-s, s, size=spec.data_shape))
        flips[i] = spec.flip_prob and rng.random() < spec.flip_prob
        if my or mx:
            shifts[i] = _draw_shift(my, mx, rng)
    out = xs + np.stack(fields) if fields else xs.copy()
    out[flips] = out[flips, :, ::-1]
    return _translate(out, shifts) if my or mx else out


def _strong_batch(spec: AugmentSpec, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Strong pipeline: two ops drawn per image -> cutout."""
    n, h, w = xs.shape[:3]
    my, mx = round(h * spec.max_translate_frac), round(w * spec.max_translate_frac)
    s, sigma = spec.jitter_strength, spec.noise_sigma
    # (slot, op) -> the images that drew it, and their draws; slot 0 applies first
    drawn = {(slot, op): ([], []) for slot in range(_N_STRONG_DRAWS) for op in _STRONG_OPS}
    centres = np.zeros((n, 2), dtype=np.int64)
    for i in range(n):
        for slot, op_idx in enumerate(rng.integers(0, len(_STRONG_OPS), size=_N_STRONG_DRAWS)):
            op = _STRONG_OPS[op_idx]
            if op == "translate":
                draw = _draw_shift(my, mx, rng) if my or mx else None
            elif op == "jitter":
                draw = rng.uniform(-s, s, size=spec.data_shape) if s else None
            elif op == "contrast":
                draw = 1.0 + float(rng.uniform(-s, s)) if s else None
            else:
                draw = rng.normal(0.0, sigma, size=spec.data_shape) if sigma else None
            if draw is not None:
                drawn[slot, op][0].append(i)
                drawn[slot, op][1].append(draw)
        if spec.cutout_frac:
            centres[i] = int(rng.integers(0, h)), int(rng.integers(0, w))

    out = xs.copy()
    cropped = np.zeros(n, dtype=bool)  # one image at a time, these would be padded crops
    per_image = (-1,) + (1,) * (xs.ndim - 1)
    for (slot, op), (idx, draws) in drawn.items():
        if not idx:
            continue
        idx = np.array(idx)
        if op == "translate":
            shifts = np.array(draws)
            out[idx] = _translate(out[idx], shifts)
            cropped[idx] = shifts.any(axis=1)
        elif op == "contrast":
            mean = np.array([_crop_mean(out[i]) if cropped[i] else out[i].mean() for i in idx])
            mean = mean.reshape(per_image)
            out[idx] = mean + (out[idx] - mean) * np.array(draws).reshape(per_image)
        else:
            out[idx] += np.stack(draws)
    if spec.cutout_frac:
        side = np.array([max(1, round(d * np.sqrt(spec.cutout_frac))) for d in (h, w)])
        lo = np.maximum(0, centres - side // 2)
        hi = np.minimum((h, w), centres - side // 2 + side)
        in_y = (lo[:, :1] <= np.arange(h)) & (np.arange(h) < hi[:, :1])
        in_x = (lo[:, 1:] <= np.arange(w)) & (np.arange(w) < hi[:, 1:])
        out[in_y[:, :, None] & in_x[:, None, :]] = 0.0
    return out


def _gauss_noise(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma == 0:
        return x
    return x + rng.normal(0.0, sigma, size=x.shape)


def _apply_vector(spec: AugmentSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = _gauss_noise(x, spec.noise_sigma, rng)
    if spec.kind == "strong" and spec.dropout_prob:
        keep = rng.random(size=x.shape) >= spec.dropout_prob
        x = x * keep
    return x


def apply_batch(spec: AugmentSpec, xs, rng: np.random.Generator) -> np.ndarray:
    """Independent augmentations over the leading batch axis."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[1:] != spec.data_shape:
        raise ValueError(f"batch item shape {xs.shape[1:]} does not match spec shape {spec.data_shape}")
    if not spec.is_image:
        # vector pipelines vectorize over the whole batch
        out = _apply_vector(spec, xs, rng)
        return out if out is not xs else xs.copy()
    pipeline = _strong_batch if spec.kind == "strong" else _flip_translate_batch
    return pipeline(spec, xs, rng)
