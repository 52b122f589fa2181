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

An image batch is augmented op by op: each op makes one sized draw for
all n images it touches and changes them at once. An op of zero
magnitude draws nothing, and no draw depends on a pixel. The draw order
is:

* weak and cluster: the jitter field (n, *shape) (cluster only), the
  flips (n,), then the shifts (n, 2) as (dy, dx).
* strong: the op choices (n, 2), unless every op has zero magnitude; then
  for slot 0 and then slot 1, each op in `_STRONG_OPS` order draws for the
  m images that chose it in that slot: translate its shifts (m, 2),
  jitter its field (m, *shape), contrast its factors (m,), noise its field
  (m, *shape); then the cutout centres (n, 2).

Translate is one gather of mirrored indices, flips reverse an axis,
jitter and noise add the drawn fields, contrast scales each image about
its mean as it stands, and cutout is a mask.
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


def _shift_bound(spec: AugmentSpec) -> np.ndarray:
    """Largest shift (dy, dx) a translate may draw."""
    return np.array([round(d * spec.max_translate_frac) for d in spec.data_shape[:2]])


def _apply_images(spec: AugmentSpec, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The image pipeline over the batch, op by op in the module docstring's order."""
    n, shape, bound = len(xs), spec.data_shape, _shift_bound(spec)
    if spec.kind != "strong":
        s = spec.jitter_strength if spec.kind == "cluster" else 0.0
        out = xs + rng.uniform(-s, s, size=(n,) + shape) if s else xs.copy()
        if spec.flip_prob:
            flips = rng.random(n) < spec.flip_prob
            out[flips] = out[flips, :, ::-1]
        if bound.any():
            out = _translate(out, rng.integers(-bound, bound + 1, size=(n, 2)))
        return out
    s, sigma = spec.jitter_strength, spec.noise_sigma
    out = xs.copy()
    active = (bound.any(), s, s, sigma)  # in _STRONG_OPS order
    if any(active):
        ops = rng.integers(0, len(_STRONG_OPS), size=(n, _N_STRONG_DRAWS))
        for slot in range(_N_STRONG_DRAWS):
            for op_idx, op in enumerate(_STRONG_OPS):
                idx = np.flatnonzero(ops[:, slot] == op_idx)
                if not (active[op_idx] and idx.size):
                    continue
                sub = out[idx]
                if op == "translate":
                    sub = _translate(sub, rng.integers(-bound, bound + 1, size=(idx.size, 2)))
                elif op == "jitter":
                    sub += rng.uniform(-s, s, size=(idx.size,) + shape)
                elif op == "contrast":
                    factors = 1.0 + rng.uniform(-s, s, size=idx.size)
                    mean = sub.mean(axis=tuple(range(1, sub.ndim)), keepdims=True)
                    sub = mean + (sub - mean) * factors.reshape(mean.shape)
                else:
                    sub += rng.normal(0.0, sigma, size=(idx.size,) + shape)
                out[idx] = sub
    if spec.cutout_frac:
        h, w = shape[:2]
        centres = rng.integers(0, (h, w), size=(n, 2))
        side = np.array([max(1, round(dim * np.sqrt(spec.cutout_frac))) for dim in (h, w)])
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
    return _apply_images(spec, xs, rng)
