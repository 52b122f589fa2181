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


def flip_image(x: np.ndarray) -> np.ndarray:
    """Horizontal mirror (width axis). Involution: flip(flip(x)) == x."""
    return np.ascontiguousarray(x[:, ::-1])


def rotate90(x: np.ndarray, quarters: int) -> np.ndarray:
    """Rotate an (h, w[, ch]) image by quarters * 90 degrees counterclockwise."""
    return np.ascontiguousarray(np.rot90(x, k=quarters % 4, axes=(0, 1)))


def rotate90_batch(xs: np.ndarray, quarters: int) -> np.ndarray:
    return np.ascontiguousarray(np.rot90(xs, k=quarters % 4, axes=(1, 2)))


def _translate(x: np.ndarray, dy: int, dx: int) -> np.ndarray:
    if dy == 0 and dx == 0:
        return x
    h, w = x.shape[:2]
    m = max(abs(dy), abs(dx))
    pad = [(m, m), (m, m)] + [(0, 0)] * (x.ndim - 2)
    padded = np.pad(x, pad, mode="reflect")
    return padded[m + dy : m + dy + h, m + dx : m + dx + w]


def _draw_translate(x: np.ndarray, frac: float, rng: np.random.Generator) -> np.ndarray:
    h, w = x.shape[:2]
    my, mx = round(h * frac), round(w * frac)
    if my == 0 and mx == 0:
        return x
    dy = int(rng.integers(-my, my + 1)) if my else 0
    dx = int(rng.integers(-mx, mx + 1)) if mx else 0
    return _translate(x, dy, dx)


def _jitter(x: np.ndarray, strength: float, rng: np.random.Generator) -> np.ndarray:
    if strength == 0:
        return x
    return x + rng.uniform(-strength, strength, size=x.shape)


def _contrast(x: np.ndarray, strength: float, rng: np.random.Generator) -> np.ndarray:
    if strength == 0:
        return x
    factor = 1.0 + float(rng.uniform(-strength, strength))
    mean = x.mean()
    return mean + (x - mean) * factor


def _gauss_noise(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma == 0:
        return x
    return x + rng.normal(0.0, sigma, size=x.shape)


def _cutout(x: np.ndarray, frac: float, rng: np.random.Generator) -> np.ndarray:
    if frac == 0:
        return x
    h, w = x.shape[:2]
    side_y = max(1, round(h * np.sqrt(frac)))
    side_x = max(1, round(w * np.sqrt(frac)))
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    y0, y1 = max(0, cy - side_y // 2), min(h, cy - side_y // 2 + side_y)
    x0, x1 = max(0, cx - side_x // 2), min(w, cx - side_x // 2 + side_x)
    out = x.copy()
    out[y0:y1, x0:x1] = 0.0
    return out


def _apply_image(spec: AugmentSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "strong":
        for op_idx in rng.integers(0, len(_STRONG_OPS), size=_N_STRONG_DRAWS):
            op = _STRONG_OPS[op_idx]
            if op == "translate":
                x = _draw_translate(x, spec.max_translate_frac, rng)
            elif op == "jitter":
                x = _jitter(x, spec.jitter_strength, rng)
            elif op == "contrast":
                x = _contrast(x, spec.jitter_strength, rng)
            else:
                x = _gauss_noise(x, spec.noise_sigma, rng)
        return _cutout(x, spec.cutout_frac, rng)
    if spec.kind == "cluster":
        x = _jitter(x, spec.jitter_strength, rng)
    if spec.flip_prob and rng.random() < spec.flip_prob:
        x = flip_image(x)
    return _draw_translate(x, spec.max_translate_frac, rng)


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
    return np.stack([_apply_image(spec, x, rng) for x in xs]) if len(xs) else xs.copy()
