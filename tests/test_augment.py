from dataclasses import replace

import numpy as np
import pytest

from clusterssl.augment import (
    KINDS,
    AugmentSpec,
    apply_batch,
    rotate90_batch,
    spec_for,
)


IMG = (8, 8)
VEC = (16,)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for("mild", IMG)
    with pytest.raises(ValueError):
        AugmentSpec(kind="weak", data_shape=IMG, flip_prob=1.5)
    with pytest.raises(ValueError):
        AugmentSpec(kind="weak", data_shape=IMG, cutout_frac=2.0)
    with pytest.raises(ValueError):
        AugmentSpec(kind="weak", data_shape=())


def test_strong_defaults_are_harsher():
    weak = spec_for("weak", VEC)
    strong = spec_for("strong", VEC)
    assert strong.noise_sigma > weak.noise_sigma


def test_deterministic_given_seed(rng):
    spec = spec_for("strong", IMG)
    xs = rng.normal(size=(3,) + IMG)
    a = apply_batch(spec, xs, np.random.default_rng(77))
    b = apply_batch(spec, xs, np.random.default_rng(77))
    assert np.array_equal(a, b)
    c = apply_batch(spec, xs, np.random.default_rng(99))
    assert not np.array_equal(a, c)
    with pytest.raises(TypeError):
        apply_batch(spec, xs)  # no hidden generator to fall back on


def test_identity_when_magnitudes_zero(rng):
    spec = AugmentSpec(kind="weak", data_shape=VEC, noise_sigma=0.0,
                       flip_prob=0.0, max_translate_frac=0.0)
    xs = rng.normal(size=(3,) + VEC)
    out = apply_batch(spec, xs, np.random.default_rng(0))
    assert np.array_equal(out, xs)
    assert out is not xs  # caller may mutate the result freely


def test_shape_mismatch_rejected(rng):
    spec = spec_for("weak", IMG)
    with pytest.raises(ValueError):
        apply_batch(spec, rng.normal(size=(2, 4, 4)), rng)


def test_image_augs_preserve_shape_and_finiteness(rng):
    xs = rng.normal(size=(3,) + IMG)
    for kind in ("weak", "strong", "cluster"):
        out = apply_batch(spec_for(kind, IMG), xs, rng)
        assert out.shape == xs.shape
        assert np.all(np.isfinite(out))


def test_cutout_zeroes_a_window(rng):
    spec = AugmentSpec(kind="strong", data_shape=IMG, flip_prob=0.0,
                       max_translate_frac=0.0, jitter_strength=0.0,
                       noise_sigma=0.0, cutout_frac=0.25)
    out = apply_batch(spec, np.ones((3,) + IMG), np.random.default_rng(3))
    for img in out:
        assert (img == 0.0).sum() >= 4  # side = round(8 * 0.5) = 4, clamped window
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_vector_batch_matches_per_item(rng):
    # The strong vector pipeline draws the whole batch's noise before its
    # dropout mask, so its batch output does not match row-by-row calls.
    x = rng.normal(size=(5,) + VEC)
    for kind in ("weak", "cluster"):
        spec = spec_for(kind, VEC)
        batch = apply_batch(spec, x, np.random.default_rng(11))
        one = np.random.default_rng(11)
        rows = np.concatenate([apply_batch(spec, x[i : i + 1], one) for i in range(len(x))])
        assert np.array_equal(batch.view(np.uint64), rows.view(np.uint64))
        assert not np.array_equal(batch, x)


def test_rotate90_cycle(rng):
    xs = rng.normal(size=(3,) + IMG)
    once = rotate90_batch(xs, 1)
    assert np.array_equal(rotate90_batch(rotate90_batch(rotate90_batch(once, 1), 1), 1), xs)
    assert np.array_equal(rotate90_batch(xs, 0), xs)
    assert np.array_equal(rotate90_batch(xs, 2), rotate90_batch(once, 1))
    assert np.array_equal(rotate90_batch(xs, -1), rotate90_batch(xs, 3))


def test_rotate90_batch_matches_single(rng):
    xs = rng.normal(size=(3,) + IMG)
    rotated = rotate90_batch(xs, 3)
    for i in range(3):
        assert np.array_equal(rotated[i], np.rot90(xs[i], k=3))


def test_translate_stays_within_bound(rng):
    # max shift of 12.5% on 8px is 1px: a distinctive corner can move by at most 1
    spec = AugmentSpec(kind="weak", data_shape=IMG, flip_prob=0.0,
                       max_translate_frac=0.125, noise_sigma=0.0)
    xs = np.zeros((20,) + IMG)
    xs[:, 4, 4] = 1.0
    for out in apply_batch(spec, xs, np.random.default_rng(0)):
        iy, ix = np.unravel_index(np.argmax(out), IMG)
        assert abs(iy - 4) <= 1 and abs(ix - 4) <= 1


# Per-image reference for the batched image pipelines: each op applied to
# one image at a time, translate through np.pad.

def _ref_translate(x, frac, rng):
    h, w = x.shape[:2]
    my, mx = round(h * frac), round(w * frac)
    if my == 0 and mx == 0:
        return x
    dy = int(rng.integers(-my, my + 1)) if my else 0
    dx = int(rng.integers(-mx, mx + 1)) if mx else 0
    if dy == 0 and dx == 0:
        return x
    m = max(abs(dy), abs(dx))
    padded = np.pad(x, [(m, m), (m, m)] + [(0, 0)] * (x.ndim - 2), mode="reflect")
    return padded[m + dy : m + dy + h, m + dx : m + dx + w]


def _ref_jitter(x, strength, rng):
    return x + rng.uniform(-strength, strength, size=x.shape) if strength else x


def _ref_contrast(x, strength, rng):
    if strength == 0:
        return x
    factor = 1.0 + float(rng.uniform(-strength, strength))
    mean = x.mean()
    return mean + (x - mean) * factor


def _ref_cutout(x, frac, rng):
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


def reference_image(spec, x, rng):
    if spec.kind == "strong":  # ops 0-3: translate, jitter, contrast, noise
        for op_idx in rng.integers(0, 4, size=2):
            if op_idx == 0:
                x = _ref_translate(x, spec.max_translate_frac, rng)
            elif op_idx == 1:
                x = _ref_jitter(x, spec.jitter_strength, rng)
            elif op_idx == 2:
                x = _ref_contrast(x, spec.jitter_strength, rng)
            elif spec.noise_sigma:
                x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
        return _ref_cutout(x, spec.cutout_frac, rng)
    if spec.kind == "cluster":
        x = _ref_jitter(x, spec.jitter_strength, rng)
    if spec.flip_prob and rng.random() < spec.flip_prob:
        x = np.ascontiguousarray(x[:, ::-1])
    return _ref_translate(x, spec.max_translate_frac, rng)


def reference_batch(spec, xs, rng):
    return np.stack([reference_image(spec, x, rng) for x in xs]) if len(xs) else xs.copy()


def assert_matches_reference(spec, xs, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_batch(spec, xs, ref_rng)
    got = apply_batch(spec, xs, rng)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (spec, seed)
    assert rng.bit_generator.state == ref_rng.bit_generator.state, (spec, seed)


MAGNITUDES = ("flip_prob", "max_translate_frac", "jitter_strength", "cutout_frac", "noise_sigma")


@pytest.mark.parametrize("shape", [(8, 8), (6, 10), (8, 8, 3), (1, 5)],
                         ids=["8x8", "6x10", "8x8x3", "1x5"])
@pytest.mark.parametrize("kind", KINDS)
def test_batched_images_match_the_per_image_reference(kind, shape):
    # the base spec and the full translate get 50 seeds; each zero-magnitude
    # spec only switches one draw off, and 10 seeds reach its branches
    base = spec_for(kind, shape)
    sweeps = [(base, 50), (replace(base, max_translate_frac=1.0), 50)]
    sweeps += [(replace(base, **{name: 0.0}), 10) for name in MAGNITUDES]
    data = np.random.default_rng(0).normal(size=(64,) + shape)
    for spec, n_seeds in sweeps:
        for seed in range(n_seeds):
            for n in (0, 1, 64):
                assert_matches_reference(spec, data[:n], seed)


def test_contrast_after_translate_sums_like_the_reference():
    # above 8192 pixels the mean of a mirror-padded crop has its own
    # summation order; a translate in slot 1 leaves such a crop for slot 2
    spec = spec_for("strong", (96, 96))
    data = np.random.default_rng(1).normal(size=(32, 96, 96))
    for seed in range(4):
        assert_matches_reference(spec, data, seed)
