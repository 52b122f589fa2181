import numpy as np
import pytest

from clusterssl.augment import (
    AugmentSpec,
    apply_batch,
    rotate90,
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
    spec = spec_for("weak", VEC)
    x = rng.normal(size=(5,) + VEC)
    seeded = np.random.default_rng(11)
    batch = apply_batch(spec, x, rng=seeded)
    assert batch.shape == x.shape
    assert not np.array_equal(batch, x)


def test_rotate90_cycle(rng):
    x = rng.normal(size=IMG)
    assert np.array_equal(rotate90(rotate90(rotate90(rotate90(x, 1), 1), 1), 1), x)
    assert np.array_equal(rotate90(x, 0), x)
    assert np.array_equal(rotate90(x, 2), rotate90(rotate90(x, 1), 1))


def test_rotate90_batch_matches_single(rng):
    xs = rng.normal(size=(3,) + IMG)
    rotated = rotate90_batch(xs, 3)
    for i in range(3):
        assert np.array_equal(rotated[i], rotate90(xs[i], 3))


def test_translate_stays_within_bound(rng):
    # max shift of 12.5% on 8px is 1px: a distinctive corner can move by at most 1
    spec = AugmentSpec(kind="weak", data_shape=IMG, flip_prob=0.0,
                       max_translate_frac=0.125, noise_sigma=0.0)
    xs = np.zeros((20,) + IMG)
    xs[:, 4, 4] = 1.0
    for out in apply_batch(spec, xs, np.random.default_rng(0)):
        iy, ix = np.unravel_index(np.argmax(out), IMG)
        assert abs(iy - 4) <= 1 and abs(ix - 4) <= 1
