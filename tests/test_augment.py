from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterssl.augment import KINDS, AugmentSpec, apply_batch, rotate90_batch, spec_for


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


def documented_draws(spec, n, rng):
    """The draws of spec's image pipeline for n images, one call at a time in the
    module docstring's order, as (op, image indices, values) triples; every draw
    but a strong op group covers all n images."""
    shape, s, sigma = spec.data_shape, spec.jitter_strength, spec.noise_sigma
    my, mx = (round(d * spec.max_translate_frac) for d in shape[:2])
    lo, hi = (-my, -mx), (my + 1, mx + 1)  # translate bounds
    every = np.arange(n)
    out = []
    if spec.kind != "strong":
        if spec.kind == "cluster" and s:
            out.append(("jitter", every, rng.uniform(-s, s, size=(n,) + shape)))
        if spec.flip_prob:
            out.append(("flip", every, rng.random(size=n) < spec.flip_prob))
        if my or mx:
            out.append(("translate", every, rng.integers(lo, hi, size=(n, 2))))
        return out
    active = (my or mx, s, s, sigma)  # translate, jitter, contrast, noise
    if any(active):
        ops = rng.integers(0, 4, size=(n, 2))
        out.append(("choice", every, ops))
        for slot in (0, 1):
            for op in range(4):
                idx = np.flatnonzero(ops[:, slot] == op)
                m = idx.size
                if not (m and active[op]):
                    continue
                if op == 0:
                    out.append(("translate", idx, rng.integers(lo, hi, size=(m, 2))))
                elif op == 1:
                    out.append(("jitter", idx, rng.uniform(-s, s, size=(m,) + shape)))
                elif op == 2:
                    out.append(("contrast", idx, 1.0 + rng.uniform(-s, s, size=m)))
                else:
                    out.append(("noise", idx, rng.normal(0.0, sigma, size=(m,) + shape)))
    if spec.cutout_frac:
        out.append(("cutout", every, rng.integers(0, shape[:2], size=(n, 2))))
    return out


def drawn(draws, op):
    """Every value drawn for op, over all of its draws."""
    return np.concatenate([values for name, _, values in draws if name == op])


# Per-image reference for the batched image pipelines: the documented draws
# applied to one image at a time in draw order, translate through np.pad.

def _ref_translate(x, shift):
    dy, dx = (int(v) for v in shift)
    m = max(abs(dy), abs(dx))
    if m == 0:
        return x
    h, w = x.shape[:2]
    padded = np.pad(x, [(m, m), (m, m)] + [(0, 0)] * (x.ndim - 2), mode="reflect")
    return np.ascontiguousarray(padded[m + dy : m + dy + h, m + dx : m + dx + w])


def _ref_cutout(x, frac, centre):
    h, w = x.shape[:2]
    side_y = max(1, round(h * np.sqrt(frac)))
    side_x = max(1, round(w * np.sqrt(frac)))
    cy, cx = (int(v) for v in centre)
    y0, y1 = max(0, cy - side_y // 2), min(h, cy - side_y // 2 + side_y)
    x0, x1 = max(0, cx - side_x // 2), min(w, cx - side_x // 2 + side_x)
    out = x.copy()
    out[y0:y1, x0:x1] = 0.0
    return out


def reference_image(spec, x, draws, i):
    for op, idx, values in draws:
        hit = np.flatnonzero(idx == i)
        if op == "choice" or not hit.size:
            continue
        value = values[hit[0]]
        if op == "flip":
            x = np.ascontiguousarray(x[:, ::-1]) if value else x
        elif op == "translate":
            x = _ref_translate(x, value)
        elif op == "contrast":
            mean = x.mean()
            x = mean + (x - mean) * value
        elif op == "cutout":
            x = _ref_cutout(x, spec.cutout_frac, value)
        else:  # jitter and noise
            x = x + value
    return x


def assert_matches_reference(spec, xs, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = apply_batch(spec, xs, rng)
    draws = documented_draws(spec, len(xs), ref_rng)
    want = np.stack([reference_image(spec, x, draws, i) for i, x in enumerate(xs)]) if len(xs) else xs
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
    # contrast takes the mean of the image as it stands; above 8192 pixels
    # numpy would sum the strided crop a slot 0 translate leaves in another order
    spec = spec_for("strong", (96, 96))
    data = np.random.default_rng(1).normal(size=(32, 96, 96))
    for seed in range(4):
        assert_matches_reference(spec, data, seed)


@st.composite
def image_specs(draw, kind):
    """An image spec of any shape up to 12 a side, each magnitude zero or in range."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    shape += draw(st.sampled_from([(), (1,), (3,)]))
    magnitude = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return AugmentSpec(kind=kind, data_shape=shape,
                       **{name: draw(magnitude) for name in MAGNITUDES})


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300)
@given(data=st.data())
def test_draws_follow_the_documented_order(kind, data):
    # the whole batch, bytes and generator state, against the per-image reference
    spec = data.draw(image_specs(kind))
    n, seed = data.draw(st.integers(0, 16)), data.draw(st.integers(0, 2**32 - 1))
    xs = np.random.default_rng(seed).normal(size=(n,) + spec.data_shape)
    assert_matches_reference(spec, xs, seed)


# The per-batch draws have the distributions the per-image pipeline had;
# the tests above tie apply_batch to documented_draws.
N_IMAGES = 10_000


def test_flip_rate_is_flip_prob():
    for p in (0.5, 0.2):
        spec = spec_for("weak", IMG, flip_prob=p)
        flips = drawn(documented_draws(spec, N_IMAGES, np.random.default_rng(0)), "flip")
        assert abs(flips.mean() - p) < 0.02


@pytest.mark.parametrize("kind", KINDS)
def test_every_shift_within_the_bound_occurs(kind):
    spec = spec_for(kind, (8, 12), max_translate_frac=0.25)  # bound (2, 3)
    shifts = drawn(documented_draws(spec, N_IMAGES, np.random.default_rng(1)), "translate")
    assert len(shifts) > N_IMAGES / 5
    assert set(shifts[:, 0].tolist()) == set(range(-2, 3))
    assert set(shifts[:, 1].tolist()) == set(range(-3, 4))


def test_each_strong_op_is_chosen_a_quarter_of_the_time():
    draws = documented_draws(spec_for("strong", IMG), N_IMAGES, np.random.default_rng(2))
    ops = drawn(draws, "choice")
    assert ops.shape == (N_IMAGES, 2)
    for slot in range(2):
        rates = np.bincount(ops[:, slot], minlength=4) / N_IMAGES
        assert np.all(np.abs(rates - 0.25) < 0.02), rates


def test_contrast_factors_lie_within_the_strength():
    s = 0.2
    spec = spec_for("strong", IMG, jitter_strength=s)
    factors = drawn(documented_draws(spec, N_IMAGES, np.random.default_rng(3)), "contrast")
    assert len(factors) > N_IMAGES / 5
    assert factors.min() >= 1 - s and factors.max() <= 1 + s
    assert factors.min() < 1 - 0.95 * s and factors.max() > 1 + 0.95 * s


@pytest.mark.parametrize("kind", KINDS)
def test_all_zero_image_spec_is_a_copy_and_draws_nothing(kind):
    spec = spec_for(kind, IMG, **{name: 0.0 for name in MAGNITUDES})
    xs = np.random.default_rng(4).normal(size=(N_IMAGES,) + IMG)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    out = apply_batch(spec, xs, rng)
    assert np.array_equal(out, xs) and out is not xs
    assert rng.bit_generator.state == before
