import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterssl.config import build_experiment, load_config
from clusterssl.data import (
    Dataset,
    SHAPE_NAMES,
    _shape_mask,
    load_dataset,
    make_gaussian_mixture,
    make_shape_images,
    partition,
    read_record,
    save_dataset,
    write_record,
)
from clusterssl.errors import ConfigurationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_gaussian_mixture(k, n, d, separation, seed):
    """The mixture as a means matrix plus separately drawn noise."""
    rng = np.random.default_rng(seed)
    means = np.zeros((k, d))
    if separation > 0:
        means[np.arange(k), np.arange(k)] = separation / np.sqrt(2.0)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    feats = means[labels] + rng.normal(0.0, 1.0, size=(n, d))
    order = rng.permutation(n)
    return feats[order], labels[order]


def reference_shape_images(k, n, size, seed):
    """The shape images one at a time, with one generator call per draw."""
    rng = np.random.default_rng(seed)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    grid = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    feats = np.empty((n, size, size))
    for i, cls in enumerate(labels):
        off_y, off_x = rng.uniform(-0.08, 0.08, size=2)
        scale = rng.uniform(0.8, 1.0)
        u = (yy - 0.5 - off_y) / scale + 0.5
        v = (xx - 0.5 - off_x) / scale + 0.5
        mask = _shape_mask(SHAPE_NAMES[cls], u, v)
        amp = rng.uniform(0.8, 1.2)
        feats[i] = amp * mask + rng.normal(0.0, 0.05, size=(size, size))
    order = rng.permutation(n)
    return feats[order], labels[order]


def assert_same_bytes(ds, ref):
    feats, labels = ref
    assert ds.features.dtype == feats.dtype and ds.features.shape == feats.shape
    assert ds.features.tobytes() == feats.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_gmm_basic_properties():
    ds = make_gaussian_mixture(4, 402, 16, 6.0, seed=0)
    assert ds.n == 402 and ds.k == 4 and ds.item_shape == (16,)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1  # balanced up to remainder
    assert not ds.is_image


def test_gmm_separation_is_respected():
    ds = make_gaussian_mixture(3, 600, 8, 6.0, seed=1)
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    off_diag = dists[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off_diag - 6.0) < 0.5)


def test_gmm_deterministic():
    a = make_gaussian_mixture(3, 90, 8, 4.0, seed=5)
    b = make_gaussian_mixture(3, 90, 8, 4.0, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gmm_validation():
    with pytest.raises(ConfigurationError):
        make_gaussian_mixture(0, 100, 8, 4.0, seed=0)
    with pytest.raises(ConfigurationError):
        make_gaussian_mixture(4, 3, 8, 4.0, seed=0)
    with pytest.raises(ConfigurationError):
        make_gaussian_mixture(4, 100, 2, 4.0, seed=0)  # needs d >= k


@given(data=st.data())
def test_gmm_matches_the_reference(data):
    k = data.draw(st.integers(1, 10), label="k")
    n = data.draw(st.integers(k, 400), label="n")
    separation = data.draw(st.sampled_from([0.0, 0.5, 6.0]), label="separation")
    d = data.draw(st.integers(k if separation > 0 else 1, 40), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ds = make_gaussian_mixture(k, n, d, separation, seed)
    assert_same_bytes(ds, reference_gaussian_mixture(k, n, d, separation, seed))


def test_gmm_matches_the_reference_at_benchmark_width():
    # the gmm_wide_k10 benchmark dataset: 4000 x 128, ten classes
    assert_same_bytes(make_gaussian_mixture(10, 4000, 128, 6.0, 11),
                      reference_gaussian_mixture(10, 4000, 128, 6.0, 11))


def test_shapes_basic_properties():
    ds = make_shape_images(4, 80, 8, seed=2)
    assert ds.features.shape == (80, 8, 8)
    assert ds.is_image and ds.k == 4
    assert np.bincount(ds.labels, minlength=4).min() >= 16


def test_shapes_classes_are_separable_by_template():
    # noisy renders must still sit closest to their own class centroid
    ds = make_shape_images(4, 400, 8, seed=3)
    cents = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    flat = ds.features.reshape(400, -1)
    d = np.linalg.norm(flat[:, None] - cents.reshape(4, -1)[None], axis=-1)
    assert (d.argmin(axis=1) == ds.labels).mean() > 0.9


def test_shapes_rotations_distinct():
    # the rotation pretext needs all four views of a clean template to differ
    from clusterssl.augment import rotate90_batch

    ds = make_shape_images(len(SHAPE_NAMES), 60, 8, seed=4)
    cents = np.stack([ds.features[ds.labels == c].mean(axis=0)
                      for c in range(len(SHAPE_NAMES))])
    for c, cent in enumerate(cents):
        views = [rotate90_batch(cent[None], q)[0] for q in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(views[a] - views[b]).mean() > 0.02, (SHAPE_NAMES[c], a, b)


@settings(max_examples=200)
@given(data=st.data())
def test_shapes_match_the_per_image_reference(data):
    k = data.draw(st.integers(1, len(SHAPE_NAMES)), label="k")
    n = data.draw(st.integers(k, 300), label="n")
    size = data.draw(st.integers(8, 32), label="size")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    assert_same_bytes(make_shape_images(k, n, size, seed), reference_shape_images(k, n, size, seed))


# sha256 of the features, labels, labeled, unlabeled and test index arrays;
# dataset builds call no BLAS, so a mismatch means the generator stream moved
PINNED_DATA = {
    "toy_gmm": (
        "65423f8438285311392f7ce7565b0b724f77496ef8005816698ce1f0da0e72e5",
        "4fa39e53dec4bd440ebe055a545a738cbeb1f4d0a49ae3ac22e6f70aa0c46cf3",
        "8d244a51de3f7b5ea432b22543386146d99d75404dd8ff805a888ea6efe3df17",
        "2640bd247345cc9010a06b2924f6ea6162f0f3594e8f1e2bf6567dae58ca61b1",
        "9870f5531c9dae7ae09f79d727c75ab0a8d255a0e1cc60656878aec27385bf42",
    ),
    "shapes8": (
        "89845ee66ad4b83b3c25f0b9921e05b4c6811c531d3865a86944377e66043606",
        "1ce041105d56142eb5052d4e8896f8b1b554ebe2a3ab5466e627c6a4c7a51b84",
        "cb71bcb6c5d860bd16cdec720c4827afffdfca4b5d21b927d7e8a4dcd5b2cdff",
        "66f3e2a099a4448892b1ee6d80e55f503adb2e38a5aa07f8439d84bfe15b51b0",
        "9cefa619a67615ac953f4dea6209aa51df0cf18799ed349da352888133191466",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATA))
def test_committed_configs_build_pinned_data(name):
    ds, split = build_experiment(load_config(os.path.join(ROOT, "configs", f"{name}.json")))
    arrays = (ds.features, ds.labels, split.labeled_idx, split.unlabeled_idx, split.test_idx)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == PINNED_DATA[name]


def test_shapes_validation():
    with pytest.raises(ConfigurationError):
        make_shape_images(7, 100, 8, seed=0)  # only 6 templates
    with pytest.raises(ConfigurationError):
        make_shape_images(4, 100, 4, seed=0)  # too coarse to rasterize


def check_split_structure(split, ds, labels_per_class):
    """Raise AssertionError if any structural invariant of the split is violated."""
    test = set(split.test_idx.tolist())
    pool = set(split.unlabeled_idx.tolist())
    if test & pool:
        raise AssertionError("test indices leak into the training pool")
    if split.labeled_idx.shape != (ds.k * labels_per_class,):
        raise AssertionError(f"labeled_idx must hold {labels_per_class} points per class")
    for cls in range(ds.k):
        idx = split.labeled_idx[cls * labels_per_class : (cls + 1) * labels_per_class]
        if not np.all(ds.labels[idx] == cls):
            raise AssertionError(f"labeled indices for class {cls} carry wrong labels")
        if not set(idx.tolist()) <= pool:
            raise AssertionError("labeled points must be members of the unlabeled pool")


def test_partition_structure(small_gmm):
    ds, split = small_gmm
    check_split_structure(split, ds, labels_per_class=4)
    assert np.intersect1d(split.test_idx, split.unlabeled_idx).size == 0
    # labeled examples stay inside the unlabeled pool (transductive pool)
    assert np.all(np.isin(split.labeled_idx, split.unlabeled_idx))
    # class by class, in class order
    assert np.array_equal(ds.labels[split.labeled_idx], np.repeat(np.arange(ds.k), 4))


def reference_labeled_picks(ds, labels_per_class, test_frac, seed):
    """Each class's labeled picks as partition once stored them, one sorted array per
    class; None where a class has too few training points."""
    rng = np.random.default_rng(seed)
    train_parts = []
    for cls in range(ds.k):
        members = np.flatnonzero(ds.labels == cls)
        members = members[rng.permutation(members.size)]
        train_parts.append(members[round(test_frac * members.size):])
    if any(pool.size < labels_per_class for pool in train_parts):
        return None
    return [np.sort(pool[:labels_per_class]).astype(np.int64) for pool in train_parts]


@given(data=st.data())
def test_stored_labeled_index_is_the_class_major_concatenation(data):
    k = data.draw(st.integers(1, 8), label="k")
    n = data.draw(st.integers(k, 300), label="n")
    labels_per_class = data.draw(st.integers(1, 12), label="labels_per_class")
    test_frac = data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]), label="test_frac")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ds = make_gaussian_mixture(k, n, k, 1.0, seed=0)
    picks = reference_labeled_picks(ds, labels_per_class, test_frac, seed)
    if picks is None:
        with pytest.raises(ConfigurationError):
            partition(ds, labels_per_class, test_frac, seed)
        return
    split = partition(ds, labels_per_class, test_frac, seed)
    assert split.labeled_idx.dtype == np.int64
    assert split.labeled_idx.shape == (k * labels_per_class,)
    assert np.array_equal(split.labeled_idx, np.concatenate(picks))


def test_partition_deterministic(small_gmm):
    ds, _ = small_gmm
    a = partition(ds, 2, 0.25, seed=9)
    b = partition(ds, 2, 0.25, seed=9)
    assert np.array_equal(a.test_idx, b.test_idx)
    assert np.array_equal(a.labeled_idx, b.labeled_idx)


def test_partition_infeasible():
    ds = make_gaussian_mixture(4, 40, 8, 4.0, seed=0)
    with pytest.raises(ConfigurationError):
        partition(ds, 12, 0.5, seed=0)
    with pytest.raises(ConfigurationError):
        partition(ds, 2, 1.5, seed=0)


def test_record_round_trip(rng):
    for arr in (
        rng.normal(size=(5, 3)),
        rng.integers(0, 9, size=17),
        (rng.uniform(size=(2, 4, 4)) * 255).astype(np.uint8),
    ):
        buf = io.BytesIO()
        write_record(buf, arr)
        buf.seek(0)
        back = read_record(buf)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)


def test_record_rejects_corruption(rng, tmp_path):
    buf = io.BytesIO()
    write_record(buf, rng.normal(size=(4, 4)))
    raw = buf.getvalue()  # 7 header bytes, 2 dims at offset 7, payload at offset 15
    with pytest.raises(ValueError, match="truncated record payload at offset 15$"):
        read_record(io.BytesIO(raw[: len(raw) - 3]))
    with pytest.raises(ValueError, match="truncated record dims at offset 7$"):
        read_record(io.BytesIO(raw[:10]))
    with pytest.raises(ValueError, match="truncated record header at offset 0$"):
        read_record(io.BytesIO(raw[:5]))
    with pytest.raises(ValueError, match="bad magic b'XXXX' at offset 0,"):
        read_record(io.BytesIO(b"XXXX" + raw[4:]))
    with pytest.raises(ValueError, match="record version 9 at offset 4$"):
        read_record(io.BytesIO(raw[:4] + b"\x09" + raw[5:]))
    with pytest.raises(ValueError, match="dtype code 7 at offset 5$"):
        read_record(io.BytesIO(raw[:5] + b"\x07" + raw[6:]))

    # a corrupt second record of a dataset file reports its absolute position
    path = tmp_path / "toy.bin"
    save_dataset(path, make_gaussian_mixture(3, 60, 8, 4.0, seed=1))
    data = bytearray(path.read_bytes())
    second = 7 + 2 * 4 + 60 * 8 * 8  # features record: (60, 8) float64
    assert data[second:second + 4] == b"CSSR"
    data[second:second + 4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"at offset {second},"):
        load_dataset(path)
    path.write_bytes(bytes(data[:second]) + raw[:4] + b"\x01\x01\x01")
    with pytest.raises(ValueError, match=f"truncated record dims at offset {second + 7}$"):
        load_dataset(path)


def test_dataset_file_round_trip(tmp_path):
    ds = make_gaussian_mixture(3, 60, 8, 4.0, seed=1)
    path = tmp_path / "toy.bin"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.k == 3
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 3]), k=3)
    with pytest.raises(ValueError):
        Dataset(features=np.array([[np.nan, 0.0]]), labels=np.array([0]), k=1)
    with pytest.raises(ValueError, match="labels must have an integer dtype, got float64"):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0.5, 1.7]), k=2)
