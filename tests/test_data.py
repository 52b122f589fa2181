import io

import numpy as np
import pytest

from clusterssl.data import (
    Dataset,
    SHAPE_NAMES,
    load_dataset,
    make_gaussian_mixture,
    make_shape_images,
    partition,
    read_record,
    save_dataset,
    write_record,
)
from clusterssl.errors import ConfigurationError


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


def test_shapes_validation():
    with pytest.raises(ConfigurationError):
        make_shape_images(7, 100, 8, seed=0)  # only 6 templates
    with pytest.raises(ConfigurationError):
        make_shape_images(4, 100, 4, seed=0)  # too coarse to rasterize


def test_partition_structure(small_gmm):
    ds, split = small_gmm
    split.check(ds, labels_per_class=4)
    assert np.intersect1d(split.test_idx, split.unlabeled_idx).size == 0
    # labeled examples stay inside the unlabeled pool (transductive pool)
    assert np.all(np.isin(split.labeled_idx, split.unlabeled_idx))
    for c, idx in enumerate(split.labeled_by_class):
        assert idx.size == 4
        assert np.all(ds.labels[idx] == c)


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
