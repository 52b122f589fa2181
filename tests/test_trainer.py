import json
import os

import numpy as np
import pytest

from clusterssl.assignment import count_injections
from clusterssl.data import make_shape_images, partition
from clusterssl.errors import ConfigurationError, DivergenceError
from clusterssl.network import Model
from clusterssl.trainer import (
    CSV_COLUMNS,
    TrainConfig,
    evaluate,
    load_checkpoint,
    rows_to_csv,
    save_checkpoint,
    topk_permutation_accuracy,
    train,
    warmup_rotation_accuracy,
)


SMALL = dict(iters=2, e1=1, e2=1, warmup_rot_epochs=0, rotnet=False,
             hidden_sizes=(16,), batch_size=8, mu=2, seed=5)


def test_config_validation():
    TrainConfig()
    with pytest.raises(ConfigurationError):
        TrainConfig(iters=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_ssl=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(ema_decay=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(r=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(wd_cluster=-1e-4)
    cfg = TrainConfig(hidden_sizes=[32, 16])
    assert cfg.hidden_sizes == (32, 16)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_rows_to_csv_schema():
    rows = [
        {"iter": 1, "phase": "ssl", "epoch": 0, "L_s": 0.5, "L_u": 0.25, "mask_rate": 0.75},
        {"iter": 1, "phase": "cluster", "epoch": 0, "L_c": None, "confident_count": 3},
    ]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "1,ssl,0,0.5,0.25,,,0.75,,,"
    assert lines[2] == "1,cluster,0,,,,,,3,,"


def identity_head_model(k):
    # no trunk; the cluster head passes features straight through, so the
    # predicted cluster of a one-hot row is its hot index
    m = Model(k, (), k, rng=np.random.default_rng(0))
    m.cluster_head.weight = np.eye(k)
    m.cluster_head.bias = np.zeros(k)
    return m


def test_evaluate_identity_and_permuted():
    k = 4
    model = identity_head_model(k)
    labels = np.repeat(np.arange(k), 5)
    feats = np.eye(k)[labels]
    cls, clu, perm = evaluate(model, feats, labels)
    assert cls == 1.0 and clu == 1.0
    assert np.array_equal(perm, np.arange(k))

    shift = (labels + 1) % k  # derangement: no prediction matches its label
    cls, clu, perm = evaluate(model, np.eye(k)[shift], labels)
    assert cls == 0.0 and clu == 1.0
    assert np.array_equal(perm[(np.arange(k) + 1) % k], np.arange(k))


def test_evaluate_rejects_empty():
    model = identity_head_model(3)
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_topk_needs_square_images(rng):
    model = Model(16, (8,), 4, rng=rng)
    with pytest.raises(ConfigurationError):
        topk_permutation_accuracy(model, rng.normal(size=(8, 16)),
                                  np.zeros(8, dtype=np.int64),
                                  rng.normal(size=(8, 16)),
                                  np.zeros(8, dtype=np.int64), k=3)


def test_topk_curve_reaches_bijection_optimum(rng):
    ds = make_shape_images(3, 60, 8, seed=2)
    split = partition(ds, 2, 0.25, seed=0)
    model = Model(64, (12,), 3, rng=rng)
    full = count_injections(3, 3)
    curve = topk_permutation_accuracy(
        model,
        ds.features[split.labeled_idx], ds.labels[split.labeled_idx],
        ds.features[split.test_idx], ds.labels[split.test_idx],
        k=full,
    )
    assert curve.shape == (full,)
    assert np.all(np.diff(curve) >= 0)
    _, clu, _ = evaluate(model, ds.features[split.test_idx], ds.labels[split.test_idx])
    assert curve[-1] == clu
    with pytest.raises(ValueError):
        topk_permutation_accuracy(model, ds.features[:4], ds.labels[:4],
                                  ds.features[:4], ds.labels[:4], k=0)


def test_checkpoint_round_trip(tmp_path, rng):
    from clusterssl.clustering import init_target_pool
    from clusterssl.optim import EmaState, Sgd

    model = Model(6, (5,), 3, rng=rng)
    ema = EmaState(model.get_params() * 0.5, 0.99)
    opt = Sgd(model.n_params)
    opt.velocity = rng.normal(size=model.n_params)
    pool = init_target_pool(12, 3, 1.0, rng)
    path = str(tmp_path / "ck.json")
    rows = [{"iter": 1, "phase": "ssl", "epoch": 0, "L_s": 0.125}]
    save_checkpoint(path, iteration=4, model=model, ema=ema, opt=opt,
                    pool=pool, rng=rng, cfg=TrainConfig(), rows=rows)
    state = load_checkpoint(path)
    assert state["iteration"] == 4
    np.testing.assert_array_equal(state["model"].get_params(), model.get_params())
    np.testing.assert_array_equal(state["ema_shadow_arr"], ema.shadow)
    np.testing.assert_array_equal(state["velocity_arr"], opt.velocity)
    assert state["rows"] == rows
    assert state["config"] == TrainConfig().to_dict()


def test_checkpoint_rejects_damage(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text('{"version": 1, "iteration":')
    with pytest.raises(ValueError, match="corrupt or truncated"):
        load_checkpoint(str(path))
    path.write_text(json.dumps({"version": 42}))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(path))
    path.write_text("[]")
    with pytest.raises(ValueError, match="not a JSON object"):
        load_checkpoint(str(path))
    path.write_text(json.dumps({"version": 1}))
    with pytest.raises(ValueError, match="lacks key"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name", ["checkpoint.json", "metrics.csv", "summary.json"])
def test_failed_artifact_write_keeps_previous_file(small_gmm, tmp_path, monkeypatch, name):
    import clusterssl.trainer as trainer_mod

    ds, split = small_gmm
    out = tmp_path / "run"
    train(TrainConfig(**SMALL), ds, split, out_dir=str(out))
    previous = (out / name).read_bytes()

    class HalfWriter:
        """Writes half of the first chunk, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def faulty_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return HalfWriter(fh) if os.path.basename(path).startswith(name) else fh

    monkeypatch.setattr(trainer_mod, "open", faulty_open, raising=False)
    # a different seed, so that every artifact would change
    with pytest.raises(OSError, match="no space"):
        train(TrainConfig(**{**SMALL, "seed": 6}), ds, split, out_dir=str(out))
    assert (out / name).read_bytes() == previous
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "metrics.csv", "summary.json"]


def test_alternation_accounting(small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 3, "e1": 2, "e2": 1})
    rec = train(cfg, ds, split)
    phases = [r["phase"] for r in rec.rows]
    assert phases.count("ssl") == 3 * 2
    assert phases.count("cluster") == 3 * 1
    assert phases.count("eval") == 3
    assert phases.count("warmup") == 0
    # ssl epochs precede cluster epochs within each iteration
    for t in (1, 2, 3):
        seq = [r["phase"] for r in rec.rows if r["iter"] == t]
        assert seq == ["ssl", "ssl", "cluster", "eval"]
    assert set(rec.summary) >= {"config", "n_params", "test_cls_acc", "test_clu_acc"}


def test_determinism(small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**SMALL)
    a = train(cfg, ds, split)
    b = train(cfg, ds, split)
    assert a.csv_text() == b.csv_text()
    np.testing.assert_array_equal(a.model.get_params(), b.model.get_params())
    np.testing.assert_array_equal(a.ema.shadow, b.ema.shadow)


def test_outputs_and_resume_are_byte_exact(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 4})
    full_dir = str(tmp_path / "full")
    rec = train(cfg, ds, split, out_dir=full_dir)
    full_csv = open(os.path.join(full_dir, "metrics.csv")).read()
    assert full_csv == rec.csv_text()
    summary = json.load(open(os.path.join(full_dir, "summary.json")))
    assert summary["test_clu_acc"] == rec.summary["test_clu_acc"]

    class Stop(Exception):
        pass

    def bail(pool, t, epoch):
        if t == 2:
            raise Stop

    part_dir = str(tmp_path / "part")
    with pytest.raises(Stop):
        train(cfg, ds, split, out_dir=part_dir, on_cluster_epoch=bail)
    resumed = train(cfg, ds, split, out_dir=part_dir,
                    resume_from=os.path.join(part_dir, "checkpoint.json"))
    assert open(os.path.join(part_dir, "metrics.csv")).read() == full_csv
    np.testing.assert_array_equal(resumed.model.get_params(), rec.model.get_params())


def test_resume_refuses_other_config(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 1})
    out = str(tmp_path / "run")
    train(cfg, ds, split, out_dir=out)
    other = TrainConfig(**{**SMALL, "iters": 1, "lr_ssl": 0.07})
    with pytest.raises(ConfigurationError, match="different config"):
        train(other, ds, split, resume_from=os.path.join(out, "checkpoint.json"))


def test_resume_and_model_are_exclusive(small_gmm, rng):
    ds, split = small_gmm
    model = Model(16, (16,), 4, rng=rng)
    with pytest.raises(ConfigurationError, match="not both"):
        train(TrainConfig(**SMALL), ds, split,
              resume_from="whatever.json", model=model)


def test_model_argument_continues_training(small_gmm, rng):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 1})
    with pytest.raises(ConfigurationError, match="clusters"):
        train(cfg, ds, split, model=Model(16, (16,), 3, rng=rng))
    model = Model(16, (16,), 4, rng=np.random.default_rng(77))
    start = model.get_params().copy()
    rec = train(cfg, ds, split, model=model)
    assert rec.model is model
    assert not np.array_equal(model.get_params(), start)


def test_divergence_aborts_and_keeps_last_checkpoint(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 10, "lr_ssl": 1e200, "wd_ssl": 1.0})
    out = str(tmp_path / "boom")
    with pytest.raises(DivergenceError), pytest.warns(RuntimeWarning):
        train(cfg, ds, split, out_dir=out)
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    state = load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert state["iteration"] < cfg.iters
    assert np.all(np.isfinite(state["model"].get_params()))


def test_zero_iters_is_warmup_only(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 0})
    out = str(tmp_path / "warm")
    rec = train(cfg, ds, split, out_dir=out)
    assert rec.rows == []
    assert rec.summary["iterations_run"] == 0
    assert "test_clu_acc" in rec.summary
    assert open(os.path.join(out, "metrics.csv")).read() == ",".join(CSV_COLUMNS) + "\n"


def test_warmup_rows_on_image_data():
    ds = make_shape_images(3, 60, 8, seed=1)
    split = partition(ds, 2, 0.25, seed=0)
    cfg = TrainConfig(iters=0, warmup_rot_epochs=2, hidden_sizes=(12,),
                      batch_size=8, seed=0)
    rec = train(cfg, ds, split)
    assert [r["phase"] for r in rec.rows] == ["warmup", "warmup"]
    assert all(np.isfinite(r["L_r"]) for r in rec.rows)
    acc = warmup_rotation_accuracy(cfg, ds, split)
    assert 0.0 <= acc <= 1.0


def test_warmup_rotation_accuracy_needs_images(small_gmm):
    ds, split = small_gmm
    with pytest.raises(ConfigurationError):
        warmup_rotation_accuracy(TrainConfig(), ds, split)
