import io
import json
import logging
import os
import tracemalloc
import zlib
from concurrent import futures
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from clusterssl import THREAD_VARS, network
from clusterssl.assignment import count_injections
from clusterssl.clustering import TargetPool, init_target_pool, rotation_accuracy
from clusterssl.config import ExperimentConfig, build_experiment, load_config
from clusterssl.data import DatasetSplit, make_shape_images, partition, read_record, write_record
from clusterssl.errors import ConfigurationError, DivergenceError
from clusterssl.network import Model
from clusterssl.trainer import (
    CHECKPOINT_VERSION,
    CSV_COLUMNS,
    TrainConfig,
    evaluate,
    load_checkpoint,
    rows_to_csv,
    save_checkpoint,
    topk_permutation_accuracy,
    train,
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
    for slope in (1.0, 2.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="leaky_slope"):
            TrainConfig(leaky_slope=slope)
    assert TrainConfig(leaky_slope=0.0).leaky_slope == 0.0
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
    m.cluster_head.weight[...] = np.eye(k)
    m.cluster_head.bias[...] = 0.0
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
                                  np.zeros(8, dtype=np.int64), k=3, temperature=0.1)


def test_topk_curve_reaches_bijection_optimum(rng):
    ds = make_shape_images(3, 60, 8, seed=2)
    split = partition(ds, 2, 0.25, seed=0)
    model = Model(64, (12,), 3, rng=rng)
    full = count_injections(3, 3)
    curve = topk_permutation_accuracy(
        model,
        ds.features[split.labeled_idx], ds.labels[split.labeled_idx],
        ds.features[split.test_idx], ds.labels[split.test_idx],
        k=full, temperature=0.1,
    )
    assert curve.shape == (full,)
    assert np.all(np.diff(curve) >= 0)
    _, clu, _ = evaluate(model, ds.features[split.test_idx], ds.labels[split.test_idx])
    assert curve[-1] == clu
    with pytest.raises(ValueError):
        topk_permutation_accuracy(model, ds.features[:4], ds.labels[:4],
                                  ds.features[:4], ds.labels[:4], k=0, temperature=0.1)


def test_checkpoint_round_trip(tmp_path, rng):
    from clusterssl.optim import EmaState, Sgd

    model = Model(6, (5,), 3, rng=rng)
    ema = EmaState(model.params * 0.5, 0.99)
    opt = Sgd(model.n_params, 0.9, velocity=rng.normal(size=model.n_params))
    pool = init_target_pool(12, 3, 1.0, rng)
    cfg = TrainConfig(hidden_sizes=(5,))
    path = str(tmp_path / "ck.json")
    rows = [{"iter": 1, "phase": "ssl", "epoch": 0, "L_s": 0.125}]
    save_checkpoint(path, iteration=4, model=model, ema=ema, opt=opt,
                    pool=pool, rng=rng, cfg=cfg, rows=rows)
    state = load_checkpoint(path)
    assert state["iteration"] == 4
    np.testing.assert_array_equal(state["model"].params, model.params)
    np.testing.assert_array_equal(state["ema_shadow_arr"], ema.shadow)
    np.testing.assert_array_equal(state["velocity_arr"], opt.velocity)
    assert state["rows"] == rows
    assert state["config"] == cfg.to_dict()


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
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
    with pytest.raises(ValueError, match="lacks key"):
        load_checkpoint(str(path))


def _rewrite_records(state, tensors, **arrays):
    """Swap records of the tensor file bytes, keeping the manifest's size and CRC in step."""
    buf = io.BytesIO(bytes(tensors))
    records = {key: read_record(buf) for key in ("params", "ema_shadow", "velocity")}
    records.update(arrays)
    out = io.BytesIO()
    crc = 0
    for arr in records.values():
        write_record(out, arr)
        crc = zlib.crc32(arr, crc)
    tensors[:] = out.getvalue()
    state["tensors"].update(bytes=len(tensors), crc32=crc)


def _flip_payload_byte(state, tensors):
    tensors[-100] ^= 1


def _overbind_class_0(state, tensors):
    pool = state["pool"]
    pool["img_class"][pool["img_class"].index(1)] = 0


@pytest.mark.parametrize("damage, message", [
    (None, "cannot read checkpoint"),
    (lambda st, t: st["arch"].pop("hidden_sizes"), "lacks key(s): arch.hidden_sizes"),
    (lambda st, t: st.update(arch=[6, 5]), "arch is not a JSON object"),
    (lambda st, t: st["tensors"].update(file="gone.cssr"), "cannot read tensor file"),
    (lambda st, t: st["tensors"].update(file="../ck.a.cssr"), "tensors.file '../ck.a.cssr' is not a file name"),
    (lambda st, t: t.__delitem__(slice(100, None)), "params record: truncated record payload at offset 11"),
    (lambda st, t: t.__delitem__(slice(-6, None)), "velocity record: truncated record payload"),
    (lambda st, t: t.extend(b"x"), "bytes, tensors.bytes says"),
    (lambda st, t: t.__setitem__(slice(5, 6), b"\x01"), "params record: not a float64 vector"),
    (lambda st, t: _rewrite_records(st, t, params=np.zeros(3)), "arch and params do not make a model"),
    (lambda st, t: _rewrite_records(st, t, velocity=np.zeros(3)), "velocity holds 3 values"),
    (lambda st, t: _rewrite_records(st, t, ema_shadow=np.zeros(3, dtype=np.int64)),
     "ema_shadow record: not a float64 vector"),
    (lambda st, t: st["tensors"].update(bytes=1), "tensors.bytes says 1"),
    (_flip_payload_byte, "tensors.crc32"),
    (lambda st, t: st.update(iteration=-7), "iteration must be a non-negative integer, got -7"),
    (lambda st, t: st.update(iteration=True), "iteration must be a non-negative integer, got True"),
    (lambda st, t: st.update(iteration=1.0), "iteration must be a non-negative integer, got 1.0"),
    (lambda st, t: st.update(rows=5), "rows must be a list of objects"),
    (lambda st, t: st.update(rows=[1, 2]), "rows must be a list of objects"),
    (lambda st, t: st.update(ema_decay="x"), "ema_decay must be a number in [0, 1), got 'x'"),
    (lambda st, t: st.update(ema_decay=2.0), "ema_decay must be a number in [0, 1), got 2.0"),
    (lambda st, t: st.update(ema_decay=False), "ema_decay must be a number in [0, 1), got False"),
    (lambda st, t: st["rng_state"].update(bit_generator="MT19937"), "rng_state is not a PCG64 state"),
    (lambda st, t: st.update(rng_state=5), "rng_state is not a PCG64 state"),
    (lambda st, t: st["rng_state"].pop("state"), "rng_state is not a PCG64 state"),
    (lambda st, t: st.update(pool=None), "pool is not a JSON object"),
    (lambda st, t: st["pool"].pop("img_class"), "lacks key(s): pool.img_class"),
    (_overbind_class_0, "pool is not a valid target pool: per-class binding counts"),
    (lambda st, t: st.update(pool=TargetPool(9, 2, 4, np.array([0, 0, 0, 0, 1, 1, 1, 1, -1])).to_state()),
     "pool.k 2 is not arch.k 3"),
    (lambda st, t: st["config"].update(hidden_sizes=[128, 128]),
     "arch.hidden_sizes [5] differs from config.hidden_sizes [128, 128]"),
    (lambda st, t: st["config"].update(leaky_slope=0.2),
     "arch.leaky_slope 0.01 differs from config.leaky_slope 0.2"),
])
def test_damaged_checkpoint_names_path_and_key(tmp_path, rng, damage, message):
    from clusterssl.optim import EmaState, Sgd

    model = Model(6, (5,), 3, rng=rng)
    path = tmp_path / "ck.json"
    save_checkpoint(str(path), iteration=1, model=model, ema=EmaState(model.params.copy(), 0.9),
                    opt=Sgd(model.n_params, 0.9), pool=init_target_pool(9, 3, 1.0, rng), rng=rng,
                    cfg=TrainConfig(hidden_sizes=(5,)), rows=[])
    state = json.loads(path.read_text())
    tensor_path = tmp_path / state["tensors"]["file"]
    if damage is None:
        path.unlink()
    else:
        tensors = bytearray(tensor_path.read_bytes())
        damage(state, tensors)
        path.write_text(json.dumps(state))
        tensor_path.write_bytes(tensors)
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(path))
    assert str(path) in str(info.value) and message in str(info.value)


def test_checkpoint_is_a_manifest_and_one_tensor_file(tmp_path, rng):
    from clusterssl.optim import EmaState, Sgd

    model = Model(6, (5,), 3, rng=rng)
    path = tmp_path / "ck.json"
    files = []
    pool = init_target_pool(9, 3, 1.0, rng)
    for iteration in range(3):
        save_checkpoint(str(path), iteration=iteration, model=model,
                        ema=EmaState(model.params.copy(), 0.9), opt=Sgd(model.n_params, 0.9),
                        pool=pool, rng=rng, cfg=TrainConfig(hidden_sizes=(5,)), rows=[])
        files.append(sorted(p.name for p in tmp_path.iterdir()))
    assert files == [["ck.a.cssr", "ck.json"], ["ck.b.cssr", "ck.json"], ["ck.a.cssr", "ck.json"]]
    state = json.loads(path.read_text())
    data = (tmp_path / "ck.a.cssr").read_bytes()
    with io.BytesIO(data) as buf:
        payloads = b"".join(read_record(buf).tobytes() for _ in range(3))
    assert state["tensors"] == {"file": "ck.a.cssr", "bytes": len(data), "crc32": zlib.crc32(payloads)}
    assert set(state["environment"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "numpy"}
    assert state["environment"]["numpy"] == np.__version__
    assert str(tmp_path) not in path.read_text()


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

    def faulty_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode and os.path.basename(path).startswith(name) else fh

    monkeypatch.setattr(trainer_mod, "open", faulty_open, raising=False)
    # a different seed, so that every artifact would change
    with pytest.raises(OSError, match="no space"):
        train(TrainConfig(**{**SMALL, "seed": 6}), ds, split, out_dir=str(out))
    if name == "summary.json":
        # a fresh run removes the finished run's summary before its first write
        assert not (out / name).exists()
    else:
        assert (out / name).read_bytes() == previous
    # one complete tensor file, the one the manifest names; no temporary file is left
    tensor_file = load_checkpoint(str(out / "checkpoint.json"))["tensors"]["file"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["checkpoint.json", tensor_file, "metrics.csv"])


class Crash(Exception):
    """The process dies: the failing file operation and every later one do nothing."""


def test_checkpoint_survives_a_crash_at_every_file_operation(tmp_path, small_gmm, monkeypatch):
    import clusterssl.trainer as trainer_mod

    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 3})
    full = tmp_path / "full"
    train(cfg, ds, split, out_dir=str(full))
    want = {name: (full / name).read_bytes() for name in ("metrics.csv", "summary.json")}

    # count the file operations of the save after iteration 2, and fail the n-th
    plan = {"save": 0, "ops": 0, "fail_at": None}

    def operation(fn):
        def run(*args, **kwargs):
            if plan["save"] == 3:
                plan["ops"] += 1
                if plan["fail_at"] is not None and plan["ops"] >= plan["fail_at"]:
                    raise Crash(f"file operation {plan['ops']}")
            return fn(*args, **kwargs)
        return run

    class Handle:
        def __init__(self, fh):
            self.fh = fh
            self.write = operation(fh.write)

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def save(*args, **kwargs):
        plan["save"] += 1
        try:
            return real_save(*args, **kwargs)
        finally:
            if plan["save"] == 3:
                plan["save"] = -1  # later saves run untouched

    real_save = trainer_mod.save_checkpoint
    monkeypatch.setattr(trainer_mod, "save_checkpoint", save)
    monkeypatch.setattr(trainer_mod, "open", operation(lambda *a, **k: Handle(open(*a, **k))),
                        raising=False)
    monkeypatch.setattr(os, "replace", operation(os.replace))
    monkeypatch.setattr(os, "remove", operation(os.remove))

    train(cfg, ds, split, out_dir=str(tmp_path / "count"))
    n_ops = plan["ops"]
    # read the old manifest (1); open, write (two writes per record), replace and
    # clean up the temporary tensor file (9); open, write, replace and clean up
    # the temporary manifest (4); remove the old slot (1)
    assert n_ops == 15
    for n in range(1, n_ops + 1):
        out = tmp_path / f"crash{n}"
        plan.update(save=0, ops=0, fail_at=n)
        with pytest.raises(Crash):
            train(cfg, ds, split, out_dir=str(out))
        ck = str(out / "checkpoint.json")
        assert load_checkpoint(ck)["iteration"] in (1, 2)
        train(cfg, ds, split, out_dir=str(out), resume_from=ck)
        for name, data in want.items():
            assert (out / name).read_bytes() == data, (n, name)
        tensor_file = load_checkpoint(ck)["tensors"]["file"]
        assert sorted(p.name for p in out.iterdir() if not p.name.endswith(".tmp")) == \
            sorted(["checkpoint.json", tensor_file, "metrics.csv", "summary.json"])


def test_fresh_run_clears_a_finished_runs_summary(tmp_path, small_gmm, watch_clustering_epochs):
    ds, split = small_gmm
    out = str(tmp_path / "run")
    train(TrainConfig(**{**SMALL, "seed": 3}), ds, split, out_dir=out)

    class Stop(Exception):
        pass

    def bail(pool, n):
        if n == 2:
            raise Stop

    with watch_clustering_epochs(bail), pytest.raises(Stop):
        train(TrainConfig(**{**SMALL, "seed": 4}), ds, split, out_dir=out)
    state = load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert (state["config"]["seed"], state["iteration"]) == (4, 1)
    assert sorted(os.listdir(out)) == sorted(["checkpoint.json", state["tensors"]["file"], "metrics.csv"])


def test_fresh_run_into_a_used_directory_leaves_what_an_empty_one_gets(tmp_path, small_gmm):
    # SMALL saves three checkpoints, so a run that continued the old
    # manifest's slot alternation would end on the other tensor file
    ds, split = small_gmm
    empty, used = tmp_path / "empty", tmp_path / "used"
    for out in (empty, used, used):
        train(TrainConfig(**SMALL), ds, split, out_dir=str(out))
    assert sorted(os.listdir(used)) == sorted(os.listdir(empty))
    assert "checkpoint.a.cssr" in os.listdir(used)
    assert (used / "checkpoint.json").read_bytes() == (empty / "checkpoint.json").read_bytes()


def test_resume_under_other_thread_settings_warns_and_completes(tmp_path, small_gmm, monkeypatch,
                                                                 caplog, watch_clustering_epochs):
    ds, split = small_gmm
    cfg = TrainConfig(**SMALL)
    full = train(cfg, ds, split)

    class Stop(Exception):
        pass

    def bail(pool, n):
        if n == 2:
            raise Stop

    out = str(tmp_path / "run")
    with watch_clustering_epochs(bail), pytest.raises(Stop):
        train(cfg, ds, split, out_dir=out)
    ck = os.path.join(out, "checkpoint.json")
    written = load_checkpoint(ck)["environment"]
    assert written["numpy"] == np.__version__
    monkeypatch.setenv("OMP_NUM_THREADS", "7" if written["OMP_NUM_THREADS"] != "7" else "5")
    caplog.set_level(logging.WARNING, logger="clusterssl.trainer")
    resumed = train(cfg, ds, split, out_dir=out, resume_from=ck)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "OMP_NUM_THREADS" in warnings[0] and "OPENBLAS_NUM_THREADS" not in warnings[0]
    assert "numpy" not in warnings[0]
    assert resumed.csv_text() == full.csv_text()


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


def test_no_labeled_image_is_refused_before_any_work(tmp_path, small_gmm):
    ds, split = small_gmm
    unlabeled_only = DatasetSplit(np.empty(0, dtype=np.int64), split.unlabeled_idx, split.test_idx)
    out = tmp_path / "run"
    with pytest.raises(ConfigurationError, match="labeled"):
        train(TrainConfig(**SMALL), ds, unlabeled_only, out_dir=str(out))
    assert not out.exists()
    rec = train(TrainConfig(**{**SMALL, "e1": 0}), ds, unlabeled_only)
    assert [r["phase"] for r in rec.rows] == ["cluster", "eval"] * SMALL["iters"]


def test_determinism(small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**SMALL)
    a = train(cfg, ds, split)
    b = train(cfg, ds, split)
    assert a.csv_text() == b.csv_text()
    np.testing.assert_array_equal(a.model.params, b.model.params)
    np.testing.assert_array_equal(a.ema.shadow, b.ema.shadow)


def test_outputs_and_resume_are_byte_exact(tmp_path, small_gmm, watch_clustering_epochs):
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

    def bail(pool, n):
        if n == 2:
            raise Stop

    part_dir = str(tmp_path / "part")
    with watch_clustering_epochs(bail), pytest.raises(Stop):
        train(cfg, ds, split, out_dir=part_dir)
    resumed = train(cfg, ds, split, out_dir=part_dir,
                    resume_from=os.path.join(part_dir, "checkpoint.json"))
    assert open(os.path.join(part_dir, "metrics.csv")).read() == full_csv
    np.testing.assert_array_equal(resumed.model.params, rec.model.params)


def test_summary_reuses_the_last_eval(tmp_path, small_gmm, monkeypatch):
    import clusterssl.trainer as trainer_mod

    ds, split = small_gmm
    cfg = TrainConfig(**SMALL)
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(trainer_mod, "evaluate", counted)
    first = str(tmp_path / "first")
    rec = train(cfg, ds, split, out_dir=first)
    assert len(calls) == cfg.iters  # one per iteration, none for the summary
    test = split.test_idx
    cls_acc, clu_acc, perm = evaluate(
        Model.from_arch(rec.model.arch(), rec.ema.shadow), ds.features[test], ds.labels[test]
    )
    assert (rec.summary["test_cls_acc"], rec.summary["test_clu_acc"]) == (cls_acc, clu_acc)
    assert rec.summary["best_perm"] == perm.tolist()

    # resuming from the final checkpoint runs no iteration, so it evaluates afresh
    calls.clear()
    again = str(tmp_path / "again")
    train(cfg, ds, split, out_dir=again, resume_from=os.path.join(first, "checkpoint.json"))
    assert len(calls) == 1
    with open(os.path.join(first, "summary.json"), "rb") as a, \
            open(os.path.join(again, "summary.json"), "rb") as b:
        assert a.read() == b.read()


def test_evaluation_reads_the_ema_shadow_in_place(small_gmm, monkeypatch):
    import clusterssl.trainer as trainer_mod

    ds, split = small_gmm
    models = []

    def capture(model, *args):
        models.append(model)
        return evaluate(model, *args)

    monkeypatch.setattr(trainer_mod, "evaluate", capture)
    rec = train(TrainConfig(**SMALL), ds, split)
    assert len(models) == SMALL["iters"]
    for model in models:
        for layer in (*model.trunk, model.cluster_head, model.rot_head):
            assert np.shares_memory(layer.weight, rec.ema.shadow)
            assert not np.shares_memory(layer.weight, rec.model.params)
        assert not np.shares_memory(model.params, rec.model.params)


# the gmm_wide_k10 benchmark workload: K = 10, 336k parameters, half-filled pool
WIDE_K10 = {
    "version": 1,
    "dataset": {"generator": "gaussian_mixture", "k": 10, "n": 4000, "d": 128, "seed": 11},
    "split": {"seed": 2},
    "train": {"iters": 1, "hidden_sizes": [512, 512], "alpha": 0.5, "seed": 4},
}


def test_wide_training_iteration_traced_peak(tmp_path):
    # one iteration at this shape traces a 23.0 MB peak; holding a copy of the
    # unlabeled features, an evaluation model's copy of the EMA shadow or a
    # rows x width leaky-ReLU scratch, any one of them, read 25.6 to 26.2 MB
    cfg = ExperimentConfig.from_dict(WIDE_K10)
    ds, split = build_experiment(cfg)
    tracemalloc.start()
    try:
        train(cfg.train, ds, split, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_wide_runs_write_the_same_bytes_with_the_trunk_split(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict({**WIDE_K10, "train": {**WIDE_K10["train"], "iters": 2}})
    ds, split = build_experiment(cfg)
    handoffs = []
    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        worker = SimpleNamespace(submit=lambda *args: handoffs.append(1) or pool.submit(*args))
        for name, use in (("whole", None), ("split", worker)):
            monkeypatch.setattr(network, "_worker", lambda: use)
            train(cfg.train, ds, split, out_dir=str(tmp_path / name))
    assert handoffs  # the 448- and 340-row passes and the 800-row evals split
    files = sorted(os.listdir(tmp_path / "whole"))
    assert {"metrics.csv", "summary.json", "checkpoint.json"} < set(files)
    assert sorted(os.listdir(tmp_path / "split")) == files
    for name in files:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


@pytest.mark.parametrize("config", ["toy_gmm", "shapes8"])
def test_the_committed_configs_never_hand_off_a_forward(config, monkeypatch):
    # a handoff costs more than it saves below the split rule's size: none may run
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{config}.json"))
    ds, split = build_experiment(cfg)
    handoffs = []
    monkeypatch.setattr(network, "_worker", lambda: handoffs.append(1))
    train(replace(cfg.train, iters=1), ds, split)
    assert handoffs == []


def test_resume_refuses_other_config(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 1})
    out = str(tmp_path / "run")
    train(cfg, ds, split, out_dir=out)
    other = TrainConfig(**{**SMALL, "iters": 1, "lr_ssl": 0.07})
    with pytest.raises(ConfigurationError, match="different config"):
        train(other, ds, split, resume_from=os.path.join(out, "checkpoint.json"))


def test_resume_refuses_data_the_checkpoint_does_not_fit(tmp_path, small_gmm):
    from clusterssl.data import make_gaussian_mixture

    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 1})
    out = str(tmp_path / "run")
    train(cfg, ds, split, out_dir=out)
    ck = os.path.join(out, "checkpoint.json")
    for (k, n, d), message in (((4, 300, 16), "unlabeled images"),
                               ((4, 400, 9), "-dim inputs"),
                               ((3, 400, 16), "clusters")):
        other = make_gaussian_mixture(k, n, d, 6.0, seed=7)
        with pytest.raises(ConfigurationError, match=message):
            train(cfg, other, partition(other, 4, 0.2, seed=1), resume_from=ck)


def test_resume_refuses_a_checkpoint_past_the_run(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 1})
    out = str(tmp_path / "run")
    train(cfg, ds, split, out_dir=out)
    os.remove(os.path.join(out, "summary.json"))
    ck = os.path.join(out, "checkpoint.json")
    with open(ck, encoding="utf-8") as fh:
        state = json.load(fh)
    state["iteration"] = 99
    with open(ck, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    with pytest.raises(ConfigurationError, match=r"at iteration 99, past the config's iters \(1\)") as info:
        train(cfg, ds, split, out_dir=out, resume_from=ck)
    assert ck in str(info.value)
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_divergence_aborts_and_keeps_last_checkpoint(tmp_path, small_gmm):
    ds, split = small_gmm
    cfg = TrainConfig(**{**SMALL, "iters": 10, "lr_ssl": 1e200, "wd_ssl": 1.0})
    out = str(tmp_path / "boom")
    with pytest.raises(DivergenceError), pytest.warns(RuntimeWarning):
        train(cfg, ds, split, out_dir=out)
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    state = load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert state["iteration"] < cfg.iters
    assert np.all(np.isfinite(state["model"].params))


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
    acc = rotation_accuracy(rec.model, ds.features[split.test_idx])
    assert 0.0 <= acc <= 1.0


def test_the_suite_runs_on_one_blas_thread(openblas):
    # conftest pins the thread variables before numpy is first imported; an
    # import that moved ahead of it would leave the library default in place
    assert {var: os.environ.get(var) for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "1")
    assert openblas["threads"] in (None, 1), openblas
