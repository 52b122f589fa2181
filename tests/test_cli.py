import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from clusterssl.cli import main
from clusterssl.trainer import CHECKPOINT_VERSION

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GMM_TRAIN = {
    "dataset": {"generator": "gaussian_mixture", "k": 3, "n": 60, "d": 8, "seed": 0},
    "split": {"labels_per_class": 2, "test_frac": 0.2, "seed": 0},
    "train": {"iters": 1, "e1": 1, "e2": 1, "warmup_rot_epochs": 0, "rotnet": False,
              "hidden_sizes": [8], "batch_size": 8, "mu": 2, "seed": 1},
}

SHAPES_TRAIN = {
    "dataset": {"generator": "shapes", "k": 3, "n": 48, "size": 8, "seed": 0},
    "split": {"labels_per_class": 2, "test_frac": 0.25, "seed": 0},
    "train": {"iters": 1, "e1": 1, "e2": 1, "warmup_rot_epochs": 1,
              "hidden_sizes": [12], "batch_size": 8, "mu": 2, "seed": 1},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def acc_lines(text):
    return [l for l in text.splitlines() if l.startswith("test ")]


def test_dry_run_touches_nothing(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    cfg = dict(GMM_TRAIN, out_dir=str(out_dir))
    path = write_cfg(tmp_path, cfg)
    assert main(["train", "--config", path, "--dry-run"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["train"]["iters"] == 1
    assert resolved["train"]["lr_ssl"] == 0.03  # defaults resolved
    assert not out_dir.exists()


def test_dry_run_overrides(tmp_path, capsys):
    path = write_cfg(tmp_path, GMM_TRAIN)
    assert main(["train", "--config", path, "--dry-run",
                 "--seed", "42", "--out", "elsewhere"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["train"]["seed"] == 42
    assert resolved["out_dir"] == "elsewhere"


def test_bad_config_is_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    path = write_cfg(tmp_path, {"dataset": {"generator": "gaussian_mixture"}, "oops": 1})
    assert main(["train", "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tau", 1.5), ("tau", 0.0), ("rho", 2.0), ("rho", -0.1), ("lambda_u", -1.0), ("mu", 0),
    ("logit_temperature", 0.0), ("alpha", 0.0), ("alpha", 1.5), ("hidden_sizes", [0]),
    ("tau", 1.0), ("batch_size", 0), ("lr_cluster", 0.0), ("wd_ssl", -1e-4),
    ("leaky_slope", 2.0), ("leaky_slope", float("nan")),
])
def test_out_of_range_train_value_is_exit_2_on_dry_run(tmp_path, capsys, field, value):
    cfg = json.loads(json.dumps(GMM_TRAIN))
    cfg["train"][field] = value
    path = write_cfg(tmp_path, cfg)
    assert main(["train", "--config", path, "--dry-run"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("block, field, value", [
    ("dataset", "seed", 1.5), ("train", "seed", "x"), ("train", "batch_size", 8.5),
    ("train", "iters", True), ("split", "labels_per_class", "2"), ("train", "rotnet", 1),
])
def test_mistyped_config_value_is_exit_2_on_dry_run(tmp_path, capsys, block, field, value):
    cfg = json.loads(json.dumps(GMM_TRAIN))
    cfg[block][field] = value
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert f"{block}.{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("block, field, value", [
    ("dataset", "separation", float("nan")), ("dataset", "separation", float("inf")),
    ("train", "divergence_limit", float("nan")), ("train", "lr_ssl", float("nan")),
    ("split", "test_frac", float("-inf")),
])
def test_non_finite_config_number_is_exit_2_on_dry_run(tmp_path, capsys, block, field, value):
    cfg = json.loads(json.dumps(GMM_TRAIN))
    cfg[block][field] = value
    path = write_cfg(tmp_path, cfg)
    with open(path) as fh:
        text = fh.read()
    assert "NaN" in text or "Infinity" in text
    assert main(["train", "--config", path, "--dry-run"]) == 2
    assert f"{block}.{field} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("base, block, field, value", [
    (GMM_TRAIN, "split", "test_frac", 1.5), (GMM_TRAIN, "dataset", "separation", -1),
    (GMM_TRAIN, "dataset", "k", 0), (SHAPES_TRAIN, "dataset", "size", 50),
    (GMM_TRAIN, "dataset", "n", 2), (GMM_TRAIN, "split", "labels_per_class", 0),
])
def test_out_of_range_data_value_is_exit_2_on_dry_run(tmp_path, capsys, base, block, field, value):
    cfg = json.loads(json.dumps(base))
    cfg[block][field] = value
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert f"{block}.{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("base, k, message", [
    (GMM_TRAIN, 1, "dataset.k must be an integer >= 2, got 1"),
    (SHAPES_TRAIN, 1, "dataset.k must be an integer >= 2, got 1"),
    (SHAPES_TRAIN, 7, "dataset.k must be <= 6 for the shapes generator, got 7"),
], ids=["gaussian_mixture-1", "shapes-1", "shapes-7"])
def test_generator_k_outside_the_clustering_range_is_exit_2_on_dry_run(
        tmp_path, capsys, base, k, message):
    # the generators can make one class, but the clustering phase needs two
    cfg = json.loads(json.dumps(base))
    cfg["dataset"]["k"] = k
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert message in capsys.readouterr().err


def test_one_class_dataset_file_is_exit_2_on_train(tmp_path, capsys):
    from clusterssl.data import make_gaussian_mixture, save_dataset

    data = str(tmp_path / "one.cssr")
    save_dataset(data, make_gaussian_mixture(1, 60, 8, 6.0, seed=0))
    cfg = dict(GMM_TRAIN, dataset={"path": data})
    path = write_cfg(tmp_path, cfg)
    assert main(["train", "--config", path, "--dry-run"]) == 0
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    assert "dataset.k must be an integer >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [(None, "No such file"),
                                              (b"CSSR\x01\x00", "truncated record header")],
                         ids=["missing", "truncated"])
def test_unreadable_dataset_file_is_exit_2(tmp_path, capsys, content, message):
    data = tmp_path / "data.cssr"
    if content is not None:
        data.write_bytes(content)
    path = write_cfg(tmp_path, dict(GMM_TRAIN, dataset={"path": str(data)}))
    for command in (["train"], ["eval", "--checkpoint", str(tmp_path / "ck.json")]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"cannot load dataset.path {data}" in err and message in err


def test_float_labels_dataset_file_is_exit_2(tmp_path, capsys):
    # labels 0.5 and 1.7 must not load as classes 0 and 1
    import numpy as np

    from clusterssl.data import write_record

    data = tmp_path / "data.cssr"
    with open(data, "wb") as fh:
        write_record(fh, np.zeros((60, 8)))
        write_record(fh, np.tile([0.5, 1.7], 30))
    path = write_cfg(tmp_path, dict(GMM_TRAIN, dataset={"path": str(data)}))
    for command in (["train"], ["eval", "--checkpoint", str(tmp_path / "ck.json")]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"cannot load dataset.path {data}" in err
        assert "labels must have an integer dtype, got float64" in err


def test_negative_threads_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, GMM_TRAIN)
    assert main(["train", "--config", path, "--dry-run", "--threads", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("block", ["dataset", "split", "train"])
def test_negative_config_seed_is_exit_2_on_dry_run(tmp_path, capsys, block):
    cfg = json.loads(json.dumps(GMM_TRAIN))
    cfg[block]["seed"] = -1
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert f"{block}.seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_negative_seed_flag_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, GMM_TRAIN)
    assert main(["train", "--config", path, "--dry-run", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["verify", "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_threads_pin_env(tmp_path, capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    path = write_cfg(tmp_path, GMM_TRAIN)
    assert main(["train", "--config", path, "--dry-run", "--threads", "2"]) == 0
    capsys.readouterr()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_train_then_eval_matches(tmp_path, capsys):
    out = str(tmp_path / "run")
    path = write_cfg(tmp_path, dict(GMM_TRAIN, out_dir=out))
    assert main(["train", "--config", path]) == 0
    train_out = capsys.readouterr().out
    assert f"artifacts written to {out}" in train_out
    for name in ("metrics.csv", "checkpoint.json", "summary.json"):
        assert os.path.exists(os.path.join(out, name))

    ck = os.path.join(out, "checkpoint.json")
    assert main(["eval", "--config", path, "--checkpoint", ck]) == 0
    eval_out = capsys.readouterr().out
    assert acc_lines(eval_out) == acc_lines(train_out)
    assert "best cluster->class permutation:" in eval_out


def test_eval_topk_curve(tmp_path, capsys):
    out = str(tmp_path / "run")
    path = write_cfg(tmp_path, dict(SHAPES_TRAIN, out_dir=out))
    assert main(["train", "--config", path]) == 0
    capsys.readouterr()
    ck = os.path.join(out, "checkpoint.json")
    assert main(["eval", "--config", path, "--checkpoint", ck, "--topk", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("k,accuracy")
    rows = [l.split(",") for l in lines[start + 1 : start + 4]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    accs = [float(r[1]) for r in rows]
    assert accs == sorted(accs)  # running best never decreases


def test_eval_reads_the_ema_shadow_in_place(tmp_path, capsys, monkeypatch):
    import clusterssl.trainer as trainer_mod

    out = str(tmp_path / "run")
    path = write_cfg(tmp_path, dict(SHAPES_TRAIN, out_dir=out))
    assert main(["train", "--config", path]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    states, calls = [], []
    load, eval_summary = trainer_mod.load_checkpoint, trainer_mod.eval_summary

    def load_capture(*args):
        states.append(load(*args))
        return states[-1]

    def summary_capture(model, *args):
        calls.append((model, eval_summary(model, *args)))
        return calls[-1][1]

    monkeypatch.setattr(trainer_mod, "load_checkpoint", load_capture)
    monkeypatch.setattr(trainer_mod, "eval_summary", summary_capture)
    # train's summary ranks 100 matchings, every one of the 3! here
    assert main(["eval", "--config", path, "--checkpoint", os.path.join(out, "checkpoint.json"),
                 "--topk", "100"]) == 0
    capsys.readouterr()
    (state,), ((model, fields),) = states, calls
    for layer in (*model.trunk, model.cluster_head, model.rot_head):
        assert np.shares_memory(layer.weight, state["ema_shadow_arr"])
        assert not np.shares_memory(layer.weight, state["model"].params)
    assert not np.shares_memory(model.params, state["model"].params)
    keys = ("test_cls_acc", "test_clu_acc", "best_perm", "topk_curve")
    assert set(fields) == set(keys) and len(fields["topk_curve"]) == 6
    assert fields == {key: summary[key] for key in keys}


@pytest.mark.parametrize("run, topk", [("toy_gmm", "0"), ("shapes8", "24")])
def test_committed_checkpoint_reproduces_its_summary(capsys, run, topk):
    with open(os.path.join(ROOT, "runs", run, "summary.json")) as fh:
        summary = json.load(fh)
    assert main(["eval", "--config", os.path.join(ROOT, "configs", f"{run}.json"),
                 "--checkpoint", os.path.join(ROOT, "runs", run, "checkpoint.json"),
                 "--topk", topk]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        f"test classification accuracy: {summary['test_cls_acc']:.4f}",
        f"test clustering accuracy:     {summary['test_clu_acc']:.4f}",
        f"best cluster->class permutation: {summary['best_perm']}",
    ]
    curve = [float(line.split(",")[1]) for line in lines[4:]]
    assert curve == summary.get("topk_curve", [])[: int(topk)]


def test_eval_refuses_checkpoint_rows_with_unknown_keys(tmp_path, capsys):
    # such rows once resumed silently, writing a metrics.csv line of empty fields
    run = os.path.join(ROOT, "runs", "toy_gmm")
    with open(os.path.join(run, "checkpoint.json"), encoding="utf-8") as fh:
        state = json.load(fh)
    shutil.copy(os.path.join(run, state["tensors"]["file"]), tmp_path)
    ck = tmp_path / "checkpoint.json"
    ck.write_text(json.dumps(dict(state, iteration=1, rows=[{"bogus": 1}])))
    assert main(["eval", "--config", os.path.join(ROOT, "configs", "toy_gmm.json"),
                 "--checkpoint", str(ck), "--threads", "1"]) == 2
    out, err = capsys.readouterr()
    assert str(ck) in err and "bogus" in err and "accuracy" not in out


def test_eval_mismatches_are_exit_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    path = write_cfg(tmp_path, dict(GMM_TRAIN, out_dir=out))
    assert main(["train", "--config", path]) == 0
    capsys.readouterr()
    ck = os.path.join(out, "checkpoint.json")

    wrong_d = json.loads(json.dumps(GMM_TRAIN))
    wrong_d["dataset"]["d"] = 9
    assert main(["eval", "--config", write_cfg(tmp_path, wrong_d, "d9.json"),
                 "--checkpoint", ck]) == 2
    assert "-dim inputs" in capsys.readouterr().err

    wrong_k = json.loads(json.dumps(GMM_TRAIN))
    wrong_k["dataset"]["k"] = 4
    assert main(["eval", "--config", write_cfg(tmp_path, wrong_k, "k4.json"),
                 "--checkpoint", ck]) == 2
    assert "clusters" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text(open(ck).read()[:100])
    assert main(["eval", "--config", path, "--checkpoint", str(broken)]) == 2
    assert "corrupt" in capsys.readouterr().err
    for payload, message in (("[]", "not a JSON object"),
                             (json.dumps({"version": CHECKPOINT_VERSION}), "lacks key")):
        broken.write_text(payload)
        assert main(["eval", "--config", path, "--checkpoint", str(broken)]) == 2
        assert message in capsys.readouterr().err
    # a missing manifest or tensor file, an arch without hidden_sizes, a truncated
    # params record and a flipped payload byte name the key or the offset
    assert main(["eval", "--config", path, "--checkpoint", str(tmp_path / "gone.json")]) == 2
    assert "cannot read checkpoint" in capsys.readouterr().err
    good = json.loads(open(ck).read())
    with open(os.path.join(out, good["tensors"]["file"]), "rb") as fh:
        tensors = fh.read()
    flipped = bytearray(tensors)
    flipped[-100] ^= 1
    no_hidden = dict(good, arch={k: v for k, v in good["arch"].items() if k != "hidden_sizes"})
    # a config lacking a field is refused, not filled from the defaults
    no_temperature = dict(good, config={k: v for k, v in good["config"].items()
                                        if k != "logit_temperature"})
    text_tau = dict(good, config=dict(good["config"], tau="high"))
    for state, data, message in ((good, None, "cannot read tensor file"),
                                 (no_hidden, tensors, "arch.hidden_sizes"),
                                 (no_temperature, tensors, "config.logit_temperature"),
                                 (text_tau, tensors, "train.tau must be a number"),
                                 (dict(good, iteration=-7), tensors, "iteration must be a non-negative"),
                                 (good, tensors[:100], "params record"),
                                 (good, tensors[:100], "truncated record payload at offset 11"),
                                 (good, bytes(flipped), "tensors.crc32")):
        broken.write_text(json.dumps(state))
        tensor_path = tmp_path / good["tensors"]["file"]
        if data is None:
            tensor_path.unlink(missing_ok=True)
        else:
            tensor_path.write_bytes(data)
        assert main(["eval", "--config", path, "--checkpoint", str(broken)]) == 2
        out, err = capsys.readouterr()
        assert str(broken) in err and message in err and "accuracy" not in out

    # vector data cannot drive the rotation-vote permutation curve
    assert main(["eval", "--config", path, "--checkpoint", ck, "--topk", "2"]) == 2
    capsys.readouterr()

    # a negative --topk or --seed is refused before any work is done
    assert main(["eval", "--config", path, "--checkpoint", ck, "--topk", "-1"]) == 2
    out, err = capsys.readouterr()
    assert "--topk must be >= 0" in err and "accuracy" not in out
    assert main(["eval", "--config", path, "--checkpoint", ck, "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_verify_passes_and_corrupt_hook_fires(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["verify", "--corrupt"]) == 0
    out = capsys.readouterr().out
    assert "[corrupted]  FAIL" in out  # the deliberate corruption was caught


def test_divergence_is_exit_3(tmp_path, capsys):
    cfg = json.loads(json.dumps(GMM_TRAIN))
    cfg["train"].update(iters=5, lr_ssl=1e200, wd_ssl=1.0)
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["train", "--config", path]) == 3
    assert "training diverged" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clusterssl", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "verify" in proc.stdout
    assert "bench" not in proc.stdout
