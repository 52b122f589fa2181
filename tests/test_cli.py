import json
import os
import subprocess
import sys
import warnings

import pytest

from clusterssl.cli import main


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


def test_negative_threads_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, GMM_TRAIN)
    assert main(["train", "--config", path, "--dry-run", "--threads", "-1"]) == 2
    capsys.readouterr()


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
    for payload, message in (("[]", "not a JSON object"), ('{"version": 1}', "lacks key")):
        broken.write_text(payload)
        assert main(["eval", "--config", path, "--checkpoint", str(broken)]) == 2
        assert message in capsys.readouterr().err

    # vector data cannot drive the rotation-vote permutation curve
    assert main(["eval", "--config", path, "--checkpoint", ck, "--topk", "2"]) == 2
    capsys.readouterr()


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
