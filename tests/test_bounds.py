"""The bounds table against the config loader, the checkpoint loader and the
README: every entry's boundary values give the verdict the table predicts."""

import copy
import json
import math
import os
import shutil

import pytest

from clusterssl.cli import main
from clusterssl.data import SHAPE_NAMES
from clusterssl.errors import BOUNDS_TABLE, bound_words
from clusterssl.trainer import load_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GMM = {
    "version": 1,
    "dataset": {"generator": "gaussian_mixture", "k": 3, "n": 60, "d": 8, "separation": 6.0, "seed": 0},
    "split": {"labels_per_class": 2, "test_frac": 0.2, "seed": 0},
    "train": {"iters": 1, "hidden_sizes": [8, 8]},
}
SHAPES = dict(GMM, dataset={"generator": "shapes", "k": 3, "n": 48, "size": 8, "seed": 0})

ENTRIES = [(kind, interval, key) for kind, interval, keys in BOUNDS_TABLE for key in keys.split()]
MANIFEST_ENTRIES = [entry for entry in ENTRIES if not entry[2].startswith(("version", "dataset.", "split.", "train."))]
CONFIG_ENTRIES = [entry for entry in ENTRIES if entry not in MANIFEST_ENTRIES]


def boundary_values(kind: str, interval: str) -> list:
    """Each finite end of the interval and its float neighbours (and, for an
    integer, its integer neighbours), then NaN, +-inf, 1e308, true and a string."""
    values = [math.nan, math.inf, -math.inf, 1e308, True, "x"]
    if kind == "bool":
        return [*values, False, 0, 1]
    for end in interval[1:-1].split(", "):
        if end != "inf":
            bound = float(end)
            values += [int(bound) if kind == "int" else bound,
                       math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
            values += [int(bound) - 1, int(bound) + 1] if kind == "int" else []
    return values


def table_accepts(kind: str, interval: str, value) -> bool:
    """The table's verdict, read from the entry's type and interval text alone."""
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    if not isinstance(value, int if kind == "int" else (int, float)) or not math.isfinite(value):
        return False
    low, high = (float(end) for end in interval[1:-1].split(", "))
    return ((low < value) if interval[0] == "(" else (low <= value)) and \
        ((value < high) if interval[-1] == ")" else (value <= high))


def indexed(key: str) -> str:
    """The key a message names: a list's entry [i] is walked at index 1."""
    return key.replace("[i]", "[1]")


def config_with(key: str, value) -> dict:
    cfg = copy.deepcopy(SHAPES if key == "dataset.size" else GMM)
    if key == "version":
        cfg["version"] = value
    else:
        block, name = key.split(".")
        if name == "hidden_sizes[i]":
            cfg[block]["hidden_sizes"][1] = value
        else:
            cfg[block][name] = value
    return cfg


def cross_rules_hold(cfg: dict) -> bool:
    """The rules that relate two dataset keys, which the table leaves to code."""
    ds = cfg["dataset"]
    if ds["n"] < ds["k"]:
        return False
    if ds["generator"] == "shapes":
        return ds["k"] <= len(SHAPE_NAMES)
    return not (ds["separation"] > 0 and ds["d"] < ds["k"])


def dry_run_cases(kind: str, interval: str, key: str) -> list:
    """(config, expected exit code) for each boundary value of one config entry."""
    cases = []
    for value in boundary_values(kind, interval):
        cfg = config_with(key, value)
        cases.append((cfg, 0 if table_accepts(kind, interval, value) and cross_rules_hold(cfg) else 2))
    return cases


@pytest.mark.parametrize("kind, interval, key", CONFIG_ENTRIES, ids=[key for _, _, key in CONFIG_ENTRIES])
def test_dry_run_exit_follows_the_table(tmp_path, capsys, kind, interval, key):
    path = tmp_path / "cfg.json"
    wrong = []
    for cfg, want in dry_run_cases(kind, interval, key):
        path.write_text(json.dumps(cfg))
        got = main(["train", "--config", str(path), "--dry-run"])
        err = capsys.readouterr().err
        if got != want or (got == 2 and indexed(key) not in err):
            wrong.append((cfg, want, got, err))
    assert not wrong


@pytest.fixture(scope="module")
def toy_gmm_manifest():
    with open(os.path.join(ROOT, "runs", "toy_gmm", "checkpoint.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind, interval, key", MANIFEST_ENTRIES, ids=[key for _, _, key in MANIFEST_ENTRIES])
def test_manifest_field_loads_or_is_named(tmp_path, toy_gmm_manifest, kind, interval, key):
    shutil.copy(os.path.join(ROOT, "runs", "toy_gmm", toy_gmm_manifest["tensors"]["file"]), tmp_path)
    path = str(tmp_path / "checkpoint.json")
    wrong = []
    for value in boundary_values(kind, interval):
        state = copy.deepcopy(toy_gmm_manifest)
        if key.startswith("arch."):
            name = key[len("arch."):]
            if name == "hidden_sizes[i]":
                state["arch"]["hidden_sizes"][1] = value
            else:
                state["arch"][name] = value
        else:
            state[key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        try:
            load_checkpoint(path)
            error = None
        except ValueError as exc:
            error = str(exc)
        if table_accepts(kind, interval, value):
            # an arch of another size no longer fits the parameter vector
            ok = error is None or (key.startswith("arch.") and "arch and params do not make a model" in error)
        else:
            ok = error is not None and indexed(key) in error
        if not ok or (error is not None and path not in error):
            wrong.append((value, error))
    assert not wrong


def test_readme_lists_every_table_entry():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    lines = [f"- {', '.join(f'`{key}`' for key in keys.split())}: {bound_words(kind, interval)}"
             for kind, interval, keys in BOUNDS_TABLE]
    assert "\n".join(lines) + "\n" in readme, "\n".join(lines)
