import json
import re

import numpy as np
import pytest

from clusterssl.config import (
    ExperimentConfig,
    build_experiment,
    load_config,
    strip_comments,
)
from clusterssl.errors import ConfigurationError
from clusterssl.trainer import TrainConfig


GMM = {"generator": "gaussian_mixture", "k": 3, "n": 60, "d": 8}


def write(tmp_path, text, name="c.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_strip_comments():
    src = '{ // trailing\n "a": 1, /* block\n spans lines */ "b": "x" }'
    assert json.loads(strip_comments(src)) == {"a": 1, "b": "x"}


def test_strip_comments_leaves_strings_alone():
    src = '{"url": "http://x/*y*/z", "note": "a // b \\" // c"}'
    assert json.loads(strip_comments(src)) == {
        "url": "http://x/*y*/z",
        "note": 'a // b " // c',
    }


def test_strip_comments_unterminated_block():
    with pytest.raises(ConfigurationError):
        strip_comments('{"a": 1} /* oops')


def test_missing_dataset_key():
    with pytest.raises(ConfigurationError, match="dataset"):
        ExperimentConfig.from_dict({"train": {}})


def test_unknown_keys_are_named():
    with pytest.raises(ConfigurationError, match="bogus"):
        ExperimentConfig.from_dict({"dataset": GMM, "bogus": 1})
    with pytest.raises(ConfigurationError, match="learning_rate"):
        ExperimentConfig.from_dict({"dataset": GMM, "train": {"learning_rate": 0.1}})
    with pytest.raises(ConfigurationError, match="frac"):
        ExperimentConfig.from_dict({"dataset": GMM, "split": {"frac": 0.5}})


def test_generator_validation():
    with pytest.raises(ConfigurationError, match="generator"):
        ExperimentConfig.from_dict({"dataset": {"generator": "mnist"}})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"dataset": {}})
    # gmm-only knobs are rejected for the shapes generator
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"dataset": {"generator": "shapes", "d": 16}})


@pytest.mark.parametrize("block, payload", [
    ("dataset", {"dataset": dict(GMM, seed=-1)}),
    ("split", {"dataset": GMM, "split": {"seed": -2}}),
])
def test_negative_data_seed_is_rejected(block, payload):
    with pytest.raises(ConfigurationError, match=f"{block}.seed must be a non-negative integer"):
        ExperimentConfig.from_dict(payload)


def test_negative_train_seed_is_rejected():
    with pytest.raises(ConfigurationError, match="train.seed must be a non-negative integer"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigurationError, match="train.seed must be a non-negative integer"):
        ExperimentConfig.from_dict({"dataset": GMM, "train": {"seed": -3}})


@pytest.mark.parametrize("payload, key", [
    ({"dataset": dict(GMM, seed=1.5)}, "dataset.seed"),
    ({"dataset": dict(GMM, k=True)}, "dataset.k"),
    ({"dataset": dict(GMM, separation="far")}, "dataset.separation"),
    ({"dataset": {"path": 3}}, "dataset.path"),
    ({"dataset": GMM, "split": {"test_frac": None}}, "split.test_frac"),
    ({"dataset": GMM, "train": {"seed": "x"}}, "train.seed"),
    ({"dataset": GMM, "train": {"batch_size": 8.5}}, "train.batch_size"),
    ({"dataset": GMM, "train": {"lr_ssl": "0.03"}}, "train.lr_ssl"),
    ({"dataset": GMM, "train": {"rotnet": "yes"}}, "train.rotnet"),
    ({"dataset": GMM, "train": {"hidden_sizes": 64}}, "train.hidden_sizes"),
    ({"dataset": GMM, "train": {"hidden_sizes": [64, 1.5]}}, "train.hidden_sizes[1]"),
    ({"dataset": GMM, "out_dir": 5}, "out_dir"),
    ({"dataset": GMM, "version": 1.0}, "version"),
])
def test_mistyped_values_are_named(payload, key):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)} must be"):
        ExperimentConfig.from_dict(payload)


def test_ints_pass_for_float_fields():
    cfg = ExperimentConfig.from_dict({"dataset": dict(GMM, separation=6), "train": {"lr_ssl": 1}})
    assert cfg.dataset["separation"] == 6 and cfg.train.lr_ssl == 1
    assert TrainConfig(seed=np.int64(3), hidden_sizes=[np.int64(4)]).hidden_sizes == (4,)


def test_version_mismatch():
    with pytest.raises(ConfigurationError, match="version"):
        ExperimentConfig.from_dict({"dataset": GMM, "version": 99})


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_dict({"dataset": {"generator": "shapes"}})
    assert cfg.dataset["size"] == 8
    assert cfg.split["labels_per_class"] == 4
    assert cfg.train == TrainConfig()
    assert cfg.out_dir is None


def test_round_trip():
    cfg = ExperimentConfig.from_dict({
        "dataset": GMM,
        "split": {"labels_per_class": 2, "test_frac": 0.25, "seed": 9},
        "train": {"iters": 7, "e1": 2, "lr_ssl": 0.05, "seed": 11},
        "out_dir": "runs/x",
    })
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = write(tmp_path, '{"dataset": }')
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(bad)


def test_load_config_with_comments(tmp_path):
    path = write(tmp_path, """{
      // dataset under test
      "dataset": {"generator": "gaussian_mixture", "k": 3, "n": 60, "d": 8},
      "train": {"iters": 1} /* short run */
    }""")
    cfg = load_config(path)
    assert cfg.train.iters == 1
    assert cfg.dataset["k"] == 3


def test_build_experiment_generates_split():
    cfg = ExperimentConfig.from_dict({
        "dataset": GMM,
        "split": {"labels_per_class": 2, "test_frac": 0.2, "seed": 0},
    })
    ds, split = build_experiment(cfg)
    assert ds.features.shape == (60, 8)
    assert split.labeled_idx.shape == (6,)  # 2 per class, k=3
    assert split.test_idx.shape[0] == 12
