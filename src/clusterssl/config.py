"""Experiment configs: JSON files (with `//` and `/* */` comments allowed)
describing the dataset, the labeled/unlabeled/test split, and training
hyper-parameters. Parsing is strict: unknown or missing keys are named in
the error so a typo never silently falls back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import check_gaussian_mixture, check_shape_images
from .errors import BOUNDS, ConfigurationError, check_value
from .trainer import TrainConfig

CONFIG_VERSION = int(BOUNDS["version"][1])  # the low end of the one version the table accepts

_GENERATORS = ("gaussian_mixture", "shapes")

_DATASET_DEFAULTS: dict[str, dict] = {
    "gaussian_mixture": {"k": 4, "n": 2000, "d": 16, "separation": 6.0, "seed": 0},
    "shapes": {"k": 4, "n": 800, "size": 8, "seed": 0},
}

_SPLIT_DEFAULTS = {"labels_per_class": 4, "test_frac": 0.2, "seed": 0}


def strip_comments(text: str) -> str:
    """Remove // line and /* */ block comments outside string literals."""
    out: list[str] = []
    i, n = 0, len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
            out.append(ch)
        elif ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise ConfigurationError("unterminated /* comment in config")
            i = end + 2
            continue
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _require_mapping(block, name: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigurationError(f"config key '{name}' must be an object")
    return block


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    split: dict = field(default_factory=lambda: dict(_SPLIT_DEFAULTS))
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str | None = None
    version: int = CONFIG_VERSION

    def __post_init__(self) -> None:
        check_value("version", self.version)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigurationError(f"out_dir must be a string or null, got {self.out_dir!r}")
        object.__setattr__(self, "dataset", _normalize_dataset(self.dataset))
        object.__setattr__(self, "split", _normalize_split(self.split))

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "dataset": dict(self.dataset),
            "split": dict(self.split),
            "train": self.train.to_dict(),
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _require_mapping(raw, "<root>")
        _check_keys(raw, {"version", "dataset", "split", "train", "out_dir"}, "config")
        if "dataset" not in raw:
            raise ConfigurationError("missing required key: dataset")
        train_block = _require_mapping(raw.get("train", {}), "train")
        known = set(TrainConfig.__dataclass_fields__)
        _check_keys(train_block, known, "train block")
        return cls(
            dataset=_require_mapping(raw["dataset"], "dataset"),
            split=_require_mapping(raw.get("split", dict(_SPLIT_DEFAULTS)), "split"),
            train=TrainConfig.from_dict(train_block),
            out_dir=raw.get("out_dir"),
            version=raw.get("version", CONFIG_VERSION),
        )


def _normalize_dataset(block: dict) -> dict:
    block = dict(block)
    if "path" in block:
        _check_keys(block, {"path"}, "dataset block")
        if not isinstance(block["path"], str):
            raise ConfigurationError(f"dataset.path must be a string, got {block['path']!r}")
        return block
    gen = block.pop("generator", None)
    if gen is None:
        raise ConfigurationError("dataset block needs either 'path' or 'generator'")
    if gen not in _GENERATORS:
        raise ConfigurationError(
            f"unknown dataset generator '{gen}' (choices: {', '.join(_GENERATORS)})"
        )
    defaults = _DATASET_DEFAULTS[gen]
    _check_keys(block, set(defaults), f"dataset block for '{gen}'")
    merged = {"generator": gen}
    merged.update(defaults)
    merged.update(block)
    for key in defaults:
        check_value(f"dataset.{key}", merged[key])
    # the rules that relate two keys
    if gen == "gaussian_mixture":
        check_gaussian_mixture(merged["k"], merged["n"], merged["d"], merged["separation"])
    else:
        check_shape_images(merged["k"], merged["n"], merged["size"])
    return merged


def _normalize_split(block: dict) -> dict:
    block = dict(block)
    _check_keys(block, set(_SPLIT_DEFAULTS), "split block")
    merged = dict(_SPLIT_DEFAULTS)
    merged.update(block)
    for key in _SPLIT_DEFAULTS:
        check_value(f"split.{key}", merged[key])
    return merged


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(strip_comments(text))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def build_experiment(cfg: ExperimentConfig):
    """Materialize (dataset, split) from a config."""
    from .data import load_dataset, make_gaussian_mixture, make_shape_images, partition

    block = cfg.dataset
    if "path" in block:
        try:
            ds = load_dataset(block["path"])
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot load dataset.path {block['path']}: {exc}") from None
    elif block["generator"] == "gaussian_mixture":
        ds = make_gaussian_mixture(
            block["k"], block["n"], block["d"], block["separation"], block["seed"]
        )
    else:
        ds = make_shape_images(block["k"], block["n"], block["size"], block["seed"])
    split = partition(ds, cfg.split["labels_per_class"], cfg.split["test_frac"], cfg.split["seed"])
    return ds, split
