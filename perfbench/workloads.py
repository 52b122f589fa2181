"""Workload definitions and the configs generated from a workload seed.

A config seed n adds n to each of the dataset, split and train seeds;
config seed 0 reproduces the committed configs exactly. An untraced run
with workload seed s and J jobs trains on config seeds s*J to s*J + J - 1,
so runs with different seeds share no data. The program only ever sees a
generated config file, never the benchmark's seed itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # committed config the workload starts from, or None for `base`
    config_path: str | None
    # config dict used when config_path is None
    base: dict | None
    # committed run directory that seed 0 must reproduce byte for byte
    reference_dir: str | None
    # test_clu_acc that the seed-0 run of the seed commit reaches
    target_acc: float
    # iterations of each timed job of an untraced run; traced jobs run the
    # config's own iterations
    timed_iters: int
    # seconds of an untraced run given to each timed job, its evals and
    # set-ups: a run of S seconds holds max(1, S // job_share_s) jobs
    job_share_s: float


# perfbench/README.md says why each workload is here
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gmm_k4",
            config_path="configs/toy_gmm.json",
            base=None,
            reference_dir="runs/toy_gmm",
            target_acc=0.95,
            timed_iters=10,
            job_share_s=9.0,
        ),
        Workload(
            name="shapes8_k4",
            config_path="configs/shapes8.json",
            base=None,
            reference_dir="runs/shapes8",
            target_acc=0.90,
            timed_iters=10,
            job_share_s=12.0,
        ),
        Workload(
            name="gmm_wide_k10",
            config_path=None,
            base={
                "version": 1,
                "dataset": {"generator": "gaussian_mixture", "k": 10, "n": 4000,
                            "d": 128, "seed": 11},
                "split": {"seed": 2},
                "train": {"iters": 5, "hidden_sizes": [512, 512], "alpha": 0.5,
                          "seed": 4},
            },
            reference_dir=None,
            target_acc=0.45,
            timed_iters=1,
            job_share_s=6.0,
        ),
    )
}


def jobs_per_run(workload: Workload, seconds: float) -> int:
    return max(1, int(seconds // workload.job_share_s))


def job_seed(seed: int, job: int, jobs: int) -> int:
    """Config seed of job `job` of a run with `jobs` jobs: runs never share data."""
    return seed * jobs + job


def generate_config(workload: Workload, seed: int, root: Path, dest: Path, out_dir: Path,
                    iters: int | None = None) -> Path:
    """Write the workload's config for `seed` to `dest`; returns `dest`.

    `iters` replaces the config's iteration count. Nothing else in a run
    depends on it, so the rows of a shorter run are a prefix of the full
    run's metrics.csv.
    """
    from clusterssl.config import ExperimentConfig, load_config

    if workload.config_path is not None:
        raw = load_config(str(root / workload.config_path)).to_dict()
    else:
        raw = ExperimentConfig.from_dict(workload.base).to_dict()
    for block in ("dataset", "split", "train"):
        raw[block]["seed"] += seed
    if iters is not None:
        raw["train"]["iters"] = iters
    raw["out_dir"] = str(out_dir)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return dest
