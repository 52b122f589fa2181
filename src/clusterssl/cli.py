"""Command-line entry point: train / eval / verify / bench.

numpy is imported lazily inside the subcommands so that ``--threads``
can pin the BLAS pool size through environment variables before the
first numpy import. Exit codes: 0 success, 1 check failure, 2 bad
configuration, 3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(n: int) -> None:
    if n < 0:
        from .errors import ConfigurationError

        raise ConfigurationError(f"--threads must be >= 0, got {n}")
    if n == 0:
        return
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _load(args):
    from .config import load_config

    cfg = load_config(args.config)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return cfg


def cmd_train(args) -> int:
    cfg = _load(args)
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2))
        return 0
    from .config import build_experiment
    from .trainer import train

    dataset, split = build_experiment(cfg)
    record = train(cfg.train, dataset, split, out_dir=cfg.out_dir)
    summary = record.summary
    if "test_cls_acc" in summary:
        print(f"test classification accuracy: {summary['test_cls_acc']:.4f}")
        print(f"test clustering accuracy:     {summary['test_clu_acc']:.4f}")
    else:
        print("no test split; nothing to evaluate")
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from .config import build_experiment
    from .errors import ConfigurationError
    from .trainer import evaluate, load_checkpoint, topk_permutation_accuracy

    cfg = _load(args)
    dataset, split = build_experiment(cfg)
    try:
        state = load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    model = state["model"]
    if model.k != dataset.k:
        raise ConfigurationError(
            f"checkpoint has {model.k} clusters but dataset has {dataset.k} classes"
        )
    in_dim = int(np.prod(dataset.item_shape))
    if model.in_dim != in_dim:
        raise ConfigurationError(
            f"checkpoint expects {model.in_dim}-dim inputs but dataset items have {in_dim}"
        )
    model.set_params(state["ema_shadow_arr"])
    if split.test_idx.size == 0:
        raise ConfigurationError("test split is empty; nothing to evaluate")
    cls_acc, clu_acc, perm = evaluate(
        model, dataset.features[split.test_idx], dataset.labels[split.test_idx]
    )
    print(f"test classification accuracy: {cls_acc:.4f}")
    print(f"test clustering accuracy:     {clu_acc:.4f}")
    print(f"best cluster->class permutation: {perm.tolist()}")
    if args.topk:
        temperature = state["config"]["logit_temperature"]
        curve = topk_permutation_accuracy(
            model,
            dataset.features[split.labeled_idx], dataset.labels[split.labeled_idx],
            dataset.features[split.test_idx], dataset.labels[split.test_idx],
            k=args.topk, temperature=temperature,
        )
        print("k,accuracy")
        for i, acc in enumerate(np.asarray(curve).tolist(), start=1):
            print(f"{i},{acc!r}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all, verify_hungarian

    results = run_all(seed=args.seed or 0)
    if args.corrupt:
        bad = verify_hungarian(n_matrices=50, seed=args.seed or 0, corrupt=True)
        status = "FAIL" if not bad.passed else "PASS"
        print(f"{bad.name} [corrupted]  {status}  {bad.detail}")
        # the hook proves the check can fire; a PASS here is the failure
        if bad.passed:
            return 1
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args) -> int:
    import time

    import numpy as np

    from .assignment import hungarian_solve
    from .network import Model

    rng = np.random.default_rng(args.seed or 0)
    print("assignment solver (ms per solve)")
    for n in (8, 16, 32, 64):
        reps = max(3, 256 // n)
        dense = rng.uniform(0.0, 1.0, size=(reps, n, n))
        base = rng.uniform(0.0, 1.0, size=(n, n))
        tied = base[rng.integers(0, max(1, n // 8), size=n)].copy()
        start = time.perf_counter()
        for i in range(reps):
            hungarian_solve(dense[i])
        dense_ms = (time.perf_counter() - start) / reps * 1e3
        start = time.perf_counter()
        for _ in range(reps):
            hungarian_solve(tied)
        tied_ms = (time.perf_counter() - start) / reps * 1e3
        print(f"  {n:>3}x{n:<3}  dense {dense_ms:8.2f}   tied rows {tied_ms:8.2f}")

    model = Model(64, (128, 128), 10, rng=rng)
    x = rng.normal(size=(448, 64))
    start = time.perf_counter()
    reps = 20
    for _ in range(reps):
        f, _ = model.forward(x)
        model.backward(d_cluster=f)
    per = (time.perf_counter() - start) / reps
    print(f"network fwd+bwd, batch 448, 64-128-128-10: {per * 1e3:.2f} ms "
          f"({448 / per:,.0f} rows/s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterssl",
        description="Alternating semi-supervised + balanced-clustering trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=0, metavar="N",
                        help="BLAS/OMP thread cap (0 = library default)")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the run seed")

    p = sub.add_parser("train", parents=[common], help="run the boosted trainer")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--dry-run", action="store_true",
                   help="validate config, print resolved values, touch nothing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--config", required=True, help="experiment JSON (dataset source)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--topk", type=int, default=0, metavar="K",
                   help="also print the top-K permutation accuracy curve")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", parents=[common], help="run built-in correctness checks")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: corrupt the solver output, expect a loud failure")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[common], help="micro-benchmarks")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import ConfigurationError, DivergenceError

    try:
        _apply_threads(args.threads)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
