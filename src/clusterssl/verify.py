"""Self-contained correctness checks runnable from the CLI.

Three independent oracles: exhaustive enumeration for the assignment
solver, sorted permutation costs for the k-best ranking, and central
finite differences for every gradient path through the network,
including the unit-norm head's Jacobian.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .assignment import brute_force_solve, hungarian_solve, murty_kbest
from .clustering import clustering_loss, one_hot, rotnet_pass
from .augment import AugmentSpec
from .fixmatch import labeled_loss_grads, SslHyper
from .network import Model


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _random_cost_matrix(rng: np.random.Generator, max_size: int) -> np.ndarray:
    c = int(rng.integers(1, max_size + 1))
    b = int(rng.integers(c, max_size + 1))
    style = rng.integers(0, 4)
    if style == 0:
        cm = rng.uniform(0.0, 10.0, size=(c, b))
    elif style == 1:
        cm = rng.integers(0, 5, size=(c, b)).astype(np.float64)
    elif style == 2:
        # duplicated rows force heavy ties, the regime batches live in
        base = rng.uniform(0.0, 4.0, size=(max(1, c // 2), b))
        cm = base[rng.integers(0, base.shape[0], size=c)].copy()
    else:
        cm = np.zeros((c, b))
    return cm


def verify_hungarian(
    n_matrices: int = 1000, max_size: int = 7, seed: int = 0, corrupt: bool = False
) -> CheckResult:
    """Solver total and map must match exhaustive enumeration on every instance.

    The map comparison holds the solver to its lexicographic tie rule, which
    the trainer's determinism rests on. ``corrupt`` is a self-test hook: it
    biases the reported total so the comparison must fail, proving the check
    can actually fire.
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for i in range(n_matrices):
        cm = _random_cost_matrix(rng, max_size)
        got = hungarian_solve(cm)
        want = brute_force_solve(cm)
        delta = abs(got.total_cost + (1e-3 if corrupt else 0.0) - want.total_cost)
        worst = max(worst, delta)
        if delta >= 1e-9 or got.cols != want.cols:
            return CheckResult(
                "hungarian-vs-brute-force", False,
                f"matrix {i} ({cm.shape[0]}x{cm.shape[1]}): |delta| = {delta:.3e}, "
                f"map {got.cols} vs brute force {want.cols}",
                time.perf_counter() - start,
            )
    return CheckResult(
        "hungarian-vs-brute-force", True,
        f"{n_matrices} matrices up to {max_size}x{max_size}, maps equal, max |delta| = {worst:.1e}",
        time.perf_counter() - start,
    )


def verify_murty(n_matrices: int = 200, size: int = 5, k: int = 10, seed: int = 0) -> CheckResult:
    """k-best costs must equal the k smallest enumerated permutation costs."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    rows = np.arange(size)
    for i in range(n_matrices):
        cm = rng.uniform(0.0, 10.0, size=(size, size))
        got = [sol.total_cost for sol in murty_kbest(cm, k)]
        all_costs = sorted(
            float(cm[rows, perm].sum()) for perm in itertools.permutations(range(size))
        )
        want = all_costs[:k]
        if len(got) != k or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
            return CheckResult(
                "k-best-ranking", False,
                f"matrix {i}: got {got[:3]}..., want {want[:3]}...",
                time.perf_counter() - start,
            )
    return CheckResult(
        "k-best-ranking", True,
        f"{n_matrices} matrices {size}x{size}, k={k} against all {len(all_costs)} permutations",
        time.perf_counter() - start,
    )


def _fd_max_rel_err(model: Model, loss_fn, h: float) -> float:
    _, grads = loss_fn(model)
    theta = model.get_params()
    worst = 0.0
    for j in range(theta.shape[0]):
        orig = theta[j]
        theta[j] = orig + h
        model.set_params(theta)
        lp, _ = loss_fn(model)
        theta[j] = orig - h
        model.set_params(theta)
        lm, _ = loss_fn(model)
        theta[j] = orig
        fd = (lp - lm) / (2.0 * h)
        err = abs(fd - grads[j]) / max(abs(fd), abs(grads[j]), 1e-8)
        worst = max(worst, err)
    model.set_params(theta)
    return worst


def verify_gradients(n_triples: int = 20, seed: int = 0, h: float = 1e-5) -> CheckResult:
    """Backprop vs central differences on random net/batch/loss triples.

    Losses cycle through the labeled cross-entropy, the squared-distance
    clustering objective, the rotation head, and a raw linear probe on
    the unit-norm output; all four exercise the normalization Jacobian
    or the rotation branch.
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    hyper = SslHyper()
    for i in range(n_triples):
        side = int(rng.integers(3, 6))
        in_dim = side * side
        hidden = tuple(int(rng.integers(6, 13)) for _ in range(int(rng.integers(1, 3))))
        k = int(rng.integers(3, 6))
        m = int(rng.integers(3, 7))
        model = Model(in_dim, hidden, k, rng=rng)
        kind = i % 4
        if kind == 0:
            x = rng.normal(size=(m, in_dim))
            y = rng.integers(0, k, size=m)

            def loss_fn(mod, x=x, y=y):
                return labeled_loss_grads(
                    mod, x, y,
                    AugmentSpec(kind="weak", data_shape=(in_dim,), flip_prob=0.0,
                                max_translate_frac=0.0, noise_sigma=0.0),
                    hyper, rng=np.random.default_rng(0),
                )
        elif kind == 1:
            x = rng.normal(size=(m, in_dim))
            t = one_hot(rng.integers(0, k, size=m), k)
            spec = AugmentSpec(kind="cluster", data_shape=(in_dim,), jitter_strength=0.0,
                               flip_prob=0.0, max_translate_frac=0.0)

            def loss_fn(mod, x=x, t=t, spec=spec):
                return clustering_loss(mod, x, t, spec, r=1, rng=np.random.default_rng(0))
        elif kind == 2:
            imgs = rng.normal(size=(m, side, side))

            def loss_fn(mod, imgs=imgs):
                return rotnet_pass(mod, imgs)
        else:
            x = rng.normal(size=(m, in_dim))
            w = rng.normal(size=(m, k))

            def loss_fn(mod, x=x, w=w):
                f, _ = mod.forward(x)
                grads = mod.backward(d_cluster=w)
                return float((f * w).sum()), grads
        err = _fd_max_rel_err(model, loss_fn, h)
        worst = max(worst, err)
        if err >= 1e-4:
            return CheckResult(
                "gradient-finite-difference", False,
                f"triple {i} (loss kind {kind}): max rel err = {err:.3e}",
                time.perf_counter() - start,
            )
    return CheckResult(
        "gradient-finite-difference", True,
        f"{n_triples} net/batch/loss triples, max rel err = {worst:.1e}",
        time.perf_counter() - start,
    )


def run_all(seed: int = 0, echo=print) -> list[CheckResult]:
    results = [
        verify_hungarian(seed=seed),
        verify_murty(seed=seed),
        verify_gradients(seed=seed),
    ]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        echo(f"{r.name:<{width}}  {status}  {r.detail} ({r.elapsed:.1f} s)")
    return results
