"""Acceptance suite: ten behavior gates for the shipped package.

Each test prints exactly one pass/fail line so the gate status is
readable straight from the pytest output. Heavy training runs are
shared through session fixtures; every run performed here registers
its test-set prediction histogram so the anti-collapse gate can sweep
all of them.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from clusterssl.clustering import UNASSIGNED, flatten, rotation_accuracy
from clusterssl.data import make_gaussian_mixture, make_shape_images, partition
from clusterssl.network import Model
from clusterssl.trainer import TrainConfig, evaluate, train
from clusterssl.verify import verify_gradients, verify_hungarian, verify_murty


REGISTRY = []  # (run name, per-cluster counts of test-set predictions)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _ema_model(rec):
    return Model.from_arch(rec.model.arch(), rec.ema.shadow)


def _predictions(rec, ds, split):
    f = _ema_model(rec).forward(flatten(ds.features[split.test_idx]))
    return f.argmax(axis=1)


def _register(name, rec, ds, split):
    pred = _predictions(rec, ds, split)
    REGISTRY.append((name, np.bincount(pred, minlength=ds.k)))
    return pred


# -- shared datasets and runs ------------------------------------------------


@pytest.fixture(scope="session")
def gmm2000():
    return make_gaussian_mixture(4, 2000, 16, 6.0, seed=7)


@pytest.fixture(scope="session")
def gmm_split(gmm2000):
    return partition(gmm2000, 4, 0.2, seed=1)


@pytest.fixture(scope="session")
def efficacy_run(gmm2000, gmm_split):
    cfg = TrainConfig(iters=40, seed=3)
    start = time.perf_counter()
    rec = train(cfg, gmm2000, gmm_split)
    elapsed = time.perf_counter() - start
    _register("efficacy", rec, gmm2000, gmm_split)
    return rec, elapsed


@pytest.fixture(scope="session")
def efficacy_ablation(gmm2000, efficacy_run):
    boosted, ssl_only = [], []
    for pseed in range(5):
        split = partition(gmm2000, 4, 0.2, seed=pseed)
        # split seed 1 is gmm_split, so that boosted run is efficacy_run's
        rec = efficacy_run[0] if pseed == 1 else train(TrainConfig(iters=40, seed=3), gmm2000, split)
        _register(f"boosted-p{pseed}", rec, gmm2000, split)
        boosted.append(rec.summary["test_cls_acc"])
        rec = train(TrainConfig(iters=40, seed=3, e2=0), gmm2000, split)
        _register(f"ssl-only-p{pseed}", rec, gmm2000, split)
        ssl_only.append(rec.summary["test_cls_acc"])
    return np.array(boosted), np.array(ssl_only)


@pytest.fixture(scope="session")
def naming_gap_runs(gmm2000):
    split = partition(gmm2000, 1, 0.2, seed=1)
    out = []
    for tseed in range(100, 105):
        rec = train(TrainConfig(iters=20, e1=0, seed=tseed), gmm2000, split)
        pred = _register(f"naming-s{tseed}", rec, gmm2000, split)
        labels = gmm2000.labels[split.test_idx]
        cls = rec.summary["test_cls_acc"]
        clu = rec.summary["test_clu_acc"]
        perm = np.array(rec.summary["best_perm"])
        recovered = float((perm[pred] == labels).mean())
        out.append((cls, clu, perm, recovered))
    return out


@pytest.fixture(scope="session")
def collapse_run(gmm2000, gmm_split):
    rec = train(TrainConfig(iters=40, e1=0, seed=3), gmm2000, gmm_split)
    pred = _register("pure-clustering", rec, gmm2000, gmm_split)
    return rec, pred


@pytest.fixture(scope="session")
def determinism_runs(tmp_path_factory, watch_clustering_epochs):
    ds = make_gaussian_mixture(4, 640, 16, 6.0, seed=7)
    split = partition(ds, 4, 0.2, seed=1)
    cfg = TrainConfig(iters=6, seed=3)
    base = tmp_path_factory.mktemp("determinism")

    csvs = []
    for name in ("a", "b"):
        rec = train(cfg, ds, split, out_dir=str(base / name))
        _register(f"repeat-{name}", rec, ds, split)
        csvs.append((base / name / "metrics.csv").read_text())

    class Stop(Exception):
        pass

    def bail(pool, n):
        if n == 3:  # e2 = 1, so this is iteration 3's clustering epoch
            raise Stop

    part = base / "part"
    with watch_clustering_epochs(bail), pytest.raises(Stop):
        train(cfg, ds, split, out_dir=str(part))
    rec = train(cfg, ds, split, out_dir=str(part),
                resume_from=str(part / "checkpoint.json"))
    _register("resumed", rec, ds, split)
    resumed_csv = (part / "metrics.csv").read_text()
    return csvs[0], csvs[1], resumed_csv


@pytest.fixture(scope="session")
def shapes800():
    return make_shape_images(4, 800, 8, seed=5)


@pytest.fixture(scope="session")
def shapes_split(shapes800):
    return partition(shapes800, 4, 0.25, seed=1)


@pytest.fixture(scope="session")
def rotnet_runs(shapes800, shapes_split):
    with_rot, without_rot = [], []
    for seed in range(5):
        rec = train(TrainConfig(iters=40, warmup_rot_epochs=10, seed=seed),
                    shapes800, shapes_split)
        _register(f"rotnet-on-s{seed}", rec, shapes800, shapes_split)
        with_rot.append(rec)
        rec = train(TrainConfig(iters=40, warmup_rot_epochs=10, seed=seed, rotnet=False),
                    shapes800, shapes_split)
        _register(f"rotnet-off-s{seed}", rec, shapes800, shapes_split)
        without_rot.append(rec)
    return with_rot, without_rot


# -- the ten gates -----------------------------------------------------------


def test_criterion_01_assignment_solver_exactness():
    res = verify_hungarian(n_matrices=1000, max_size=7, seed=0)
    ok = res.passed and res.elapsed < 10.0
    _report(1, ok, f"{res.detail} in {res.elapsed:.1f}s (budget 10s)")
    assert ok, res.detail


def test_criterion_02_kbest_ranking():
    res = verify_murty(n_matrices=200, size=5, k=10, seed=0)
    _report(2, res.passed, f"{res.detail} in {res.elapsed:.1f}s")
    assert res.passed, res.detail


def test_criterion_03_gradient_fidelity():
    res = verify_gradients(n_triples=20, seed=0, h=1e-5)
    _report(3, res.passed, f"{res.detail} (threshold 1e-4)")
    assert res.passed, res.detail


def test_criterion_04_balanced_pool_invariants(watch_clustering_epochs):
    ds = make_gaussian_mixture(4, 640, 16, 6.0, seed=7)
    split = partition(ds, 4, 0.2, seed=1)
    per_cluster = split.unlabeled_idx.shape[0] // ds.k
    checks = 0
    violations = []

    def watch(pool, n):
        nonlocal checks
        checks += 1
        pool.check_invariants()
        # each image holds at most one class, so no two images can share a
        # target; what can break is the count of live bindings per class
        counts = np.bincount(pool.img_class[pool.img_class != UNASSIGNED], minlength=ds.k)
        if not np.all(counts == per_cluster):
            violations.append(f"clustering epoch {n}: bindings per class {counts.tolist()}")

    with watch_clustering_epochs(watch):
        rec = train(TrainConfig(iters=50, e1=1, e2=1, seed=3), ds, split)
    _register("invariant-watch", rec, ds, split)
    ok = checks == 50 and not violations
    _report(4, ok, f"{checks} clustering epochs checked, {len(violations)} violations, "
                   f"{per_cluster} targets per cluster throughout")
    assert ok, violations[:3]


def test_criterion_05_desk_scale_efficacy(efficacy_run, efficacy_ablation):
    rec, elapsed = efficacy_run
    cls = rec.summary["test_cls_acc"]
    clu = rec.summary["test_clu_acc"]
    boosted, ssl_only = efficacy_ablation
    gap_points = (boosted.mean() - ssl_only.mean()) * 100.0
    std_ratio = ssl_only.std() / max(boosted.std(), 1e-12)
    main_ok = clu >= 0.95 and cls >= 0.90 and elapsed < 180.0
    ablation_ok = gap_points >= 3.0 or std_ratio >= 2.0
    ok = main_ok and ablation_ok
    _report(5, ok, f"clu {clu:.3f} (>=0.95), cls {cls:.3f} (>=0.90), {elapsed:.0f}s "
                   f"(<180s); ablation mean gap {gap_points:.1f} pts, "
                   f"std ratio {std_ratio:.1f}x")
    assert ok


def test_criterion_06_naming_gap(naming_gap_runs):
    gaps = [clu - cls for cls, clu, _, _ in naming_gap_runs]
    mean_gap = float(np.mean(gaps))
    big_flip = [
        (clu - cls, perm, recovered == clu)
        for cls, clu, perm, recovered in naming_gap_runs
        if clu - cls > 0.10
    ]
    mechanism_ok = bool(big_flip) and all(exact for _, _, exact in big_flip)
    ok = mean_gap >= 0.0 and mechanism_ok
    _report(6, ok, f"mean gap {mean_gap:.3f} (>=0), {len(big_flip)}/5 seeds flipped "
                   f"by >10 pts, permutation recovers clustering accuracy exactly: "
                   f"{mechanism_ok}")
    assert ok, naming_gap_runs


def test_criterion_07_topk_curve(rotnet_runs):
    with_rot, _ = rotnet_runs
    checked = 0
    for rec in with_rot:
        curve = np.array(rec.summary["topk_curve"])
        full = math.factorial(rec.model.k)
        assert curve.shape == (full,)
        assert np.all(np.diff(curve) >= 0.0)
        assert curve[-1] == rec.summary["test_clu_acc"]
        checked += 1
    _report(7, True, f"{checked} final checkpoints: curve nondecreasing over all "
                     f"{full} permutations, endpoint equals clustering accuracy")


def test_criterion_08_anti_collapse(collapse_run, efficacy_run, efficacy_ablation,
                                    naming_gap_runs, determinism_runs, rotnet_runs):
    rec, pred = collapse_run
    frac = np.bincount(pred, minlength=4) / pred.shape[0]
    floor_frac = rec.summary["config"]["alpha"] / (2 * 4)
    own_ok = bool(np.all(frac >= floor_frac))
    single = [name for name, counts in REGISTRY if (counts > 0).sum() < 2]
    ok = own_ok and not single
    _report(8, ok, f"pure-clustering histogram {np.round(frac, 3).tolist()} all >= "
                   f"{floor_frac}; {len(REGISTRY)} runs swept, "
                   f"{len(single)} single-cluster collapses")
    assert ok, single


def test_criterion_09_determinism_and_resume(determinism_runs):
    csv_a, csv_b, resumed_csv = determinism_runs
    ok = csv_a == csv_b == resumed_csv
    _report(9, ok, f"repeat run byte-identical: {csv_a == csv_b}; interrupted+resumed "
                   f"byte-identical: {resumed_csv == csv_a} "
                   f"({len(csv_a.splitlines()) - 1} rows)")
    assert ok


def test_criterion_10_rotation_pathway(shapes800, shapes_split, rotnet_runs,
                                       tmp_path_factory):
    # iters=0 stops the run right after warmup; its model is the warmed-up network
    warmed = [train(TrainConfig(iters=0, warmup_rot_epochs=10, seed=seed), shapes800, shapes_split)
              for seed in range(5)]
    rot_accs = [rotation_accuracy(rec.model, shapes800.features[shapes_split.test_idx])
                for rec in warmed]
    rot_ok = min(rot_accs) > 0.90

    with_rot, without_rot = rotnet_runs
    acc_on = np.array([r.summary["test_clu_acc"] for r in with_rot])
    acc_off = np.array([r.summary["test_clu_acc"] for r in without_rot])
    ordering = acc_off.std() > acc_on.std()
    detail = (f"min rotation acc {min(rot_accs):.3f} (>0.90); clustering acc std "
              f"with rotations {acc_on.std():.4f} vs without {acc_off.std():.4f}")
    if not ordering:
        out = tmp_path_factory.mktemp("rotnet") / "rotnet_stability_comparison.json"
        out.write_text(json.dumps({
            "rotation_acc_after_warmup": rot_accs,
            "clustering_acc_with_rotations": acc_on.tolist(),
            "clustering_acc_without_rotations": acc_off.tolist(),
            "std_with": acc_on.std(),
            "std_without": acc_off.std(),
        }, indent=2))
        detail += f"; variance ordering not met, comparison written to {out}"
    ok = rot_ok
    _report(10, ok, detail)
    assert ok, detail


# -- the committed reference runs ----------------------------------------------


def test_reference_runs_write_the_committed_bytes(efficacy_run, rotnet_runs, openblas):
    # gate 5's run is configs/toy_gmm.json and gate 7's seed-0 run is
    # configs/shapes8.json, so tier-1 holds both to the bytes under runs/
    for name, rec in (("toy_gmm", efficacy_run[0]), ("shapes8", rotnet_runs[0][0])):
        with open(os.path.join(ROOT, "runs", name, "metrics.csv"), encoding="utf-8") as fh:
            want = fh.read()
        with open(os.path.join(ROOT, "runs", name, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        got = rec.csv_text()
        if got != want:
            got_lines, want_lines = got.splitlines(), want.splitlines()
            line = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                        min(len(got_lines), len(want_lines)))
            pytest.fail(f"runs/{name}/metrics.csv line {line + 1} reads {want_lines[line:line + 1]}, "
                        f"this run wrote {got_lines[line:line + 1]}; runs/ was written under the "
                        f"OpenBLAS core SkylakeX, this run's is {openblas['corename']}")
        for key in ("test_cls_acc", "test_clu_acc", "best_perm", "topk_curve"):
            assert rec.summary.get(key) == summary.get(key), (name, key)
