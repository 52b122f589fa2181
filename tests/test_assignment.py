import itertools

import numpy as np
import pytest

from clusterssl.assignment import (
    Assignment,
    brute_force_solve,
    clustering_accuracy,
    count_injections,
    hungarian_solve,
    murty_kbest,
)


def total_for(cm, cols):
    return float(cm[np.arange(len(cols)), list(cols)].sum())


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        hungarian_solve(np.zeros((3, 2)))  # more rows than columns
    with pytest.raises(ValueError):
        hungarian_solve(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        hungarian_solve(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        hungarian_solve(np.array([[1.0, -0.1]]))
    with pytest.raises(ValueError):
        hungarian_solve(np.zeros(4))


def test_known_square_instance():
    cm = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    sol = hungarian_solve(cm)
    assert sol.total_cost == pytest.approx(5.0)
    assert sol.cols == (1, 0, 2)


def test_rectangular_leaves_columns_unused():
    cm = np.array([[5.0, 1.0, 9.0, 2.0], [4.0, 8.0, 0.5, 3.0]])
    sol = hungarian_solve(cm)
    assert sorted(sol.cols) == sorted(set(sol.cols))
    assert sol.total_cost == pytest.approx(1.5)
    assert sol.cols == (1, 2)


def test_identity_on_all_zero_matrix():
    sol = hungarian_solve(np.zeros((5, 5)))
    assert sol.cols == (0, 1, 2, 3, 4)
    assert sol.total_cost == 0.0


def test_lexicographic_tie_break_duplicate_rows():
    # both rows identical: row 0 must take the cheaper-indexed column
    cm = np.array([[1.0, 1.0, 7.0], [1.0, 1.0, 7.0]])
    assert hungarian_solve(cm).cols == (0, 1)


def test_brute_force_equivalence_sweep(rng):
    for trial in range(300):
        c = int(rng.integers(1, 7))
        b = int(rng.integers(c, 7))
        style = trial % 3
        if style == 0:
            cm = rng.uniform(0, 10, size=(c, b))
        elif style == 1:
            cm = rng.integers(0, 4, size=(c, b)).astype(float)
        else:
            base = rng.uniform(0, 3, size=(max(1, c // 2), b))
            cm = base[rng.integers(0, base.shape[0], size=c)].copy()
        fast = hungarian_solve(cm)
        slow = brute_force_solve(cm)
        assert abs(fast.total_cost - slow.total_cost) < 1e-9, (trial, cm)


def test_verify_hungarian_compares_the_map(monkeypatch):
    import clusterssl.verify as verify

    def shifted(cm):
        # same reported total, different injective map whenever b > 1
        sol = hungarian_solve(cm)
        b = np.asarray(cm).shape[1]
        return Assignment(tuple((j + 1) % b for j in sol.cols), sol.total_cost)

    assert verify.verify_hungarian(n_matrices=200, seed=0).passed
    monkeypatch.setattr(verify, "hungarian_solve", shifted)
    res = verify.verify_hungarian(n_matrices=200, seed=0)
    assert not res.passed
    assert "|delta| = 0.000e+00" in res.detail and "map" in res.detail


def test_solution_is_valid_injection(rng):
    cm = rng.uniform(0, 5, size=(6, 9))
    sol = hungarian_solve(cm)
    assert len(set(sol.cols)) == 6
    assert all(0 <= j < 9 for j in sol.cols)
    assert sol.total_cost == pytest.approx(total_for(cm, sol.cols))


def test_murty_matches_enumeration(rng):
    rows = np.arange(4)
    for _ in range(40):
        cm = rng.uniform(0, 10, size=(4, 4))
        got = [s.total_cost for s in murty_kbest(cm, 6)]
        want = sorted(
            total_for(cm, perm) for perm in itertools.permutations(range(4))
        )[:6]
        assert np.allclose(got, want, atol=1e-9)
        assert got == sorted(got)


def test_murty_first_item_is_optimal(rng):
    cm = rng.uniform(0, 10, size=(5, 5))
    ranked = murty_kbest(cm, 3)
    assert ranked[0].cols == hungarian_solve(cm).cols


def test_murty_exhausts_solution_space(rng):
    cm = rng.uniform(0, 10, size=(3, 3))
    ranked = murty_kbest(cm, 50)
    assert len(ranked) == 6  # 3! total injections
    assert len({s.cols for s in ranked}) == 6


def test_murty_rejects_bad_k(rng):
    with pytest.raises(ValueError):
        murty_kbest(np.zeros((2, 2)), 0)


def test_count_injections():
    assert count_injections(3, 3) == 6
    assert count_injections(2, 4) == 12
    assert count_injections(1, 1) == 1


def test_clustering_accuracy_perfect():
    pred = np.array([0, 1, 2, 0, 1, 2])
    acc, perm = clustering_accuracy(pred, pred, 3)
    assert acc == 1.0
    assert perm.tolist() == [0, 1, 2]


def test_clustering_accuracy_under_bijection():
    truth = np.array([0, 0, 1, 1, 2, 2])
    mapping = np.array([2, 0, 1])  # cluster id -> class id
    pred = np.array([1, 1, 2, 2, 0, 0])  # predicts argwhere(mapping == truth)
    acc, perm = clustering_accuracy(pred, truth, 3)
    assert acc == 1.0
    assert perm.tolist() == mapping.tolist()


def test_clustering_accuracy_partial(rng):
    truth = np.array([0] * 5 + [1] * 5)
    pred = np.array([0] * 4 + [1] + [1] * 4 + [0])
    acc, _ = clustering_accuracy(pred, truth, 2)
    assert acc == pytest.approx(0.8)


def test_clustering_accuracy_beats_identity_when_permuted(rng):
    truth = rng.integers(0, 4, size=200)
    shuffle = np.array([3, 2, 0, 1])
    pred = shuffle[truth]
    acc, perm = clustering_accuracy(pred, truth, 4)
    assert acc == 1.0
    # perm maps cluster id back to the class it stands for
    assert np.array_equal(np.array(perm)[shuffle], np.arange(4))
