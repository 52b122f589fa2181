import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterssl.assignment as assignment
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
        assert fast.cols == slow.cols, (trial, cm)


def class_batch_cost(rng, k, b, c, duplicates=False, decimals=None):
    """A clustering batch's solver input: the cost rows of the classes among c
    bound targets of k classes against b unit outputs, and each target's row."""
    outputs = rng.normal(size=(b, k)) * rng.uniform(0.3, 5.0)
    if duplicates:
        outputs[rng.integers(0, b, size=b // 4)] = outputs[rng.integers(0, b, size=b // 4)]
    outputs /= np.linalg.norm(outputs, axis=1, keepdims=True)
    if decimals is not None:
        outputs = np.round(outputs, decimals)
    present, groups = np.unique(rng.integers(0, k, size=c), return_inverse=True)
    return ((np.eye(k)[present][:, None, :] - outputs[None, :, :]) ** 2).sum(axis=2), groups


def test_grouped_solve_matches_the_general_solver(rng):
    grouped = 0
    for trial in range(300):
        k = int(rng.integers(2, 11))
        b = int(rng.integers(k, 65))
        c = int(rng.integers(max(1, b // 3), b + 1))
        style = trial % 3
        rows, groups = class_batch_cost(rng, k, b, c, duplicates=style == 1,
                                        decimals=2 if style == 2 else None)
        want = assignment._solve_rect(rows[groups])
        got = assignment._solve_grouped(rows, groups)
        if got is not None:
            grouped += 1
            assert np.array_equal(got, want), (trial, k, b, c)
        assert hungarian_solve(rows, groups).cols == tuple(want.tolist()), (trial, k, b, c)
    # the tie-free third of the batches alone should give 100 grouped solves
    assert grouped >= 100


def test_tie_free_grouped_matrix_skips_the_general_solver(rng, monkeypatch):
    batches = [class_batch_cost(rng, k, 64, c) for k, c in ((4, 64), (4, 60), (10, 34))]
    want = [tuple(assignment._solve_rect(rows[groups]).tolist()) for rows, groups in batches]

    def banned(cm):
        raise AssertionError("general solver reached")

    monkeypatch.setattr(assignment, "_solve_rect", banned)
    assert [hungarian_solve(rows, groups).cols for rows, groups in batches] == want


def test_partition_tie_falls_back_to_the_general_solver(monkeypatch):
    # columns 0 and 1 are the same image: either may join class 1, so the
    # optimal partition is not unique and the lexicographic rule decides
    rows = np.array([[0.8, 0.8, 0.0], [0.4, 0.4, 2.0]])
    groups = np.array([0, 0, 1])
    assert assignment._solve_grouped(rows, groups) is None
    calls = []
    general = assignment._solve_rect

    def spy(m):
        calls.append(m)
        return general(m)

    monkeypatch.setattr(assignment, "_solve_rect", spy)
    sol = hungarian_solve(rows, groups)
    assert len(calls) == 1
    assert np.array_equal(calls[0], rows[groups])
    assert sol.cols == (0, 2, 1) == brute_force_solve(rows[groups]).cols
    assert sol.total_cost == pytest.approx(1.2)


@pytest.mark.parametrize("groups, message", [
    ([0, 2, 1], "index the 2 cost rows"),
    ([-1, 0, 1], "index the 2 cost rows"),
    ([0, 0, 0], "every cost row"),
    ([[0, 1, 0]], "1-D integer"),
    ([0.0, 1.0], "1-D integer"),
    ([0, 1, 0, 1], "1 to 3 solver rows"),
    ([], "1-D integer"),
    (np.empty(0, dtype=np.int64), "1 to 3 solver rows"),
])
def test_rejects_bad_groups(groups, message):
    rows = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match=message):
        hungarian_solve(rows, np.asarray(groups))


@st.composite
def grouped_rows(draw):
    """(rows, groups): n integer-cost rows, c >= n solver rows using each, b <= 8 columns."""
    b = draw(st.integers(1, 8))
    c = draw(st.integers(1, b))
    n = draw(st.integers(1, c))
    extra = draw(st.lists(st.integers(0, n - 1), min_size=c - n, max_size=c - n))
    groups = np.array(draw(st.permutations(list(range(n)) + extra)), dtype=np.int64)
    rows = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=b, max_size=b),
                                  min_size=n, max_size=n)), dtype=np.float64)
    return rows, groups


@settings(max_examples=300)
@given(grouped_rows(), st.data())
def test_grouped_solve_matches_brute_force(batch, data):
    rows, groups = batch
    # repeated columns are images the solver cannot tell apart
    b = rows.shape[1]
    rows = rows[:, data.draw(st.lists(st.integers(0, b - 1), min_size=b, max_size=b))]
    got = hungarian_solve(rows, groups)
    want = brute_force_solve(rows[groups])
    assert got.cols == want.cols
    assert abs(got.total_cost - want.total_cost) < 1e-9


@st.composite
def class_batches(draw):
    """A batch's class rows and groups: K <= 10 classes, b <= 64 images."""
    k = draw(st.integers(2, 10))
    b = draw(st.integers(1, 64))
    c = draw(st.integers(1, b))
    classes = np.array(draw(st.lists(st.integers(0, k - 1), min_size=c, max_size=c)))
    # a small grid of output values makes exact ties between images common
    level = st.integers(0, 3) if draw(st.booleans()) else st.floats(0.0, 1.0)
    outputs = np.array(draw(st.lists(st.lists(level, min_size=k, max_size=k),
                                     min_size=b, max_size=b)), dtype=np.float64)
    outputs[outputs.max(axis=1) < 1e-3, 0] = 1.0  # a norm that can underflow
    outputs /= np.linalg.norm(outputs, axis=1, keepdims=True)
    present, groups = np.unique(classes, return_inverse=True)
    return ((np.eye(k)[present][:, None, :] - outputs[None]) ** 2).sum(axis=2), groups


@settings(max_examples=150)
@given(class_batches())
def test_grouped_batch_matches_the_expanded_matrix(batch):
    rows, groups = batch
    got = hungarian_solve(rows, groups)
    want = hungarian_solve(rows[groups])
    assert got.cols == want.cols
    assert got.total_cost == want.total_cost


# The general solve as it was before it learned to skip padding: the c x b
# matrix is padded square with b - c zero rows and solved there. It is the
# reference the rectangular solve must reproduce map for map.
def _ref_lap_square(cost):
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.full(n + 1, -1, dtype=np.int64)
    for i in range(n):
        p[n] = i
        j0 = n
        minv = np.full(n, np.inf)
        way = np.full(n, n, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0, :] - u[i0] - v[:n]
            free = ~used[:n]
            improve = free & (cur < minv)
            minv[improve] = cur[improve]
            way[improve] = j0
            cand = np.where(free, minv, np.inf)
            j1 = int(np.argmin(cand))
            delta = cand[j1]
            if not np.isfinite(delta):
                return None
            settled = used[:n]
            u[p[:n][settled]] += delta
            v[:n][settled] -= delta
            u[p[n]] += delta
            minv[free] -= delta
            minv[j1] = 0.0
            j0 = j1
            if p[j0] == -1:
                break
        while j0 != n:
            j_prev = way[j0]
            p[j0] = p[j_prev]
            j0 = j_prev
    col_for_row = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        col_for_row[p[j]] = j
    return col_for_row, u[:n], v[:n]


def _ref_pad_square(cm):
    c, b = cm.shape
    if c == b:
        return cm
    return np.vstack([cm, np.zeros((b - c, b))])


def _ref_solve_rect(cm):
    c, b = cm.shape
    sq = _ref_pad_square(cm)
    res = _ref_lap_square(sq)
    if res is None:
        return None
    col_for_row, u, v = res
    tol_edge = 1e-9 * assignment._cost_scale(cm)
    reduced = sq[:c, :] - u[:c, None] - v[None, :]
    if np.any((reduced <= tol_edge).sum(axis=1) > 1):
        return _ref_lex_refine(sq, c, col_for_row, u, v, tol_edge)
    return col_for_row[:c].copy()


def _ref_lex_refine(sq, c, col_for_row, u, v, tol_edge):
    n = sq.shape[0]
    reduced = sq - u[:, None] - v[None, :]
    adj = [np.flatnonzero(reduced[i] <= tol_edge) for i in range(n)]
    row_to_col = col_for_row.copy()
    col_to_row = np.empty(n, dtype=np.int64)
    col_to_row[row_to_col] = np.arange(n)
    pinned = np.zeros(n, dtype=bool)

    def augment(r, free_col, visited):
        for j2 in adj[r]:
            j2 = int(j2)
            if visited[j2] or pinned[j2]:
                continue
            visited[j2] = True
            if j2 == free_col or augment(int(col_to_row[j2]), free_col, visited):
                row_to_col[r] = j2
                col_to_row[j2] = r
                return True
        return False

    for i in range(c):
        ji = int(row_to_col[i])
        for j in adj[i]:
            j = int(j)
            if j >= ji:
                break
            if pinned[j]:
                continue
            visited = np.zeros(n, dtype=bool)
            visited[j] = True
            if augment(int(col_to_row[j]), ji, visited):
                row_to_col[i] = j
                col_to_row[j] = i
                break
        pinned[row_to_col[i]] = True
    return row_to_col[:c]


@st.composite
def wide_costs(draw):
    """A c x b matrix, c <= b <= 64, in a style where optimal maps tie often,
    with or without the +inf bans that Murty children put on cells."""
    b = draw(st.integers(1, 64))
    c = draw(st.integers(1, b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["uniform", "rounded", "integers", "duplicated", "zero"]))
    if style == "uniform":
        cm = rng.uniform(0.0, 10.0, size=(c, b))
    elif style == "rounded":
        cm = np.round(rng.uniform(0.0, 10.0, size=(c, b)), draw(st.integers(0, 2)))
    elif style == "integers":
        cm = rng.integers(0, 3, size=(c, b)).astype(np.float64)
    elif style == "duplicated":
        base = rng.uniform(0.0, 3.0, size=(draw(st.integers(1, c)), b))
        cm = base[rng.integers(0, base.shape[0], size=c)]
    else:
        cm = np.zeros((c, b))
    if draw(st.booleans()):
        cm = np.where(rng.random((c, b)) < draw(st.sampled_from([0.05, 0.3, 0.7])), np.inf, cm)
    return cm


@settings(max_examples=400)
@given(wide_costs())
def test_rectangular_solve_matches_the_padded_one(cm):
    want = _ref_solve_rect(cm)
    got = assignment._solve_rect(cm)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tolist() == want.tolist()


def test_verify_hungarian_compares_the_map(monkeypatch):
    import clusterssl.verify as verify

    def shifted(cm, groups=None):
        # same reported total, different injective map whenever b > 1
        sol = hungarian_solve(cm, groups)
        b = np.asarray(cm).shape[1]
        return Assignment(tuple((j + 1) % b for j in sol.cols), sol.total_cost)

    assert verify.verify_hungarian(n_matrices=200, seed=0).passed
    monkeypatch.setattr(verify, "hungarian_solve", shifted)
    res = verify.verify_hungarian(n_matrices=200, seed=0)
    assert not res.passed
    assert "|delta| = 0.000e+00" in res.detail and "map" in res.detail


def test_verify_murty_checks_the_partitioning_path(monkeypatch):
    import clusterssl.verify as verify

    def skips_the_best(cm, k):
        return assignment._kbest_partitioned(cm, k + 1)[1:]

    assert verify.verify_murty(n_matrices=5, seed=0).passed
    monkeypatch.setattr(verify, "_kbest_partitioned", skips_the_best)
    res = verify.verify_murty(n_matrices=5, seed=0)
    assert not res.passed
    assert "matrix 0, partitioning" in res.detail


def test_partitioning_stops_at_the_kth_solution(rng, monkeypatch):
    cm = rng.uniform(0, 10, size=(6, 6))
    want = assignment._kbest_enumerated(cm, 1)
    calls = []
    general = assignment._solve_rect

    def spy(m):
        calls.append(m)
        return general(m)

    monkeypatch.setattr(assignment, "_solve_rect", spy)
    assert assignment._kbest_partitioned(cm, 1) == want
    assert len(calls) == 1  # the root; none of its children


def test_solution_is_valid_injection(rng):
    cm = rng.uniform(0, 5, size=(6, 9))
    sol = hungarian_solve(cm)
    assert len(set(sol.cols)) == 6
    assert all(0 <= j < 9 for j in sol.cols)
    assert sol.total_cost == pytest.approx(total_for(cm, sol.cols))


# murty_kbest dispatches on the size of the space; the partitioning path is
# also held to every ranking test directly
RANKERS = (murty_kbest, assignment._kbest_partitioned)


def test_murty_matches_enumeration(rng):
    rows = np.arange(4)
    for _ in range(40):
        cm = rng.uniform(0, 10, size=(4, 4))
        want = sorted(
            total_for(cm, perm) for perm in itertools.permutations(range(4))
        )[:6]
        for rank in RANKERS:
            got = [s.total_cost for s in rank(cm, 6)]
            assert np.allclose(got, want, atol=1e-9), rank
            assert got == sorted(got)


def test_murty_first_item_is_optimal(rng):
    cm = rng.uniform(0, 10, size=(5, 5))
    for rank in RANKERS:
        assert rank(cm, 3)[0].cols == hungarian_solve(cm).cols, rank


def test_murty_exhausts_solution_space(rng):
    cm = rng.uniform(0, 10, size=(3, 3))
    for rank in RANKERS:
        ranked = rank(cm, 50)
        assert len(ranked) == 6  # 3! total injections
        assert len({s.cols for s in ranked}) == 6


def test_murty_rejects_bad_k(rng):
    with pytest.raises(ValueError):
        murty_kbest(np.zeros((2, 2)), 0)


def enumerated_totals(cm):
    c, b = cm.shape
    maps = np.array(list(itertools.permutations(range(b), c)))
    return sorted(cm[np.arange(c), maps].sum(axis=1).tolist())


@st.composite
def small_spaces(draw):
    """(c, b): c <= b <= 201 with at most ENUMERATE_MAX_INJECTIONS injections.

    A third of the draws are at most 12 wide, a third lie between 12 and
    the widest space within the bound for their c, and a third are that
    widest space, such as 2 x 201 or 3 x 34. One-row spaces wider than 201,
    up to 1 x 40320, are left to test_murty_enumerates_spaces_within_the_bound.
    """
    c = draw(st.integers(1, 8))
    widest = max(b for b in range(c, 202)
                 if count_injections(c, b) <= assignment.ENUMERATE_MAX_INJECTIONS)
    narrow = min(widest, 12)
    return c, draw(st.integers(c, narrow) | st.integers(narrow, widest) | st.just(widest))


@settings(max_examples=150)
@given(small_spaces(), st.data())
def test_enumeration_and_partitioning_rank_tie_heavy_costs_alike(shape, data):
    c, b = shape
    cm = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=b, max_size=b),
                                     min_size=c, max_size=c)), dtype=np.float64)
    k = data.draw(st.integers(1, min(24, count_injections(c, b))))
    want = enumerated_totals(cm)[:k]
    for ranked in (assignment._kbest_enumerated(cm, k), assignment._kbest_partitioned(cm, k)):
        # exact ties may come in either order, but integer totals are exact
        assert [s.total_cost for s in ranked] == want
        assert len({s.cols for s in ranked}) == k
        assert all(s.total_cost == total_for(cm, s.cols) for s in ranked)


@settings(max_examples=150)
@given(small_spaces(), st.integers(0, 2**32 - 1), st.data())
def test_enumeration_and_partitioning_rank_continuous_costs_alike(shape, seed, data):
    # uniform draws are tie-free, so both paths must give the same maps in
    # the same order, with totals equal bit for bit
    c, b = shape
    cm = np.random.default_rng(seed).uniform(0.0, 10.0, size=(c, b))
    k = data.draw(st.integers(1, min(24, count_injections(c, b))))
    ranked = assignment._kbest_enumerated(cm, k)
    assert ranked == assignment._kbest_partitioned(cm, k)
    assert ranked[0].cols == hungarian_solve(cm).cols
    assert murty_kbest(cm, k) == ranked


@pytest.mark.parametrize("c, b, k", [(9, 9, 30), (4, 16, 30), (2, 250, 30), (3, 40, 30)])
def test_murty_ranks_spaces_above_the_bound_by_partitioning(rng, monkeypatch, c, b, k):
    assert count_injections(c, b) > assignment.ENUMERATE_MAX_INJECTIONS
    cm = rng.uniform(0, 10, size=(c, b))
    want = assignment._kbest_enumerated(cm, k)

    def banned(cm, k):
        raise AssertionError("enumeration reached above the bound")

    monkeypatch.setattr(assignment, "_kbest_enumerated", banned)
    assert murty_kbest(cm, k) == want


@pytest.mark.parametrize("c, b", [(1, 40320), (2, 201), (4, 15), (8, 8), (6, 6), (4, 4)])
def test_murty_enumerates_spaces_within_the_bound(rng, monkeypatch, c, b):
    cm = rng.uniform(0, 10, size=(c, b))

    def banned(cm, k):
        raise AssertionError("partitioning reached within the bound")

    monkeypatch.setattr(assignment, "_kbest_partitioned", banned)
    assert [s.total_cost for s in murty_kbest(cm, 5)] == enumerated_totals(cm)[:5]


def test_enumeration_lists_exact_ties_in_lexicographic_order():
    # all six maps of an all-zero 3 x 3 matrix tie
    ranked = murty_kbest(np.zeros((3, 3)), 6)
    assert [s.cols for s in ranked] == list(itertools.permutations(range(3)))


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
