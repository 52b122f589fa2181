"""Rectangular linear assignment and ranking utilities.

hungarian_solve finds a globally minimum-cost injective assignment of c
rows (targets) to b >= c columns (items), breaking ties by the
lexicographically smallest map. brute_force_solve is the independent
enumeration oracle. murty_kbest ranks the k cheapest assignments by
systematic inclusion/exclusion partitioning. clustering_accuracy scores
predictions against labels under the best cluster-to-label bijection.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_COLS = 8


@dataclass(frozen=True)
class Assignment:
    """Injective map row i -> column cols[i], with its total cost."""

    cols: tuple[int, ...]
    total_cost: float


def _check_cost_matrix(cost) -> np.ndarray:
    cm = np.asarray(cost, dtype=np.float64)
    if cm.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got ndim={cm.ndim}")
    c, b = cm.shape
    if c == 0 or b == 0:
        raise ValueError(f"cost matrix must be non-empty, got shape {cm.shape}")
    if c > b:
        raise ValueError(f"need at least as many columns as rows, got shape {cm.shape}")
    if not np.all(np.isfinite(cm)):
        raise ValueError("cost matrix contains non-finite entries")
    if np.any(cm < 0.0):
        raise ValueError("cost matrix contains negative entries")
    return cm


def _lap_square(cost: np.ndarray):
    """Exact square assignment via shortest augmenting paths with potentials.

    ``cost`` is (n, n) float64; +inf marks forbidden cells. Returns
    (col_for_row, u, v) or None when no finite perfect matching exists.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # p[j] = row matched to column j; column index n is the virtual start.
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


def _pad_square(cm: np.ndarray) -> np.ndarray:
    c, b = cm.shape
    if c == b:
        return cm
    return np.vstack([cm, np.zeros((b - c, b))])


def _solve_rect(cm: np.ndarray):
    """Solve a c x b (c <= b) matrix that may contain +inf bans.

    Returns (cols array of length c, total cost over finite entries) or
    None when infeasible. Ties are broken lexicographically on the map.
    """
    c, b = cm.shape
    sq = _pad_square(cm)
    res = _lap_square(sq)
    if res is None:
        return None
    col_for_row, u, v = res
    finite = cm[np.isfinite(cm)]
    scale = max(1.0, float(finite.max())) if finite.size else 1.0
    tol_edge = 1e-9 * scale
    reduced = sq[:c, :] - u[:c, None] - v[None, :]
    if np.any((reduced <= tol_edge).sum(axis=1) > 1):
        cols = _lex_refine(sq, c, col_for_row, u, v, tol_edge)
    else:
        cols = col_for_row[:c].copy()
    total = float(cm[np.arange(c), cols].sum())
    return cols, total


def _lex_refine(
    sq: np.ndarray,
    c: int,
    col_for_row: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    tol_edge: float,
) -> np.ndarray:
    """Lexicographically smallest map among cost-optimal assignments.

    By complementary slackness the optimal assignments are exactly the
    perfect matchings of the tight graph (zero reduced cost). Rows are
    pinned in order to their smallest tight column for which the rest of
    the matching can be repaired by an augmenting path.
    """
    n = sq.shape[0]
    reduced = sq - u[:, None] - v[None, :]
    adj = [np.flatnonzero(reduced[i] <= tol_edge) for i in range(n)]
    row_to_col = col_for_row.copy()
    col_to_row = np.empty(n, dtype=np.int64)
    col_to_row[row_to_col] = np.arange(n)
    pinned = np.zeros(n, dtype=bool)

    def augment(r: int, free_col: int, visited: np.ndarray) -> bool:
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
            # steal column j from its owner; feasible iff the owner can be
            # rerouted to the column row i frees up
            visited = np.zeros(n, dtype=bool)
            visited[j] = True
            if augment(int(col_to_row[j]), ji, visited):
                row_to_col[i] = j
                col_to_row[j] = i
                break
        pinned[row_to_col[i]] = True
    return row_to_col[:c]


def hungarian_solve(cost) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Deterministic: among equal-cost optima, returns the lexicographically
    smallest map (smallest column for the earliest row).
    """
    cm = _check_cost_matrix(cost)
    cols, total = _solve_rect(cm)
    return Assignment(tuple(int(j) for j in cols), total)


def brute_force_solve(cost) -> Assignment:
    """Exact optimum by enumerating every injection of rows into columns.

    Guarded to b <= 8 columns. The first minimum in lexicographic
    enumeration order is returned, matching hungarian_solve's tie rule.
    """
    cm = _check_cost_matrix(cost)
    c, b = cm.shape
    if b > BRUTE_FORCE_MAX_COLS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_COLS} columns, got {b}")
    perms = np.array(list(itertools.permutations(range(b), c)), dtype=np.int64)
    totals = cm[np.arange(c)[None, :], perms].sum(axis=1)
    # exact ties accumulate different rounding depending on summation order;
    # treat near-equal totals as tied and keep the enumeration-first map
    window = float(totals.min()) + 1e-9 * max(1.0, float(cm.max()))
    best = int(np.flatnonzero(totals <= window)[0])
    return Assignment(tuple(int(j) for j in perms[best]), float(totals[best]))


def murty_kbest(cost, k: int) -> list[Assignment]:
    """The min(k, #injections) cheapest assignments, cost-ascending.

    Standard partitioning: each yielded solution spawns child subproblems
    that force its first t pairs and forbid pair t, giving disjoint
    solution subspaces (hence no duplicates). Children are ranked in a
    priority queue keyed by (cost, insertion order).
    """
    cm = _check_cost_matrix(cost)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c, b = cm.shape

    def solve_node(fixed: list[tuple[int, int]], banned: frozenset[tuple[int, int]]):
        work = cm.copy()
        for (bi, bj) in banned:
            work[bi, bj] = np.inf
        fixed_rows = {i for i, _ in fixed}
        fixed_cols = {j for _, j in fixed}
        rows = [i for i in range(c) if i not in fixed_rows]
        cols = [j for j in range(b) if j not in fixed_cols]
        if rows:
            if len(cols) < len(rows):
                return None
            sub = work[np.ix_(rows, cols)]
            res = _solve_rect(sub)
            if res is None:
                return None
            sub_cols = res[0]
        else:
            sub_cols = np.empty(0, dtype=np.int64)
        full = {i: j for i, j in fixed}
        for ri, sj in zip(rows, sub_cols):
            full[ri] = cols[int(sj)]
        colmap = tuple(full[i] for i in range(c))
        total = float(cm[np.arange(c), np.array(colmap)].sum())
        return colmap, total

    seq = itertools.count()
    heap: list[tuple] = []
    root = solve_node([], frozenset())
    if root is None:
        raise ValueError("infeasible assignment problem")
    heapq.heappush(heap, (root[1], next(seq), [], frozenset(), root[0]))
    out: list[Assignment] = []
    while heap and len(out) < k:
        total, _, fixed, banned, colmap = heapq.heappop(heap)
        out.append(Assignment(colmap, total))
        fixed_rows = {i for i, _ in fixed}
        free_rows = [i for i in range(c) if i not in fixed_rows]
        grown = list(fixed)
        for row in free_rows:
            child_ban = banned | {(row, colmap[row])}
            node = solve_node(grown, child_ban)
            if node is not None:
                heapq.heappush(heap, (node[1], next(seq), list(grown), child_ban, node[0]))
            grown = [*grown, (row, colmap[row])]
    return out


def count_injections(c: int, b: int) -> int:
    return math.factorial(b) // math.factorial(b - c)


def clustering_accuracy(pred, truth, k: int) -> tuple[float, np.ndarray]:
    """Accuracy under the best bijection between predicted clusters and labels.

    Builds the K x K confusion-count matrix and solves the assignment that
    maximizes matched counts. Returns (accuracy, perm) where perm[p] is the
    label matched to predicted cluster p.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"pred and truth must be equal-length 1-D arrays, got {pred.shape}, {truth.shape}")
    m = pred.shape[0]
    if m == 0:
        raise ValueError("empty prediction array")
    if pred.min() < 0 or pred.max() >= k or truth.min() < 0 or truth.max() >= k:
        raise ValueError(f"ids out of range [0, {k})")
    confusion = np.zeros((k, k), dtype=np.float64)
    np.add.at(confusion, (pred, truth), 1.0)
    # maximize matched counts == minimize (max - count); the constant shift
    # keeps costs nonnegative and does not change the argmin map
    cost = confusion.max() - confusion
    best = hungarian_solve(cost)
    perm = np.array(best.cols, dtype=np.int64)
    acc = float(confusion[np.arange(k), perm].sum() / m)
    return acc, perm
