"""Rectangular linear assignment and ranking utilities.

hungarian_solve finds a globally minimum-cost injective assignment of c
rows (targets) to b >= c columns (items), breaking ties by the
lexicographically smallest map. brute_force_solve is the independent
enumeration oracle. murty_kbest ranks the k cheapest assignments.
clustering_accuracy scores predictions against labels under the best
cluster-to-label bijection.

murty_kbest takes one of two paths. A space of at most
ENUMERATE_MAX_INJECTIONS (40,320 = 8!) injections is enumerated in full
and sorted (_kbest_enumerated); exact ties keep lexicographic map order.
A larger space is ranked by Murty's inclusion/exclusion partitioning
(_kbest_partitioned), one general solve per child subproblem; exact ties
keep the order in which the partitioning finds them. Both give the same
totals, bit for bit, and differ only in the order of exactly tied maps.
Enumeration costs the same for every k, while partitioning grows with k,
so the bound is set at the k its callers ask for: 24 (``eval --topk 24``)
and 100 (the end-of-train curve). Medians on uniform square matrices,
1 BLAS thread, enumeration against partitioning: 7 x 7 takes 1.9 against
27 ms at k = 24 and 3.0 against 64 ms at k = 100; 8 x 8 takes 23 against
34 ms and 23 against 121 ms; 9 x 9 (362,880 maps) takes 176 against 24 ms
and 198 against 99 ms. Small k on 8 x 8 is the cost of one bound for every
k: partitioning is faster there below k of about 16 (2.7 against 22 ms at
k = 1). Since c! <= 8! forces c <= 8, the uncached injection table stays
under 2.6 MB.

A clustering batch has one distinct cost row per class, so its caller
passes hungarian_solve only those rows plus ``groups``, the distinct row
each of the c solver rows takes: solver row i is ``cost[groups[i]]``, and
every distinct row must be used. That matrix is first solved as a
transportation problem over the distinct rows (_solve_grouped). When its
optimal partition of the columns is unique, rows of one group take the
group's columns in ascending order, in row order, which is the
lexicographic map: within a class, the batch's target slots, in the order
the plan lists them, go to the class's images in batch order. A partition
that is not unique by a margin (GROUP_TIE_MARGIN), a float-level negative
cycle met on the way, or groups of one row each fall back to the general
solve (_solve_rect) on the expanded c x b matrix. A matrix passed without
``groups`` takes the general solve alone.

The general solve augments the c rows over the b columns by shortest paths
(_lap), with no padding rows; unmatched columns keep the dual v = 0. On
ties, _lex_refine adds one node that owns the unmatched columns and may
take any column whose v is 0, in place of b - c zero padding rows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_COLS = 8
# murty_kbest ranks a space of at most this many injections by enumeration
ENUMERATE_MAX_INJECTIONS = 40320
# A grouped solve is kept only when every other column partition costs more
# than this times the cost scale. It sits far above _solve_rect's tie
# tolerance (1e-9 per edge), so near-ties go to the solver that owns them.
GROUP_TIE_MARGIN = 1e-6


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


def _lap(cost: np.ndarray):
    """Exact c x b (c <= b) assignment via shortest augmenting paths with potentials.

    ``cost`` may hold +inf bans. Returns (cols, u, v), or None when no finite
    injective map exists. Only settled columns, all matched, change v, so
    unmatched columns keep v = 0 and every v stays <= 0.
    """
    c, b = cost.shape
    u = np.zeros(c)
    v = np.zeros(b)
    # p[j] = row matched to column j; column index b is the virtual start.
    p = np.full(b + 1, -1, dtype=np.int64)
    for i in range(c):
        p[b] = i
        j0 = b
        minv = np.full(b, np.inf)
        way = np.full(b, b, dtype=np.int64)
        used = np.zeros(b + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0, :] - u[i0] - v
            free = ~used[:b]
            improve = free & (cur < minv)
            minv[improve] = cur[improve]
            way[improve] = j0
            cand = np.where(free, minv, np.inf)
            j1 = int(np.argmin(cand))
            delta = cand[j1]
            if not np.isfinite(delta):
                return None
            settled = used[:b]
            u[p[:b][settled]] += delta
            v[settled] -= delta
            u[i] += delta
            minv[free] -= delta
            minv[j1] = 0.0
            j0 = j1
            if p[j0] == -1:
                break
        while j0 != b:
            j_prev = way[j0]
            p[j0] = p[j_prev]
            j0 = j_prev
    # unmatched columns (p = -1) sort first, then the columns of rows 0..c-1
    return np.argsort(p[:b])[b - c:], u, v


def _cost_scale(cm: np.ndarray) -> float:
    finite = cm[np.isfinite(cm)]
    return max(1.0, float(finite.max())) if finite.size else 1.0


def _solve_rect(cm: np.ndarray) -> np.ndarray | None:
    """Solve a c x b (c <= b) matrix that may contain +inf bans.

    Returns the cols array of length c, or None when infeasible. Ties are
    broken lexicographically on the map.
    """
    res = _lap(cm)
    if res is None:
        return None
    cols, u, v = res
    tol_edge = 1e-9 * _cost_scale(cm)
    tight = cm - u[:, None] - v[None, :] <= tol_edge
    if np.any(tight.sum(axis=1) > 1):
        return _lex_refine(tight, cols, v >= -tol_edge)
    return cols


def _lex_refine(tight: np.ndarray, cols: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Lexicographically smallest map among cost-optimal assignments.

    The optimal maps are the matchings of ``tight`` (zero reduced cost)
    that leave unmatched only ``spare`` columns (v within the tie tolerance
    of 0). Node c owns the unmatched columns and may take any spare one.
    Rows are pinned in order to their smallest tight column for which the
    rest of the matching can be repaired by an augmenting path.
    """
    c, b = tight.shape
    adj = [np.flatnonzero(t).tolist() for t in (*tight, spare)]
    row_to_col = cols.copy()
    col_to_row = np.full(b, c, dtype=np.int64)
    col_to_row[row_to_col] = np.arange(c)
    pinned = np.zeros(b, dtype=bool)

    def augment(r: int, free_col: int, visited: np.ndarray) -> bool:
        for j2 in adj[r]:
            # the extra node gains nothing from a column it already owns
            if visited[j2] or pinned[j2] or col_to_row[j2] == r:
                continue
            visited[j2] = True
            if j2 == free_col or augment(int(col_to_row[j2]), free_col, visited):
                if r < c:
                    row_to_col[r] = j2
                col_to_row[j2] = r
                return True
        return False

    for i in range(c):
        ji = int(row_to_col[i])
        for j in adj[i]:
            if j >= ji:
                break
            if pinned[j]:
                continue
            # steal column j from its owner; feasible iff the owner can be
            # rerouted to the column row i frees up
            visited = np.zeros(b, dtype=bool)
            visited[j] = True
            if augment(int(col_to_row[j]), ji, visited):
                row_to_col[i] = j
                col_to_row[j] = i
                break
        pinned[row_to_col[i]] = True
    return row_to_col


def _group_graph(dcost: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exchange graph of a column partition among the sources of ``dcost``.

    ``w[k, k2]`` is the cheapest change in cost from moving one column
    owned by ``k`` to ``k2``, and ``arg[k, k2]`` is that column. Sources
    that own no column have no outgoing edges (+inf); there are no loops.
    """
    n, b = dcost.shape
    move = dcost - dcost[owner, np.arange(b)]
    mine = owner[None, :] == np.arange(n)[:, None]
    per_col = np.where(mine[:, None, :], move[None, :, :], np.inf)
    arg = per_col.argmin(axis=2)
    w = np.take_along_axis(per_col, arg[:, :, None], axis=2)[:, :, 0]
    np.fill_diagonal(w, np.inf)
    return w, arg


def _solve_grouped(rows: np.ndarray, groups: np.ndarray) -> np.ndarray | None:
    """Transportation solve of the c x b matrix ``rows[groups]``.

    Each distinct row is a source whose supply is its group's size, plus
    one unassigned source for the b - c unused columns; every column takes
    one unit. Starting from each column's cheapest source, successive
    shortest paths on the source graph move columns until every supply is
    met. The partition is accepted only if every exchange cycle costs more
    than ``GROUP_TIE_MARGIN`` times the cost scale; then it is the unique
    optimum and rows of one group take its columns in ascending order, which
    is the lexicographically smallest optimal map. Returns None, for the
    rectangular solve (_solve_rect) to take over, when every group has one
    row or the optimum may not be unique.
    """
    c, b = groups.shape[0], rows.shape[1]
    if rows.shape[0] == c:
        return None
    tie = GROUP_TIE_MARGIN * _cost_scale(rows)
    supply = np.bincount(groups)
    if b > c:
        # any constant works for the unused columns; the c-th smallest best
        # cost lets the greedy start leave about b - c of them unassigned
        best = rows.min(axis=0)
        unused = np.partition(best, c - 1)[c - 1]
        rows = np.vstack([rows, np.full(b, unused)])
        supply = np.append(supply, b - c)
    n = rows.shape[0]
    # every column at its cheapest source is optimal for the counts it gives
    owner = rows.argmin(axis=0)
    excess = np.bincount(owner, minlength=n) - supply
    nodes = np.arange(n)
    while np.any(excess > 0):
        # Bellman-Ford from every over-supplied source at once; a shortest
        # path needs at most n - 1 rounds, so an n-th improving round means
        # a negative cycle, which exact arithmetic would not have
        w, arg = _group_graph(rows, owner)
        dist = np.where(excess > 0, 0.0, np.inf)
        pred = np.full(n, -1)
        for _ in range(n):
            through = dist[:, None] + w
            via = through.argmin(axis=0)
            new_dist = through[via, nodes]
            shorter = new_dist < dist
            if not shorter.any():
                break
            dist[shorter] = new_dist[shorter]
            pred[shorter] = via[shorter]
        else:
            return None
        sink = int(np.argmin(np.where(excess < 0, dist, np.inf)))
        node = sink
        for _ in range(n):
            if pred[node] == -1:
                break
            owner[arg[pred[node], node]] = node
            node = pred[node]
        else:
            return None  # rounding left a cycle in the predecessors
        excess[node] -= 1
        excess[sink] += 1
    # Floyd-Warshall: w[k, k] becomes the cheapest exchange cycle through k
    w, _ = _group_graph(rows, owner)
    for m in range(n):
        w = np.minimum(w, w[:, m, None] + w[None, m, :])
    if np.any(np.diag(w) <= tie):
        return None
    cols = np.empty(c, dtype=np.int64)
    cols[np.argsort(groups, kind="stable")] = np.argsort(owner, kind="stable")[:c]
    return cols


def _check_groups(groups, shape: tuple[int, int]) -> np.ndarray:
    g = np.asarray(groups)
    n, b = shape
    if g.ndim != 1 or not np.issubdtype(g.dtype, np.integer):
        raise ValueError(f"groups must be a 1-D integer array, got shape {g.shape}, dtype {g.dtype}")
    g = g.astype(np.int64, copy=False)
    if not 1 <= g.shape[0] <= b:
        raise ValueError(f"groups must name 1 to {b} solver rows, got {g.shape[0]}")
    if g.min() < 0 or g.max() >= n:
        raise ValueError(f"groups must index the {n} cost rows, got values {g.min()}..{g.max()}")
    if np.bincount(g, minlength=n).min() == 0:
        raise ValueError("every cost row must belong to some group")
    return g


def hungarian_solve(cost, groups=None) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Deterministic: among equal-cost optima, returns the lexicographically
    smallest map (smallest column for the earliest row). With ``groups``,
    ``cost`` holds distinct rows and solver row i is ``cost[groups[i]]``;
    that matrix is first tried as a transportation problem. Without it,
    every row of ``cost`` is a solver row of its own.
    """
    cm = _check_cost_matrix(cost)
    groups = np.arange(cm.shape[0]) if groups is None else _check_groups(groups, cm.shape)
    cols = _solve_grouped(cm, groups)
    if cols is None:
        cols = _solve_rect(cm[groups])
    total = float(cm[groups, cols].sum())
    return Assignment(tuple(int(j) for j in cols), total)


def _injections(c: int, b: int) -> np.ndarray:
    """Every injection of c rows into b columns, (count, c), in lexicographic order."""
    n = count_injections(c, b)
    flat = itertools.chain.from_iterable(itertools.permutations(range(b), c))
    return np.fromiter(flat, dtype=np.int64, count=n * c).reshape(n, c)


def brute_force_solve(cost) -> Assignment:
    """Exact optimum by enumerating every injection of rows into columns.

    Guarded to b <= 8 columns. The first minimum in lexicographic
    enumeration order is returned, matching hungarian_solve's tie rule.
    """
    cm = _check_cost_matrix(cost)
    c, b = cm.shape
    if b > BRUTE_FORCE_MAX_COLS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_COLS} columns, got {b}")
    perms = _injections(c, b)
    totals = cm[np.arange(c)[None, :], perms].sum(axis=1)
    # exact ties accumulate different rounding depending on summation order;
    # treat near-equal totals as tied and keep the enumeration-first map
    window = float(totals.min()) + 1e-9 * max(1.0, float(cm.max()))
    best = int(np.flatnonzero(totals <= window)[0])
    return Assignment(tuple(int(j) for j in perms[best]), float(totals[best]))


def murty_kbest(cost, k: int) -> list[Assignment]:
    """The min(k, #injections) cheapest assignments, cost-ascending.

    A space of at most ENUMERATE_MAX_INJECTIONS injections is enumerated
    and sorted, and exactly tied maps come in lexicographic order. A larger
    one is ranked by Murty partitioning, and exactly tied maps come in the
    order the partitioning finds them. Totals are the same either way; the
    module docstring gives the measured reason for the bound.
    """
    cm = _check_cost_matrix(cost)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if count_injections(*cm.shape) <= ENUMERATE_MAX_INJECTIONS:
        return _kbest_enumerated(cm, k)
    return _kbest_partitioned(cm, k)


def _kbest_enumerated(cm: np.ndarray, k: int) -> list[Assignment]:
    """k-best by sorting every injection's total; ties in lexicographic order."""
    c, b = cm.shape
    perms = _injections(c, b)
    totals = cm[np.arange(c)[None, :], perms].sum(axis=1)
    best = np.argsort(totals, kind="stable")[:k]
    return [Assignment(tuple(int(j) for j in perms[i]), float(totals[i])) for i in best]


def _kbest_partitioned(cm: np.ndarray, k: int) -> list[Assignment]:
    """k-best by Murty's partitioning of the solution space.

    Each yielded solution spawns child subproblems that force its first t
    pairs and forbid pair t, giving disjoint solution subspaces (hence no
    duplicates). Children are ranked in a priority queue keyed by (cost,
    insertion order).
    """
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
            sub_cols = _solve_rect(sub)
            if sub_cols is None:
                return None
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
    while heap:
        total, _, fixed, banned, colmap = heapq.heappop(heap)
        out.append(Assignment(colmap, total))
        if len(out) == k:  # no child of the k-th solution can be returned
            break
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
    return math.perm(b, c)


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
