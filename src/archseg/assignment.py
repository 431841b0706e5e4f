"""Minimum-cost one-to-one assignment.

`hungarian_assign` solves the rectangular assignment problem exactly with
shortest augmenting paths (Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016, the method of
`scipy.optimize.linear_sum_assignment`), in numpy alone: detection and the
metrics need no scipy, and a process that only detects never imports it.

With more rows than columns the transpose is solved, so every column gets
a row and the rows left over get none.

A greedy start cuts the search's work: the duals start at the row minima,
and each row takes its cheapest column when no earlier row has taken it.
Every row still free then grows one Dijkstra search over the columns, in
reduced costs, until it reaches a free column, and the path is flipped.
When several assignments reach the optimum, which one is returned is
unspecified.
"""

from __future__ import annotations

import numpy as np


def hungarian_assign(cost) -> tuple[np.ndarray, float]:
    """Assign each row to a distinct column minimizing total cost.

    Returns (assignment, total_cost) where assignment[i] is the column given
    to row i, or -1 for a row that gets none, which happens only when there
    are more rows than columns.  Requires at least one row and one column,
    and finite entries.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {c.shape}")
    n_rows, n_cols = c.shape
    if n_rows == 0 or n_cols == 0:
        raise ValueError(f"cost matrix has no rows or no columns, shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")
    if n_rows > n_cols:
        row_of, total = hungarian_assign(c.T)
        assignment = np.full(n_rows, -1, dtype=np.intp)
        assignment[row_of] = np.arange(n_cols)
        return assignment, total
    assignment = _shortest_augmenting_paths(np.ascontiguousarray(c))
    return assignment, float(c[np.arange(n_rows), assignment].sum())


def _shortest_augmenting_paths(c: np.ndarray) -> np.ndarray:
    """The optimal column of each row of an R x C cost matrix, R <= C.

    The duals u (rows) and v (columns) keep every reduced cost
    c[i, j] - u[i] - v[j] >= 0 and every assigned pair at 0.  A search from
    a free row scans one column per step: the unscanned column at the least
    path length `d`, which either is free (the search ends) or leads on to
    the row holding it.  A scanned column's `v` is set to -inf in the work
    copy, so its reduced costs read +inf and `d` never changes it again.
    The per-search bookkeeping is a few entries long, so it stays in Python
    lists; only the per-step row scan is a numpy pass over the columns.
    """
    n_rows, n_cols = c.shape
    rows_of = list(c)
    u = c.min(axis=1).tolist()
    v = np.zeros(n_cols)
    row4col = [-1] * n_cols
    col4row = [-1] * n_rows
    for i, j in enumerate(c.argmin(axis=1).tolist()):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
    d = np.empty(n_cols)
    v_work = np.empty(n_cols)
    step = np.empty(n_cols)
    for free in [i for i in range(n_rows) if col4row[i] < 0]:
        np.copyto(v_work, v)
        d.fill(np.inf)
        # rows[k] is scanned at step k with offset offsets[k]; cols[k] is the
        # column step k picks, at path length lengths[k].
        rows, offsets, cols, lengths = [], [], [], []
        i, length = free, 0.0
        while i >= 0:
            offset = length - u[i]
            rows.append(i)
            offsets.append(offset)
            np.subtract(rows_of[i], v_work, out=step)
            step += offset
            np.minimum(d, step, out=d)
            j = int(d.argmin())
            length = d.item(j)
            cols.append(j)
            lengths.append(length)
            d[j] = np.inf
            v_work[j] = -np.inf
            i = row4col[j]
        # Flip the path from the free column back to `free`.  The predecessor
        # of cols[t] is the first of rows[:t + 1] that gives its length,
        # recomputed by the expression the scan used, so the values agree.
        t = len(cols) - 1
        while True:
            j = cols[t]
            vj = v.item(j)
            k = min(range(t + 1), key=lambda k: (rows_of[rows[k]].item(j) - vj) + offsets[k])
            row4col[j], col4row[rows[k]] = rows[k], j
            if k == 0:
                break
            t = k - 1
        # Move each scanned row and column by how far short of the final
        # length its path ended, which keeps every reduced cost >= 0 and
        # puts the new pairs at 0.
        u[free] += length
        for k in range(1, len(rows)):
            u[rows[k]] += length - lengths[k - 1]
        for j, reached in zip(cols, lengths):
            v[j] -= length - reached
    return np.asarray(col4row, dtype=np.intp)


def brute_force_assign(cost):
    """Exhaustive-permutation oracle for small instances.

    Returns (assignment, total) like hungarian_assign; intended only as a
    test reference, cost grows factorially.
    """
    from itertools import permutations

    c = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = c.shape
    best = np.inf
    best_perm = None
    rows = np.arange(n_rows)
    for perm in permutations(range(n_cols), n_rows):
        total = c[rows, list(perm)].sum()
        if total < best:
            best = total
            best_perm = perm
    return np.asarray(best_perm, dtype=np.intp), float(best)
