"""Minimum-cost one-to-one assignment.

`hungarian_assign` validates its input and solves it with scipy's sparse
Jonker-Volgenant shortest-augmenting-path solver (LAPJVsp).  It stands in for
`scipy.optimize.linear_sum_assignment` because importing `scipy.optimize`
loads that whole package, about 10 MB more resident memory per process.  When
several assignments reach the optimum, which one is returned is unspecified.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


def hungarian_assign(cost) -> tuple[np.ndarray, float]:
    """Assign each row to a distinct column minimizing total cost.

    Returns (assignment, total_cost) where assignment[i] is the column given
    to row i.  Requires R <= C and finite entries.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {c.shape}")
    n_rows, n_cols = c.shape
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns ({n_rows} > {n_cols})")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")
    # The solver takes only non-zero entries as edges; shifting every cost to
    # >= 1 keeps all pairs and adds the same amount to every full matching.
    _, cols = min_weight_full_bipartite_matching(csr_array(c - c.min() + 1.0))
    assignment = cols.astype(np.intp)  # rows come back as arange(n_rows)
    return assignment, float(c[np.arange(n_rows), assignment].sum())


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
