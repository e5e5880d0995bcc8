"""Shared helpers: seeded random matrices, pure-Python brute-force
entropy computations kept independent of the library's numpy code paths,
and reference bisection searches that score every candidate separately."""

import itertools
import math

import numpy as np
import pytest

from infodiv import build_matrix, evaluate_bipartition
from infodiv.cluster import STRICT_TOL


def entropy_bits(probs):
    """Plain-Python -sum p log2 p with 0 log 0 = 0."""
    return sum(-p * math.log2(p) for p in probs if p > 0)


def brute_decompose(values, assignment):
    """Entropy decomposition from first principles, loops and math.log2 only.

    Returns (h_n, h_m, h_joint, h0, within) for a grid of counts and a
    row -> group assignment list.
    """
    total = sum(sum(row) for row in values)
    n_cols = len(values[0])
    m = max(assignment) + 1

    col = [sum(values[i][j] for i in range(len(values))) / total
           for j in range(n_cols)]
    agg = [[0.0] * n_cols for _ in range(m)]
    for i, g in enumerate(assignment):
        for j in range(n_cols):
            agg[g][j] += values[i][j] / total
    weights = [sum(row) for row in agg]

    h_n = entropy_bits(col)
    h_m = entropy_bits(weights)
    h_joint = entropy_bits([p for row in agg for p in row])
    h0 = h_n + h_m - h_joint
    within = sum(w * entropy_bits([p / w for p in row])
                 for w, row in zip(weights, agg))
    return h_n, h_m, h_joint, h0, within


def brute_local_h0(values, subtree, left):
    """Transmission of a bipartition within a subtree, renormalized there."""
    sub_vals = [values[i] for i in subtree]
    assignment = [0 if i in set(left) else 1 for i in subtree]
    return brute_decompose(sub_vals, assignment)[3]


def random_matrix(rng, max_rows=10, max_cols=8, min_rows=2, min_cols=2):
    """Random integer count matrix with no zero rows, labels r00, r01, ..."""
    n = int(rng.integers(min_rows, max_rows + 1))
    k = int(rng.integers(min_cols, max_cols + 1))
    vals = rng.integers(0, 10, size=(n, k)).astype(float)
    for i in range(n):
        if vals[i].sum() == 0:
            vals[i, int(rng.integers(0, k))] = 1 + int(rng.integers(0, 9))
    rows = [f"r{i:02d}" for i in range(n)]
    cols = [f"c{j:02d}" for j in range(k)]
    return build_matrix(rows, cols, vals)


def random_grouping(rng, n_rows):
    m = int(rng.integers(1, n_rows + 1))
    assignment = [int(g) for g in rng.integers(0, m, size=n_rows)]
    # Pin one row per group id so every id occurs.
    for g, i in enumerate(rng.permutation(n_rows)[:m]):
        assignment[int(i)] = g
    return assignment


def reference_greedy_bisect(model, subtree, stop_rule="divisive"):
    """Seed-and-grow search with one evaluate_bipartition call per
    candidate and the sequential tie rule written out."""
    candidates = [evaluate_bipartition(model, subtree, (i,)) for i in subtree]
    if stop_rule == "divisive":
        candidates = [c for c in candidates if c.divisive]
    if not candidates:
        return None
    best = candidates[0]
    for c in candidates[1:]:
        if c.local_h0 > best.local_h0 + STRICT_TOL:
            best = c
    while len(best.right) > 1:
        move_best = None
        for i in best.right:
            cand = evaluate_bipartition(model, subtree, best.left + (i,))
            if cand.local_h0 > best.local_h0 + STRICT_TOL:
                if move_best is None or \
                        cand.local_h0 > move_best.local_h0 + STRICT_TOL:
                    move_best = cand
        if move_best is None:
            break
        best = move_best
    if stop_rule == "divisive" and not best.divisive:
        return None
    return best


def reference_exhaustive_bisect(model, subtree):
    """Every bipartition, as the subset holding the first row, in
    lexicographic order of that subset; ties to the first one."""
    subtree = tuple(sorted(subtree))
    first, rest = subtree[0], subtree[1:]
    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(rest, r) for r in range(len(rest))))
    best = None
    for sub in subsets:
        ev = evaluate_bipartition(model, subtree, (first,) + sub)
        if best is None or ev.local_h0 > best.local_h0 + STRICT_TOL:
            best = ev
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
