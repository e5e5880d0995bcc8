"""Exhaustive ground truth: best bipartition and best set partition.

Searching all bipartitions of n rows means 2^(n-1) - 1 candidates; all set
partitions, Bell(n). Both explode quickly, so hard size guards raise rather
than let a call run for hours. `exhaustive_bisect` shares the greedy
search's scoring kernel in `cluster` and is re-exported here. Partitions are
enumerated via restricted growth strings, which visit each set partition
exactly once, and ranked by sums of per-subset costs from the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cluster import MAX_BISECT_ROWS, STRICT_TOL, ClusterOptions, \
    _pooled_subsets, exhaustive_bisect, greedy_bisect
from .entropy import Grouping, _entropies, decompose
from .errors import InvalidInputError, SizeLimitError
from .matrix import LabeledMatrix, ProbabilityModel, probability_model

MAX_PARTITION_ROWS = 12


@dataclass(frozen=True)
class OracleReport:
    """Result of an exhaustive search, optionally compared to the greedy run."""

    best_grouping: Grouping
    best_h0: float
    candidates_examined: int
    greedy_h0: float | None = None
    gap: float | None = None  # best_h0 - greedy_h0, >= 0 up to rounding


def restricted_growth_strings(n: int, max_groups: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of n items with at most max_groups blocks.

    Yields restricted growth strings a with a[0] = 0 and
    a[i] <= max(a[:i]) + 1, in lexicographic order, without recursion
    (Knuth, TAOCP 4A, 7.2.1.5, Algorithm H, with values capped at
    max_groups - 1).
    """
    if n == 0 or n > 1 and max_groups < 1:
        return
    top = max_groups - 1
    a = [0] * n
    # b[i]: the largest value a[i] may take after a[:i], max(a[:i]) + 1
    # capped at top.
    b = [min(1, top)] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        if i < n - 1:
            a[i + 1:] = [0] * (n - 1 - i)
            b[i + 1:] = [min(b[i] + (a[i] == b[i]), top)] * (n - 1 - i)


def exhaustive_partition(model: ProbabilityModel,
                         max_groups: int) -> OracleReport:
    """Grouping of all rows maximizing H0, over every set partition.

    Ties are resolved toward fewer groups, then toward the lexicographically
    smallest restricted growth string. Each row subset B is scored once as
    P(B) * H(B); a partition's H0 is H(n) minus the sum over its blocks.
    Only the winner goes through `decompose`.
    """
    n = model.n_rows
    if n > MAX_PARTITION_ROWS:
        raise SizeLimitError(
            f"{n} rows exceeds the exhaustive partition limit of "
            f"{MAX_PARTITION_ROWS} (Bell-number growth)")
    if not 1 <= max_groups <= n:
        raise InvalidInputError(f"max_groups must be in 1..{n}, "
                                f"got {max_groups}")

    cost = np.zeros(1 << n)
    for chunk, sums in _pooled_subsets(model.joint, np.arange(1, 1 << n)):
        h, w = _entropies(sums)
        cost[chunk] = w * h
    cost = cost.tolist()
    h_n = cost[-1]
    bits = [1 << i for i in range(n)]

    best_rgs = None
    best_h0 = -1.0
    best_m = n + 1
    count = 0
    for rgs in restricted_growth_strings(n, max_groups):
        count += 1
        m = max(rgs) + 1
        blocks = [0] * m
        for bit, g in zip(bits, rgs):
            blocks[g] |= bit
        h0 = h_n - sum(cost[b] for b in blocks)
        if h0 > best_h0 + STRICT_TOL or \
                (abs(h0 - best_h0) <= STRICT_TOL and m < best_m):
            best_rgs, best_h0, best_m = rgs, h0, m
    best_grouping = Grouping(best_rgs, best_m)
    return OracleReport(best_grouping=best_grouping,
                        best_h0=decompose(model, best_grouping).h0,
                        candidates_examined=count)


def verify_greedy(matrix: LabeledMatrix) -> OracleReport:
    """Compare greedy and exhaustive bisection at the root of the matrix."""
    model = probability_model(matrix)
    all_rows = tuple(range(model.n_rows))
    exact = exhaustive_bisect(model, all_rows)
    greedy = greedy_bisect(model, all_rows, ClusterOptions(stop_rule="full"))
    greedy_h0 = greedy.local_h0 if greedy is not None else 0.0
    grouping = Grouping.from_sets([exact.left, exact.right], model.n_rows)
    return OracleReport(best_grouping=grouping, best_h0=exact.local_h0,
                        candidates_examined=2 ** (model.n_rows - 1) - 1,
                        greedy_h0=greedy_h0, gap=exact.local_h0 - greedy_h0)
