"""Exhaustive ground truth: best bipartition and best set partition.

Searching all bipartitions of n rows means 2^(n-1) - 1 candidates; all set
partitions, Bell(n). Both explode quickly, so hard size guards raise rather
than let a call run for hours. `exhaustive_bisect` shares the greedy
search's scoring kernel in `cluster` and is re-exported here. Partitions are
enumerated via restricted growth strings, which visit each set partition
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cluster import MAX_BISECT_ROWS, ClusterOptions, exhaustive_bisect, \
    greedy_bisect
from .entropy import Grouping, decompose
from .errors import SizeLimitError
from .matrix import LabeledMatrix, ProbabilityModel, probability_model

MAX_PARTITION_ROWS = 12
TOL = 1e-12


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
    a[i] <= max(a[:i]) + 1, in lexicographic order.
    """
    if n == 0:
        return
    a = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(min(top + 1, max_groups - 1) + 1):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def exhaustive_partition(model: ProbabilityModel,
                         max_groups: int) -> OracleReport:
    """Grouping of all rows maximizing H0, over every set partition.

    Ties are resolved toward fewer groups, then toward the lexicographically
    smallest restricted growth string.
    """
    n = model.n_rows
    if n > MAX_PARTITION_ROWS:
        raise SizeLimitError(
            f"{n} rows exceeds the exhaustive partition limit of "
            f"{MAX_PARTITION_ROWS} (Bell-number growth)")
    if not 1 <= max_groups <= n:
        raise ValueError(f"max_groups must be in 1..{n}")

    best_grouping = None
    best_h0 = -1.0
    best_m = n + 1
    count = 0
    for rgs in restricted_growth_strings(n, max_groups):
        count += 1
        m = max(rgs) + 1
        grouping = Grouping(rgs, m)
        h0 = decompose(model, grouping).h0
        if h0 > best_h0 + TOL or (abs(h0 - best_h0) <= TOL and m < best_m):
            best_grouping, best_h0, best_m = grouping, h0, m
    return OracleReport(best_grouping=best_grouping, best_h0=best_h0,
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
