"""Exhaustive ground truth: best bipartition and best set partition.

Searching all bipartitions of n rows means 2^(n-1) - 1 candidates; all set
partitions, Bell(n). Both explode quickly, so hard size guards raise rather
than let a call run for hours. `exhaustive_bisect` shares the greedy
search's scoring kernel in `cluster` and is re-exported here. Partitions are
enumerated by one depth-first search over row bitmasks of blocks, in the
lexicographic order of restricted growth strings (Knuth, TAOCP 4A,
7.2.1.5), and ranked by sums of per-subset costs from the same kernel. The
search is branch and bound: P(B) * H(B) is superadditive under merging, so a
prefix that cannot come within a 1e-9-bit margin of the incumbent is dropped
with all its completions. Identical rows are its worst case: every partition
ties, nothing is pruned, and all Bell(n) leaves are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import STRICT_TOL, ClusterOptions, _pooled_subsets, \
    exhaustive_bisect, greedy_bisect
from .entropy import Grouping, _entropies, decompose
from .errors import InvalidInputError, SizeLimitError
from .matrix import ProbabilityModel, as_indices

MAX_PARTITION_ROWS = 12
# Bits below the incumbent at which a prefix is pruned: far above
# STRICT_TOL plus the rounding of the bound.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """Result of an exhaustive search, optionally compared to the greedy run."""

    best_grouping: Grouping
    best_h0: float
    candidates_examined: int
    greedy_h0: float | None = None
    gap: float | None = None  # best_h0 - greedy_h0, >= 0 up to rounding


def exhaustive_partition(model: ProbabilityModel,
                         max_groups: int) -> OracleReport:
    """Grouping of all rows maximizing H0, over every set partition.

    Ties are resolved toward fewer groups, then toward the lexicographically
    smallest restricted growth string. Each row subset B is scored once as
    P(B) * H(B); a partition's H0 is H(n) minus the sum over its blocks.
    Only the winner goes through `decompose`.

    The search is pruned by branch and bound. P(B) * H(B) is superadditive
    under merging (entropy is concave), so no completion of a prefix scores
    more than H(n) minus the costs of its blocks and the singleton costs of
    the rows still unassigned. A popped prefix whose bound is more than
    `_PRUNE_MARGIN` below the incumbent is dropped. Its leaves would come
    next in the order, each compared with that same incumbent, which none
    of them can replace: each lies more than the margin, far more than
    `STRICT_TOL` plus rounding, below it. So the winner is the full
    enumeration's. On identical rows every partition ties and nothing is
    pruned: all Bell(n) leaves are scored, the worst case.
    `candidates_examined` counts the strings covered, pruned or scored: the
    partitions into at most `max_groups` blocks.
    """
    n = model.n_rows
    (max_groups,) = as_indices((max_groups,), "max_groups")
    if n > MAX_PARTITION_ROWS:
        raise SizeLimitError(
            f"{n} rows exceeds the exhaustive partition limit of "
            f"{MAX_PARTITION_ROWS} (Bell-number growth)")
    if not 1 <= max_groups <= n:
        raise InvalidInputError(f"max_groups must be in 1..{n}, "
                                f"got {max_groups}")

    cost = np.zeros(1 << n)
    for chunk, sums in _pooled_subsets(model.values, np.arange(1, 1 << n)):
        h, w = _entropies(sums)
        cost[chunk] = w / model.total * h
    cost = cost.tolist()
    h_n = cost[-1]
    # rest[i]: the singleton costs of rows i..n-1, the least they can add.
    rest = [0.0] * (n + 1)
    for r in reversed(range(n)):
        rest[r] = rest[r + 1] + cost[1 << r]

    best_blocks = None
    best_h0 = -1.0
    best_m = n + 1
    # A prefix is pruned when its bound, h_n - least, is more than the
    # margin below best_h0.
    limit = h_n - best_h0 + _PRUNE_MARGIN
    # Prefixes as (next row, block bitmasks of the rows before it, least),
    # least being the costs of those blocks plus rest[next row], a running
    # sum kept for the bound only. Opening a new block is pushed first and
    # the joins from the last block to the first, so block 0 is popped first
    # and leaves come out in the lexicographic order of their restricted
    # growth strings.
    stack = [(1, (1,), rest[0])]
    while stack:
        i, blocks, least = stack.pop()
        if least > limit:
            continue
        if i == n:
            m = len(blocks)
            h0 = h_n - sum(map(cost.__getitem__, blocks))
            if h0 > best_h0 + STRICT_TOL or \
                    (abs(h0 - best_h0) <= STRICT_TOL and m < best_m):
                best_blocks, best_h0, best_m = blocks, h0, m
                limit = h_n - best_h0 + _PRUNE_MARGIN
            continue
        bit = 1 << i
        if len(blocks) < max_groups:
            stack.append((i + 1, blocks + (bit,), least))
        least -= cost[bit]
        for g in reversed(range(len(blocks))):
            b = blocks[g]
            stack.append((i + 1, blocks[:g] + (b | bit,) + blocks[g + 1:],
                          least - cost[b] + cost[b | bit]))
    best_grouping = Grouping.from_sets(
        [[r for r in range(n) if b >> r & 1] for b in best_blocks], n)
    return OracleReport(best_grouping=best_grouping,
                        best_h0=decompose(model, best_grouping).h0,
                        candidates_examined=_partitions(n, max_groups))


def _partitions(n: int, max_groups: int) -> int:
    """Set partitions of n items into at most `max_groups` blocks: the sum
    of the Stirling numbers S(n, j) for j <= max_groups, from
    S(i, j) = j S(i - 1, j) + S(i - 1, j - 1)."""
    row = [1] + [0] * max_groups        # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1]
                     for j in range(1, max_groups + 1)]
    return sum(row)


def verify_greedy(model: ProbabilityModel) -> OracleReport:
    """Compare greedy and exhaustive bisection at the root of the model.

    When greedy finds the exhaustive bipartition, as a pair of row sets,
    it reports the exhaustive score and a gap of 0.0. On count input the
    two scores of one split are equal (see `matrix`); on other input the
    searches pool the halves' rows in different orders, so the scores can
    differ in the last bit, either way."""
    all_rows = tuple(range(model.n_rows))
    exact = exhaustive_bisect(model, all_rows)
    greedy = greedy_bisect(model, all_rows, ClusterOptions(stop_rule="full"))
    grouping = Grouping.from_sets([exact.left, exact.right], model.n_rows)
    same = set(greedy.left) in (set(exact.left), set(exact.right))
    greedy_h0 = exact.local_h0 if same else greedy.local_h0
    return OracleReport(best_grouping=grouping, best_h0=exact.local_h0,
                        candidates_examined=2 ** (model.n_rows - 1) - 1,
                        greedy_h0=greedy_h0, gap=exact.local_h0 - greedy_h0)
