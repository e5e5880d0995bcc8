"""Exhaustive ground truth: best bipartition and best set partition.

Searching all bipartitions of n rows means 2^(n-1) - 1 candidates; all set
partitions, Bell(n). Both explode quickly, so hard size guards raise rather
than let a call run for hours. `exhaustive_bisect` shares the greedy
search's scoring kernel in `cluster` and is re-exported here. Partitions are
enumerated by one depth-first search over row bitmasks of blocks, in the
lexicographic order of restricted growth strings (Knuth, TAOCP 4A,
7.2.1.5), and ranked by sums of per-subset costs from the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    best_blocks = None
    best_h0 = -1.0
    best_m = n + 1
    count = 0
    # Prefixes as (next row, block bitmasks of the rows before it). Opening
    # a new block is pushed first and the joins from the last block to the
    # first, so block 0 is popped first and leaves come out in the
    # lexicographic order of their restricted growth strings.
    stack = [(1, (1,))]
    while stack:
        i, blocks = stack.pop()
        if i == n:
            count += 1
            m = len(blocks)
            h0 = h_n - sum(cost[b] for b in blocks)
            if h0 > best_h0 + STRICT_TOL or \
                    (abs(h0 - best_h0) <= STRICT_TOL and m < best_m):
                best_blocks, best_h0, best_m = blocks, h0, m
            continue
        bit = 1 << i
        if len(blocks) < max_groups:
            stack.append((i + 1, blocks + (bit,)))
        for g in reversed(range(len(blocks))):
            stack.append((i + 1, blocks[:g] + (blocks[g] | bit,)
                          + blocks[g + 1:]))
    best_grouping = Grouping.from_sets(
        [[r for r in range(n) if b >> r & 1] for b in best_blocks], n)
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
