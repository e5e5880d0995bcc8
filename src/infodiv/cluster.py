"""Greedy divisive clustering by maximization of between-group information.

One bipartition of a row group is scored by the transmission (mutual
information) between the two-group variable and the column variable,
computed with probabilities renormalized to the group. Its contribution to
the total between-group information of the whole matrix is that local value
re-weighted by the group's share of the grand sum; the chain rule then makes
dendrogram heights exactly additive.

A split is "divisive" when both halves have strictly lower pooled-profile
entropy than the undivided group. Setting apart a subgroup that raises one
side's entropy removes heterogeneity but is not clustering; under the
default stop rule such splits are rejected.

The greedy search per group: try every single row as a seed subgroup, keep
the admissible seeds, start from the one with the highest transmission,
then repeatedly move in the single best outside row while that strictly
increases the transmission. Both searches rank candidates by one kernel,
`_split_scores`, which scores the group's raw row sum and both halves of
every candidate of a move in one `_entropies` call, each right half as
the group's sum minus the left's. `_scored_split` reports a split from
the pooled sums of its group and both halves: for `evaluate_bipartition`,
and for the greedy winner from the search's own sums. On count input all
these sums are exact (see `matrix`), so a kernel score is the reported
`local_h0`.

The exhaustive search, `exhaustive_bisect`, scores every bipartition of
a group. On a model of at most MAX_PARTITION_ROWS (12) rows it looks each
one up in the model's subset table: the entropy h, the weight w and w * h
of every one of its 2^n row subsets, built on first use from two half
tables of subset sums (Horowitz & Sahni, JACM 21, 1974), with no BLAS
call, and kept on the model. Every node of an exhaustive tree and the
partition oracle share it. On a larger model such a table would not pay
(2^24 subsets of three floats are 384 MB): the left halves of a group are
pooled a chunk at a time by a matmul and scored by `_split_scores`. On
count input every sum is exact, so both routes give every score the
kernel's bits; on other input the table's sums are added in their own
order, the same whatever the BLAS build or its threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .entropy import _entropies
from .errors import InvalidInputError, SizeLimitError
from .matrix import (
    LabeledMatrix,
    ProbabilityModel,
    RowSubset,
    check_subset,
    probability_model,
)

STRICT_TOL = 1e-12  # strict ">" / "<" comparisons in bits
MAX_BISECT_ROWS = 24
# Rows up to which a model's every row subset is tabulated (2^12 subsets,
# 96 KB), and up to which `oracle` searches set partitions.
MAX_PARTITION_ROWS = 12
_CELLS = 1 << 18  # matrix cells pooled per exhaustive kernel call
_ARGMAX_MIN = 64  # scores from which _first_best tries the argmax


@dataclass(frozen=True)
class ClusterOptions:
    """Knobs for the divisive clustering run.

    stop_rule: "divisive" stops splitting where no strictly divisive split
    exists; "full" keeps splitting down to singletons, flagging each split.
    Greedy ties go to the row first in the group's order, not configurable:
    row-index order at the root, the order its rows joined (seed first) in
    a left child, its parent's order in a right child.
    """

    stop_rule: str = "divisive"

    def __post_init__(self):
        if self.stop_rule not in ("divisive", "full"):
            raise InvalidInputError(f"unknown stop_rule: {self.stop_rule!r}")


@dataclass(frozen=True)
class SplitEvaluation:
    """One bipartition of a row group and its information accounting."""

    left: RowSubset
    right: RowSubset
    h_aggregate: float   # entropy of the pooled profile of left+right
    h_left: float
    h_right: float
    local_h0: float      # transmission within the group (renormalized)
    global_delta: float  # group weight x local_h0: contribution to total H0
    divisive: bool       # both halves strictly below h_aggregate


@dataclass(frozen=True)
class DendrogramNode:
    """Node of the binary split tree; height is cumulative bits from root."""

    members: RowSubset
    height: float
    split: SplitEvaluation | None = None
    children: tuple["DendrogramNode", "DendrogramNode"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True)
class Dendrogram:
    root: DendrogramNode
    row_labels: tuple[str, ...]

    def walk(self, descend=None) -> Iterator[DendrogramNode]:
        """Nodes in pre-order, left child first. The children of an inner
        node are visited only when `descend(node)` is true (default: all)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf and (descend is None or descend(node)):
                stack += reversed(node.children)

    def leaves(self) -> list[DendrogramNode]:
        return [node for node in self.walk() if node.is_leaf]

    def max_height(self) -> float:
        return max([0.0, *(node.height + node.split.global_delta
                           for node in self.walk() if not node.is_leaf)])


def evaluate_bipartition(model: ProbabilityModel, subtree: RowSubset,
                         left: RowSubset) -> SplitEvaluation:
    """Score one bipartition of `subtree` into `left` and its complement.

    The arguments are validated once. The raw rows of the subtree, of
    `left` and of the right half are pooled as `pooled_profile` pools them,
    and the three sums are scored by `_scored_split`."""
    subtree = check_subset(model, subtree)
    left = check_subset(model, left)
    left_set = set(left)
    if not left_set < set(subtree):
        raise InvalidInputError("left must be a proper subset of subtree")
    right = tuple(i for i in subtree if i not in left_set)
    # One gather of the three groups' rows, each summed along axis 0.
    rows = model.values[list(subtree + left + right)]
    ends = (0, len(subtree), len(subtree) + len(left), len(rows))
    sums = np.empty((3, rows.shape[1]))
    for g in range(3):
        rows[ends[g]:ends[g + 1]].sum(axis=0, out=sums[g])
    return _scored_split(sums, model.total, left, right)


def _scored_split(sums: np.ndarray, total: float, left: RowSubset,
                  right: RowSubset) -> SplitEvaluation:
    """A group's split into `left` and `right` from the raw sums of the
    group and both halves, rows 0-2 of `sums`, in one `_entropies` call;
    each weight is a pooled total over `total`, the grand sum."""
    h, w = _entropies(sums)
    w /= total
    (h_agg, h_l, h_r), (w_sub, w_l, w_r) = h.tolist(), w.tolist()
    # Zero rows are rejected at ingestion, so every weight is positive.
    if not min(w_sub, w_l, w_r) > 0:
        raise AssertionError(f"a group of {left + right} has zero probability")
    # Within-subtree weights; the chain rule wants global_delta = w_sub * h0.
    local_h0 = max(h_agg - (w_l * h_l + w_r * h_r) / w_sub, 0.0)
    divisive = (h_l < h_agg - STRICT_TOL) and (h_r < h_agg - STRICT_TOL)
    return SplitEvaluation(left=left, right=right, h_aggregate=h_agg,
                           h_left=h_l, h_right=h_r, local_h0=local_h0,
                           global_delta=w_sub * local_h0, divisive=divisive)


def _split_scores(sums: np.ndarray, total: float,
                  divisive_only: bool = False) -> np.ndarray:
    """local_h0 of k bipartitions of one group, as `_scored_split` scores
    one but unvalidated; -inf for one not divisive if `divisive_only`.
    Row 0 of `sums` sums the group's rows of `model.values`, rows 1..k
    those of proper left halves; rows k+1..2k are overwritten with the
    right halves' sums. All 2k + 1 rows are scored in one `_entropies`
    call, each weight a pooled total over `total`, the grand sum."""
    k = len(sums) // 2
    right = np.subtract(sums[0], sums[1:k + 1], out=sums[k + 1:])
    # Off count input, rounding can leave a right half's sum below zero
    # where it is zero.
    np.maximum(right, 0.0, out=right)
    h, w = _entropies(sums)
    w /= total
    wh = w * h
    scores = np.maximum(h[0] - (wh[1:k + 1] + wh[k + 1:]) / w[0], 0.0)
    if divisive_only:
        divisive = (h[1:k + 1] < h[0] - STRICT_TOL) & \
            (h[k + 1:] < h[0] - STRICT_TOL)
        scores = np.where(divisive, scores, -np.inf)
    return scores


def _first_best(scores: np.ndarray, floor: float) -> tuple[int | None, float]:
    """The sequential tie rule: take the first score above `floor`, then each
    later one more than STRICT_TOL above the score taken. Returns the index
    taken last (None if none) and the floor a further score must beat.

    That index is the argmax whenever the top score beats `floor` and every
    other score plus STRICT_TOL is below it (then so is the runner-up's,
    as float addition is monotone), and no index when the top score does
    not beat `floor`; only otherwise are the scores walked in turn. Below
    _ARGMAX_MIN scores the walk alone is faster."""
    if len(scores) >= _ARGMAX_MIN:
        i = int(scores.argmax())
        top = float(scores[i])
        if not top > floor:
            return None, floor
        if np.count_nonzero(scores + STRICT_TOL >= top) == 1:
            return i, top + STRICT_TOL
    best = None
    for i, score in enumerate(scores.tolist()):
        if score > floor:
            best, floor = i, score + STRICT_TOL
    return best, floor


def _pooled_subsets(rows: np.ndarray, masks: np.ndarray
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`masks` in chunks of at most _CELLS // columns, each with the sums of
    the `rows` its masks select (bit i selects row i)."""
    step = max(1, _CELLS // rows.shape[1])
    bits = np.arange(len(rows))
    for start in range(0, len(masks), step):
        chunk = masks[start:start + step]
        yield chunk, (chunk[:, None] >> bits & 1).astype(float) @ rows


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """The sum of every subset of `rows`, indexed by bitmask (bit i selects
    row i), built one row at a time in row order:
    T[2^i:2^(i+1)] = T[:2^i] + row i."""
    sums = np.zeros((1 << len(rows), rows.shape[1]))
    for i, row in enumerate(rows):
        np.add(sums[:1 << i], row, out=sums[1 << i:2 << i])
    return sums


def _tabulate_subsets(values: np.ndarray, total: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h, w and w * h of every subset of the rows of `values`, indexed by
    bitmask (bit i selects row i): the entropy in bits of the subset's
    pooled raw rows and their total over `total`, the grand sum; all three
    are 0 for the empty set, and read-only.

    A subset's sum is the `_subset_sums` entry of its rows among the first
    n // 2 plus that of its other rows, one add per cell, with no BLAS
    call; on count input it is exact (see `matrix`). The sums are scored
    in chunks of at most _CELLS cells, one `_entropies` call each, so the
    working memory does not grow with the column count."""
    n, c = values.shape
    b = n // 2
    low, high = _subset_sums(values[:b]), _subset_sums(values[b:])
    h, w = np.zeros(1 << n), np.zeros(1 << n)
    step = max(1, _CELLS // c)
    for start in range(1, 1 << n, step):
        end = min(start + step, 1 << n)
        masks = np.arange(start, end)
        sums = high[masks >> b]
        sums += low[masks & (1 << b) - 1]
        h[start:end], w[start:end] = _entropies(sums)
    w /= total
    table = h, w, w * h
    for column in table:
        column.setflags(write=False)
    return table


def _subset_table(model: ProbabilityModel
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_tabulate_subsets` of the model's values, built on the first call
    and kept in `model.cache` for every later one."""
    table = model.cache.get("subsets")
    if table is None:
        table = model.cache["subsets"] = _tabulate_subsets(model.values,
                                                           model.total)
    return table


def greedy_bisect(model: ProbabilityModel, subtree: RowSubset,
                  options: ClusterOptions = ClusterOptions(),
                  ) -> SplitEvaluation | None:
    """Best bipartition of `subtree` by seed-and-grow hill climbing.

    Returns None (no split) when no admissible seed exists, or when the
    grown bipartition is not divisive under the "divisive" stop rule, and
    otherwise what `evaluate_bipartition` reports for the grown `left`.
    A group of two rows is not searched: its one bipartition is reported
    with the first row as `left`.
    """
    subtree = check_subset(model, subtree)
    if len(subtree) < 2:
        raise InvalidInputError("cannot bisect fewer than 2 rows")
    divisive_only = options.stop_rule == "divisive"
    if len(subtree) == 2:  # both seeds pool equal numbers: the first wins
        best = evaluate_bipartition(model, subtree, subtree[:1])
        return None if divisive_only and not best.divisive else best
    # A move scores the m rows outside `left`, cand[:m] in `subtree` order:
    # row 0 of `sums` holds the group's row sum, rows 1..m their left
    # halves and rows m+1..2m their right halves. The seed, from an empty
    # left, is the best admissible row (ties to the first in `subtree`);
    # only it needs the divisive flags. Each later move adds the best row
    # while that raises the transmission by more than STRICT_TOL.
    cand = model.values[list(subtree)]
    sums = np.empty((2 * len(cand) + 1, cand.shape[1]))
    cand.sum(axis=0, out=sums[0])
    left_sum = np.zeros(cand.shape[1])
    left, out, floor = [], list(subtree), -np.inf
    while len(out) >= 2:
        m = len(out)
        np.add(left_sum, cand[:m], out=sums[1:m + 1])
        scores = _split_scores(sums[:2 * m + 1], model.total,
                               divisive_only and not left)
        k, floor = _first_best(scores, floor)
        if k is None:
            break
        left.append(out.pop(k))
        left_sum += cand[k]
        cand[k:m - 1] = cand[k + 1:m]
    if not left:
        return None
    # The winner's report; its divisive flag governs acceptance. From two
    # columns up `left_sum` is rows[left].sum(axis=0) bit for bit (up to
    # -0.0); with one column numpy sums pairwise, but every entropy is 0.
    sums[1] = left_sum
    cand[:len(out)].sum(axis=0, out=sums[2])
    best = _scored_split(sums[:3], model.total, tuple(left), tuple(out))
    return None if divisive_only and not best.divisive else best


def exhaustive_bisect(model: ProbabilityModel,
                      subtree: RowSubset) -> SplitEvaluation:
    """Bipartition of `subtree` maximizing local transmission, by brute force.

    Candidates are the 2^(n-1) - 1 bipartitions, enumerated as subsets
    containing the first row; ties go to the lexicographically smallest
    such subset. The winner is reported by `evaluate_bipartition`. A group
    of two rows has one bipartition and is not searched.

    On a model of at most MAX_PARTITION_ROWS rows a split of the group S
    into B and S - B scores max(h[S] - (wh[B] + wh[S - B]) / w[S], 0), the
    kernel's formula on lookups in the model's subset table
    (`_subset_table`). The first call on any subtree of the model builds
    the table for all 2^n subsets of its rows, so a single bisection of a
    small group of a 12-row model pays for the 4096-subset table; every
    later call, at any node of the same model, scores by lookup alone.
    On a larger model the left halves are pooled a chunk at a time
    (`_pooled_subsets`) and scored by `_split_scores`, each right half
    the group's sum minus the left's. On count input every sum either
    route takes is exact, so both give the same score bits. On other input
    the table adds its sums in an order of its own, without BLAS, so its
    scores do not depend on the BLAS build or its threads.
    """
    subtree = tuple(sorted(check_subset(model, subtree)))
    n = len(subtree)
    if n < 2:
        raise InvalidInputError("cannot bisect fewer than 2 rows")
    if n > MAX_BISECT_ROWS:
        raise SizeLimitError(
            f"{n} rows exceeds the exhaustive bisect limit of "
            f"{MAX_BISECT_ROWS} (2^{n - 1} - 1 candidates)")
    if n == 2:
        return evaluate_bipartition(model, subtree, subtree[:1])

    # The candidates are the first row with each subset of the others but
    # all of them, as bitmasks in the lexicographic order of their sorted
    # tuples. A row's bit is its bit in the table, or else its place among
    # the others. The subsets of rows j.. are the empty set, {j}, {j} with
    # each nonempty one of rows j+1.., then those nonempty ones again.
    table = model.n_rows <= MAX_PARTITION_ROWS
    bits = [1 << j for j in (subtree[1:] if table else range(n - 1))]
    masks = np.zeros(1, dtype=np.int32)
    for bit in reversed(bits):
        masks = np.concatenate(([0, bit], masks[1:] | bit, masks[1:]),
                               dtype=np.int32)
    masks = np.delete(masks, n - 1)  # the full set, after {0}, {0, 1}, ...
    if len(masks) != 2 ** (n - 1) - 1:
        raise AssertionError(f"{len(masks)} candidates for {n} rows")
    if table:
        h, w, wh = _subset_table(model)
        lefts = masks | 1 << subtree[0]
        group = sum(bits, 1 << subtree[0])
        scores = np.maximum(
            h[group] - (wh[lefts] + wh[group ^ lefts]) / w[group], 0.0)
        best = int(masks[_first_best(scores, -np.inf)[0]])
    else:
        rows = model.values[list(subtree)]
        total = rows.sum(axis=0)
        floor = -np.inf
        for chunk, sums in _pooled_subsets(rows[1:], masks):
            halves = np.empty((2 * len(sums) + 1, sums.shape[1]))
            halves[0] = total
            np.add(rows[0], sums, out=halves[1:len(sums) + 1])
            k, floor = _first_best(_split_scores(halves, model.total),
                                   floor)
            if k is not None:
                best = int(chunk[k])
    left = subtree[:1] + tuple(row for row, bit in zip(subtree[1:], bits)
                               if best & bit)
    return evaluate_bipartition(model, subtree, left)


def divisive_cluster(matrix: LabeledMatrix,
                     options: ClusterOptions = ClusterOptions(),
                     method: str = "greedy") -> Dendrogram:
    """Divisive clustering of the matrix rows, splitting each group in turn.

    method: "greedy" uses greedy_bisect; "exhaustive" uses exhaustive_bisect
    at every node (small matrices only).
    """
    if method not in ("greedy", "exhaustive"):
        raise InvalidInputError(f"unknown method: {method!r}")
    model = probability_model(matrix)

    def bisect(subtree: RowSubset) -> SplitEvaluation | None:
        if method == "greedy":
            return greedy_bisect(model, subtree, options)
        ev = exhaustive_bisect(model, subtree)
        return ev if ev.divisive or options.stop_rule == "full" else None

    # Split the groups in pre-order, left child first, then build the
    # nodes from the last one back, so that no level costs a stack frame.
    groups = []
    todo = [(tuple(range(matrix.n_rows)), 0.0)]
    while todo:
        subtree, height = todo.pop()
        split = bisect(subtree) if len(subtree) >= 2 else None
        groups.append((subtree, height, split))
        if split is not None:
            child_h = height + split.global_delta
            todo += [(split.right, child_h), (split.left, child_h)]
    built: list[DendrogramNode] = []
    for subtree, height, split in reversed(groups):
        children = None if split is None else (built.pop(), built.pop())
        built.append(DendrogramNode(members=subtree, height=height,
                                    split=split, children=children))
    return Dendrogram(root=built.pop(), row_labels=matrix.row_labels)


def extract_clusters(dendrogram: Dendrogram,
                     height: float | None = None) -> list[RowSubset]:
    """Cut the dendrogram into flat clusters.

    Without a height, descend from the root through divisive splits only;
    the maximal subtrees reached are the clusters (the level at which the
    total between-group information is maximal under the divisive rule).
    With a height (a number >= 0, inf included), the clusters are the
    maximal subtrees whose split would lie above cumulative height `height`.
    """
    if height is not None and not (isinstance(height, numbers.Real)
                                   and height >= 0):  # NaN compares false
        raise InvalidInputError(f"cut height must be >= 0, got {height!r}")

    def descend(node: DendrogramNode) -> bool:
        if height is None:
            return node.split.divisive
        return node.height + node.split.global_delta <= height

    return [node.members for node in dendrogram.walk(descend)
            if node.is_leaf or not descend(node)]
