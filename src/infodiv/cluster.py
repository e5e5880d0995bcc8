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
increases the transmission. It and the exhaustive search rank candidates by
one kernel on pooled row sums; only the winner goes through
`evaluate_bipartition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .entropy import shannon_entropy
from .errors import SizeLimitError
from .matrix import (
    LabeledMatrix,
    ProbabilityModel,
    RowSubset,
    check_subset,
    pooled_profile,
    probability_model,
)

STRICT_TOL = 1e-12  # strict ">" / "<" comparisons in bits
MAX_BISECT_ROWS = 24
_CHUNK = 1 << 14  # exhaustive candidates scored per kernel call


@dataclass(frozen=True)
class ClusterOptions:
    """Knobs for the divisive clustering run.

    stop_rule: "divisive" stops recursion where no strictly divisive split
    exists; "full" keeps splitting down to singletons, flagging each split.
    Tie-breaking is always by lowest row index and is not configurable.
    """

    stop_rule: str = "divisive"

    def __post_init__(self):
        if self.stop_rule not in ("divisive", "full"):
            raise ValueError(f"unknown stop_rule: {self.stop_rule!r}")


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
    """Score one bipartition of `subtree` into `left` and its complement."""
    subtree = check_subset(model, subtree)
    left = check_subset(model, left)
    sub_set = set(subtree)
    left_set = set(left)
    if not left_set < sub_set:
        raise ValueError("left must be a proper subset of subtree")
    right = tuple(i for i in subtree if i not in left_set)

    w_sub, prof_sub = pooled_profile(model, subtree)
    w_l, prof_l = pooled_profile(model, left)
    w_r, prof_r = pooled_profile(model, right)

    h_agg = shannon_entropy(prof_sub)
    h_l = shannon_entropy(prof_l)
    h_r = shannon_entropy(prof_r)

    # Within-subtree weights; the chain rule wants global_delta = w_sub * h0.
    local_h0 = h_agg - (w_l * h_l + w_r * h_r) / w_sub
    local_h0 = max(local_h0, 0.0)
    divisive = (h_l < h_agg - STRICT_TOL) and (h_r < h_agg - STRICT_TOL)
    return SplitEvaluation(left=left, right=right, h_aggregate=h_agg,
                           h_left=h_l, h_right=h_r, local_h0=local_h0,
                           global_delta=w_sub * local_h0, divisive=divisive)


def _entropies(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits of each row of `sums` once normalized, and its total."""
    weights = sums.sum(axis=-1)
    p = np.divide(sums, weights[..., None], out=np.zeros_like(sums),
                  where=sums > 0)
    plogp = np.log2(p, out=np.zeros_like(p), where=p > 0) * p
    return np.maximum(-plogp.sum(axis=-1), 0.0), weights


def _split_scores(total: np.ndarray, left_sums: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """local_h0 and divisive flag of bipartitions of one group, as in
    evaluate_bipartition but unvalidated: `total` sums the group's rows of
    `model.joint`, each row of `left_sums` those of a proper left half."""
    h_agg, w_sub = _entropies(total)
    h_l, w_l = _entropies(left_sums)
    # Rounding can leave a right half's sum below zero where it is zero.
    h_r, w_r = _entropies(np.maximum(total - left_sums, 0.0))
    local_h0 = np.maximum(h_agg - (w_l * h_l + w_r * h_r) / w_sub, 0.0)
    divisive = (h_l < h_agg - STRICT_TOL) & (h_r < h_agg - STRICT_TOL)
    return local_h0, divisive


def _first_best(scores: np.ndarray, floor: float) -> tuple[int | None, float]:
    """The sequential tie rule: take the first score above `floor`, then each
    later one more than STRICT_TOL above the score taken. Returns the index
    taken last (None if none) and the floor a further score must beat."""
    best = None
    for i, score in enumerate(scores.tolist()):
        if score > floor:
            best, floor = i, score + STRICT_TOL
    return best, floor


def greedy_bisect(model: ProbabilityModel, subtree: RowSubset,
                  options: ClusterOptions = ClusterOptions(),
                  ) -> SplitEvaluation | None:
    """Best bipartition of `subtree` by seed-and-grow hill climbing.

    Returns None (no split) when no admissible seed exists, or when the
    grown bipartition is not divisive under the "divisive" stop rule.
    """
    subtree = check_subset(model, subtree)
    if len(subtree) < 2:
        raise ValueError("cannot bisect fewer than 2 rows")
    rows = model.joint[list(subtree)]
    total = rows.sum(axis=0)

    # The first move picks the seed: the best admissible single row, ties
    # by lowest row index. Each later move adds the outside row that raises
    # the transmission most, while one raises it by more than STRICT_TOL.
    left: list[int] = []
    out = list(range(len(subtree)))
    floor = -np.inf
    while len(out) > 1:
        candidates = rows[left].sum(axis=0) + rows[out]
        scores, divisive = _split_scores(total, candidates)
        if not left and options.stop_rule == "divisive":
            scores = np.where(divisive, scores, -np.inf)
        k, floor = _first_best(scores, floor)
        if k is None:
            break
        left.append(out.pop(k))
    if not left:
        return None

    # The divisive flag of the final, grown bipartition governs acceptance.
    best = evaluate_bipartition(model, subtree,
                                tuple(subtree[i] for i in left))
    if options.stop_rule == "divisive" and not best.divisive:
        return None
    return best


def exhaustive_bisect(model: ProbabilityModel,
                      subtree: RowSubset) -> SplitEvaluation:
    """Bipartition of `subtree` maximizing local transmission, by brute force.

    Candidates are the 2^(n-1) - 1 bipartitions, enumerated as subsets
    containing the first row; ties go to the lexicographically smallest
    such subset.
    """
    subtree = tuple(sorted(check_subset(model, subtree)))
    n = len(subtree)
    if n < 2:
        raise ValueError("cannot bisect fewer than 2 rows")
    if n > MAX_BISECT_ROWS:
        raise SizeLimitError(
            f"{n} rows exceeds the exhaustive bisect limit of "
            f"{MAX_BISECT_ROWS} (2^{n - 1} - 1 candidates)")

    # Subsets of the other rows as bitmasks, in lexicographic order of their
    # sorted tuples. Those of rows j.. are the empty set, {j}, {j} with each
    # nonempty one of rows j+1.., then those nonempty ones again.
    masks = np.zeros(1, dtype=np.int32)
    for j in range(n - 2, -1, -1):
        masks = np.concatenate(([0, 1 << j], masks[1:] | 1 << j, masks[1:]),
                               dtype=np.int32)
    masks = np.delete(masks, n - 1)  # the full set, after {0}, {0, 1}, ...
    if len(masks) != 2 ** (n - 1) - 1:
        raise AssertionError(f"{len(masks)} candidates for {n} rows")
    rows = model.joint[list(subtree)]
    total = rows.sum(axis=0)
    best, floor = None, -np.inf
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start:start + _CHUNK]
        members = (chunk[:, None] >> np.arange(n - 1) & 1).astype(float)
        scores, _ = _split_scores(total, rows[0] + members @ rows[1:])
        if scores.max() > floor:  # else the chunk cannot change the winner
            k, floor = _first_best(scores, floor)
            best = int(chunk[k])
    left = (subtree[0],) + tuple(row for b, row in enumerate(subtree[1:])
                                 if best >> b & 1)
    return evaluate_bipartition(model, subtree, left)


def divisive_cluster(matrix: LabeledMatrix,
                     options: ClusterOptions = ClusterOptions(),
                     method: str = "greedy") -> Dendrogram:
    """Recursive divisive clustering of the matrix rows.

    method: "greedy" uses greedy_bisect; "exhaustive" uses exhaustive_bisect
    at every node (small matrices only).
    """
    if method not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown method: {method!r}")
    model = probability_model(matrix)

    def bisect(subtree: RowSubset) -> SplitEvaluation | None:
        if method == "greedy":
            return greedy_bisect(model, subtree, options)
        ev = exhaustive_bisect(model, subtree)
        if options.stop_rule == "divisive" and not ev.divisive:
            return None
        return ev

    def build(subtree: RowSubset, height: float) -> DendrogramNode:
        if len(subtree) < 2:
            return DendrogramNode(members=subtree, height=height)
        split = bisect(subtree)
        if split is None:
            return DendrogramNode(members=subtree, height=height)
        child_h = height + split.global_delta
        left = build(split.left, child_h)
        right = build(split.right, child_h)
        return DendrogramNode(members=subtree, height=height, split=split,
                              children=(left, right))

    root = build(tuple(range(matrix.n_rows)), 0.0)
    return Dendrogram(root=root, row_labels=matrix.row_labels)


def extract_clusters(dendrogram: Dendrogram, rule: str = "nondivisive",
                     height: float | None = None) -> list[RowSubset]:
    """Cut the dendrogram into flat clusters.

    rule "nondivisive": descend from the root through divisive splits only;
    the maximal subtrees reached are the clusters (the level at which the
    total between-group information is maximal under the divisive rule).
    rule "height": clusters are the maximal subtrees whose split would lie
    above cumulative height `height`.
    """
    if rule not in ("nondivisive", "height"):
        raise ValueError(f"unknown cut rule: {rule!r}")
    if rule == "height":
        if height is None:
            raise ValueError("height cut requires a height")
        if height < 0:
            raise ValueError("cut height must be >= 0")

    def descend(node: DendrogramNode) -> bool:
        if rule == "nondivisive":
            return node.split.divisive
        return node.height + node.split.global_delta <= height

    return [node.members for node in dendrogram.walk(descend)
            if node.is_leaf or not descend(node)]
