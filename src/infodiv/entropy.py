"""Shannon entropy and its between/within-group decomposition.

For a grouping of the rows, the aggregate entropy splits as

    H = H0 + sum_g Pg * Hg

where H0 is the between-group part: the mutual information (transmission)
between the grouping variable and the column variable. Equivalent identities

    H(n|m) = H(n,m) - H(m)
    H0     = H(n) + H(m) - H(n,m)

are computed, and the first identity and the bounds on H0 are checked on
every decomposition. All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .matrix import ProbabilityModel, as_indices

IDENTITY_TOL = 1e-9  # bits
# decompose sums each group's rows a block of at most this many cells (or
# one row) at a time, so that no gathered block passes 512 KB.
_BLOCK_CELLS = 2 ** 16
# The largest column total that `_xlog2x_table` tabulates: 2^16 + 1
# entries, 512 KB.
_TABLE_MAX = 2 ** 16
# Off the table, `_weighted_bits` scales rows whose largest total lies
# outside [1 / _SCALE_RANGE, _SCALE_RANGE].
_SCALE_RANGE = 2.0 ** 64


@dataclass(frozen=True)
class Grouping:
    """Assignment of each row to a group; the m distinct ids are 0..m-1."""

    assignment: tuple[int, ...]
    m: int = field(init=False)  # the number of groups

    def __post_init__(self):
        used = set(as_indices(self.assignment, "group id"))
        object.__setattr__(self, "m", len(used))
        if used != set(range(self.m)):
            raise InvalidInputError(
                f"group ids must cover 0..{self.m - 1}, got {sorted(used)}")

    @classmethod
    def from_sets(cls, groups, n_rows: int) -> "Grouping":
        """Build a Grouping from disjoint nonempty row-index sets."""
        assignment = [-1] * n_rows
        for g, members in enumerate(groups):
            members = as_indices(members, "row index")
            if not members:
                raise InvalidInputError(f"group {g} is empty")
            for i in members:
                if not 0 <= i < n_rows:
                    raise InvalidInputError(f"row {i} outside 0..{n_rows - 1}")
                if assignment[i] != -1:
                    raise InvalidInputError(f"row {i} assigned twice")
                assignment[i] = g
        if -1 in assignment:
            raise InvalidInputError("grouping does not cover all rows")
        return cls(tuple(assignment))

    def members(self, g: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.assignment) if a == g)


@dataclass(frozen=True)
class EntropyReport:
    """All entropies of one (model, grouping) pair, in bits."""

    h_n: float       # entropy of the column marginal
    h_m: float       # entropy of the group weights
    h_joint: float   # entropy of the (group, column) joint
    h_cond: float    # within-group expectation, H(n|m)
    h0: float        # between-group part / transmission
    groups: tuple[tuple[float, float], ...]  # per group: (p_g, h_g)
    h0_ratio: float  # auxiliary: h0 / h_n (0 when h_n == 0)


def shannon_entropy(dist) -> float:
    """Entropy -sum p*log2(p) of a probability vector, with 0*log2(0) = 0.
    An array of any shape is taken as one distribution."""
    p = np.asarray(dist, dtype=float).ravel()
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise InvalidInputError("probabilities must be finite and nonnegative")
    total = p.sum()
    if abs(total - 1.0) > IDENTITY_TOL:
        raise InvalidInputError(f"probabilities sum to {total}, expected 1")
    return float(_entropy_bits(p))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Bits of each distribution along the last axis of `p`, unvalidated."""
    return np.maximum(-_xlog2x(p).sum(axis=-1), 0.0)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x of each element of `x` (nonnegative) as a new array.
    Adding 1 where x is 0 gives 0 log2 0 = 0 without a warning and leaves
    every other x log2 x as it is."""
    out = x + (x == 0)
    np.log2(out, out=out)
    out *= x
    return out


def _xlog2x_table(model: ProbabilityModel) -> np.ndarray | None:
    """x log2 x of x = 0, 1, ..., the largest column total of the model's
    values, read-only, when these are counts (see `matrix`) whose largest
    column total is at most _TABLE_MAX; None otherwise. Every pooled sum
    of count rows is then an index into it. Built on the first call and
    kept in `model.cache` for every later one."""
    if "xlog2x" not in model.cache:
        top = model.values.sum(axis=0).max()
        table = None
        if top <= _TABLE_MAX and \
                (np.floor(model.values) == model.values).all():
            table = _xlog2x(np.arange(int(top) + 1, dtype=float))
            table.setflags(write=False)
        model.cache["xlog2x"] = table
    return model.cache["xlog2x"]


def _weighted_bits(sums: np.ndarray, table: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """X H of each row of `sums` (nonnegative) in bits, where X is the
    row's total and H the entropy of the row once normalized, and X: on
    the raw sums, X H = X log2 X - sum_j x_j log2 x_j (Theil 1972), with
    no divide and one log2 per cell. With a `_xlog2x_table` that covers
    the sums, each x_j log2 x_j is looked up in it, which gives the bits
    of the log2 route.

    Off the table, rows whose largest total lies outside [2^-64, 2^64]
    are first scaled by one power of two, which brings it into [1/2, 1):
    X log2 X then does not overflow near the float maximum, and does not
    lose its bits to subnormals near 0. X H is then that of the scaled
    rows, and so is X; their ratio H is unchanged.

    The form cancels as H approaches 0, where the terms, about X log2 X,
    are many times their difference: H keeps an absolute error of a few
    ulps of log2 X, not a relative one. It ranks splits; reported
    entropies come from `_entropies`."""
    totals = sums.sum(axis=-1)
    if table is not None:
        xlogx = table[sums.astype(np.intp)]
    else:
        top = totals.max(initial=0.0)
        if top > _SCALE_RANGE or 0 < top < 1 / _SCALE_RANGE:
            sums = np.ldexp(sums, -math.frexp(top)[1])
            totals = sums.sum(axis=-1)
        xlogx = _xlog2x(sums)
    return _xlog2x(totals) - xlogx.sum(axis=-1), totals


def _entropies(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits of each row of `sums` (nonnegative) once normalized,
    and its total. A row of total 0 has entropy 0: only then is the divide
    masked, which gives every other row the bits of the plain divide."""
    weights = sums.sum(axis=-1)
    if weights.all():
        p = sums / weights[..., None]
    else:
        p = np.divide(sums, weights[..., None], out=np.zeros_like(sums),
                      where=weights[..., None] > 0)
    return _entropy_bits(p), weights


def decompose(model: ProbabilityModel, grouping: Grouping) -> EntropyReport:
    """Entropy decomposition of the column variable under a row grouping.

    The rows of each group are gathered from the model's raw values, a
    block of at most `_BLOCK_CELLS` cells at a time, in row order, and
    each block is summed with `.sum(axis=0)` into the group's row of the
    m x c aggregate: the first block's sum is written there and each later
    one added. On count input every such sum is exact (see `matrix`), so
    the report depends only on the partition; other input is summed the
    same way, deterministically. No pass after this one reads the whole
    matrix.

    Hg and the group totals come from one `_entropies` call on the
    aggregate. The grand sum is the sum of the group totals (the model's
    on count input, and the one group's total for a one-group grouping on
    any input, whose weight is then 1.0). Pg is a group's total over it,
    the joint the aggregate divided by it once, and the column marginal
    the aggregate's column totals over it; H(m), H(n,m) and H(n) are the
    `shannon_entropy` of these. H(n) = H0 + sum_g Pg Hg and
    0 <= H0 <= min(H(n), H(m)) are checked to within 1e-9 bits. A
    violation indicates a bug, not bad data, so it raises AssertionError,
    also under `python -O`.
    """
    if len(grouping.assignment) != model.n_rows:
        raise InvalidInputError(
            f"grouping covers {len(grouping.assignment)} rows, "
            f"model has {model.n_rows}")

    assign = np.asarray(grouping.assignment)
    # The rows of group g are order[ends[g - 1]:ends[g]], in row order.
    order = np.argsort(assign, kind="stable")
    ends = np.cumsum(np.bincount(assign, minlength=grouping.m)).tolist()
    step = max(1, _BLOCK_CELLS // max(model.n_cols, 1))
    agg = np.empty((grouping.m, model.n_cols))
    first = 0
    for g, end in enumerate(ends):
        model.values[order[first:min(first + step, end)]].sum(
            axis=0, out=agg[g])
        for block in range(first + step, end, step):
            agg[g] += model.values[order[block:min(block + step, end)]].sum(
                axis=0)
        first = end

    h_groups, totals = _entropies(agg)
    total = totals.sum()
    weights = totals / total
    h_m = shannon_entropy(weights)
    h_n = shannon_entropy(agg.sum(axis=0) / total)
    h_joint = shannon_entropy(agg / total)
    h_cond = h_joint - h_m
    h0 = h_n + h_m - h_joint
    groups = tuple(zip(weights.tolist(), h_groups.tolist()))

    # H(n|m) = sum_g Pg Hg is this identity once h0 is substituted, and
    # h0 = H(n) + H(m) - H(n,m) holds by its definition above.
    within = sum(p_g * h_g for p_g, h_g in groups)
    if abs(h_n - (h0 + within)) > IDENTITY_TOL:
        raise AssertionError(f"H(n) = {h_n} != H0 + within = {h0 + within}")
    if not -IDENTITY_TOL <= h0 <= min(h_n, h_m) + IDENTITY_TOL:
        raise AssertionError(f"H0 = {h0} outside [0, min({h_n}, {h_m})]")

    ratio = h0 / h_n if h_n > 0 else 0.0
    return EntropyReport(h_n=h_n, h_m=h_m, h_joint=h_joint, h_cond=h_cond,
                         h0=h0, groups=groups, h0_ratio=ratio)
