"""Labeled nonnegative matrices and the probability model derived from them.

The matrix holds raw counts (or any nonnegative reals, e.g. log-transformed
counts). Divided by its grand sum it is a joint probability distribution
over (row, column), but nothing divides the cells: the model holds the raw
values and their grand sum, every group quantity pools raw values, and a
pooled total becomes a probability by one divide by the grand sum, before
it multiplies an entropy. So nothing overflows where the probabilities
would not.

Exactness: on count input, every cell an integer and the grand sum below
2^53, every pooled sum is an integer below 2^53, exact in float64 in any
order of its rows and under any BLAS. So the numbers of a split or a
grouping depend only on its row sets. Other input is pooled the same way,
deterministically, without that claim.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateLabelError,
    EmptyMatrixError,
    InvalidInputError,
    NegativeValueError,
    NonFiniteValueError,
    ZeroRowError,
)

# A row subset is an ordered tuple of distinct row indices.
RowSubset = tuple[int, ...]


@dataclass(frozen=True)
class LabeledMatrix:
    """Validated nonnegative matrix with distinct row and column labels."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray  # shape (rows, cols), read-only

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def grand_sum(self) -> float:
        """Sum of all cells; inf, without a warning, when it overflows."""
        with np.errstate(over="ignore"):
            return float(self.values.sum())


@dataclass(frozen=True)
class ProbabilityModel:
    """The joint distribution p(i, j) = values[i, j] / total of a
    LabeledMatrix's cells, kept as the raw values and their grand sum.
    Every marginal and group quantity pools raw values where it is used."""

    values: np.ndarray  # the matrix's values, shared, read-only
    total: float        # their grand sum, finite and positive

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def joint(self) -> np.ndarray:
        """p(i, j) as a new read-only array, divided on each access."""
        joint = self.values / self.total
        joint.setflags(write=False)
        return joint


def _check_labels(labels, kind: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        first: dict[str, int] = {}  # each label's first position
        dups = [x for k, x in enumerate(labels) if first.setdefault(x, k) != k]
        raise DuplicateLabelError(f"duplicate {kind} labels: {dups}")
    return labels


def build_matrix(row_labels, col_labels, values) -> LabeledMatrix:
    """Validate and construct a LabeledMatrix on a copy of `values`, so the
    caller's array is never aliased or frozen; an all-zero row raises
    ZeroRowError."""
    return _validated(row_labels, col_labels, np.array(values, dtype=float))


def _validated(row_labels, col_labels, arr: np.ndarray) -> LabeledMatrix:
    """build_matrix's checks on a float array that the caller owns and
    hands over: it becomes the matrix's values and is frozen in place."""
    row_labels = _check_labels(row_labels, "row")
    col_labels = _check_labels(col_labels, "column")

    if arr.ndim != 2 or arr.shape != (len(row_labels), len(col_labels)):
        raise EmptyMatrixError(
            f"values shape {arr.shape} does not match "
            f"{len(row_labels)} rows x {len(col_labels)} columns")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteValueError(
            f"non-finite value {arr[i, j]} at row {row_labels[i]!r}, "
            f"column {col_labels[j]!r}")
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise NegativeValueError(
            f"negative value {arr[i, j]} at row {row_labels[i]!r}, "
            f"column {col_labels[j]!r}")

    # A row of nonnegative cells sums to zero exactly when no cell is
    # nonzero; once each row has a positive sum, so has the whole matrix.
    zero = np.flatnonzero(~arr.any(axis=1))
    if len(zero):
        names = [row_labels[i] for i in zero]
        raise ZeroRowError(f"rows with zero sum: {names}")
    if arr.size == 0:
        raise EmptyMatrixError("matrix grand sum is zero")

    arr.setflags(write=False)
    return LabeledMatrix(row_labels, col_labels, arr)


def probability_model(matrix: LabeledMatrix) -> ProbabilityModel:
    """The matrix's values, shared, not copied, and their grand sum. Raises
    NonFiniteValueError when the grand sum overflows the float range."""
    total = matrix.grand_sum
    if not math.isfinite(total):
        raise NonFiniteValueError("matrix grand sum overflows the float "
                                  "range")
    return ProbabilityModel(matrix.values, total)


def as_indices(values, what: str) -> tuple[int, ...]:
    """`values` as ints by `operator.index`, which takes Python's and
    numpy's integers. A float or a string, which `int` would truncate or
    parse, raises InvalidInputError naming the first such value."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise InvalidInputError(
            f"{what} must be an integer, got {bad!r}") from None


def check_subset(model: ProbabilityModel, subset: RowSubset) -> RowSubset:
    """Validate a row subset: integer indices, nonempty, distinct, in
    range."""
    subset = as_indices(subset, "row index")
    if not subset:
        raise InvalidInputError("row subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"row subset has repeated indices: {subset}")
    if min(subset) < 0 or max(subset) >= model.n_rows:
        raise InvalidInputError(f"row index out of range in {subset}")
    return subset


def pooled_profile(model: ProbabilityModel,
                   subset: RowSubset) -> tuple[float, np.ndarray]:
    """Weight and pooled column distribution of a group of rows.

    Returns (weight, profile): weight is the total row-marginal probability
    of the subset, its pooled raw total over the grand sum, and profile the
    column distribution conditional on the group, the pooled raw values
    over that total.
    """
    subset = check_subset(model, subset)
    pooled = model.values[list(subset)].sum(axis=0)
    total = float(pooled.sum())
    # Zero rows are rejected at ingestion, so the total is always positive.
    if not total > 0:
        raise AssertionError(f"row subset {subset} has zero total probability")
    return total / model.total, pooled / total
