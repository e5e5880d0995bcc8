"""Labeled nonnegative matrices and the probability model derived from them.

The matrix holds raw counts (or any nonnegative reals, e.g. log-transformed
counts). Dividing by the grand sum turns it into a joint probability
distribution over (row, column); all entropy computations read from that
model, never from the raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateLabelError,
    EmptyMatrixError,
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
        return float(self.values.sum())

    def row_index(self, label: str) -> int:
        return self.row_labels.index(label)


@dataclass(frozen=True)
class ProbabilityModel:
    """Joint and marginal probabilities of a LabeledMatrix."""

    joint: np.ndarray          # p[i, j], sums to 1
    row_marginal: np.ndarray   # P[i]
    col_marginal: np.ndarray   # q[j]
    grand_sum: float

    @property
    def n_rows(self) -> int:
        return self.joint.shape[0]

    @property
    def n_cols(self) -> int:
        return self.joint.shape[1]


@dataclass(frozen=True)
class BuildReport:
    """Outcome of matrix construction under the drop policy."""

    matrix: LabeledMatrix
    dropped_rows: tuple[str, ...] = ()


def _check_labels(labels, kind: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        seen, dups = set(), []
        for x in labels:
            if x in seen:
                dups.append(x)
            seen.add(x)
        raise DuplicateLabelError(f"duplicate {kind} labels: {dups}")
    return labels


def build_matrix(row_labels, col_labels, values,
                 zero_row_policy: str = "reject") -> LabeledMatrix:
    """Validate and construct a LabeledMatrix.

    zero_row_policy: "reject" raises on any all-zero row; "drop" removes
    them silently (use build_matrix_report to learn which were dropped).
    """
    return build_matrix_report(row_labels, col_labels, values,
                               zero_row_policy).matrix


def build_matrix_report(row_labels, col_labels, values,
                        zero_row_policy: str = "reject") -> BuildReport:
    """As build_matrix, but also reports rows dropped under the drop policy."""
    if zero_row_policy not in ("reject", "drop"):
        raise ValueError(f"unknown zero_row_policy: {zero_row_policy!r}")
    row_labels = _check_labels(row_labels, "row")
    col_labels = _check_labels(col_labels, "column")

    arr = np.asarray(values, dtype=float)
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

    row_sums = arr.sum(axis=1)
    dropped: tuple[str, ...] = ()
    if np.any(row_sums == 0):
        zero_idx = np.flatnonzero(row_sums == 0)
        if zero_row_policy == "reject":
            names = [row_labels[i] for i in zero_idx]
            raise ZeroRowError(f"rows with zero sum: {names}")
        keep = np.flatnonzero(row_sums > 0)
        dropped = tuple(row_labels[i] for i in zero_idx)
        row_labels = tuple(row_labels[i] for i in keep)
        arr = arr[keep]

    if arr.size == 0 or arr.sum() <= 0:
        raise EmptyMatrixError("matrix grand sum is zero")

    arr = arr.copy()
    arr.setflags(write=False)
    return BuildReport(LabeledMatrix(row_labels, col_labels, arr), dropped)


def probability_model(matrix: LabeledMatrix) -> ProbabilityModel:
    """Normalize the matrix by its grand sum into a joint distribution."""
    total = matrix.grand_sum
    joint = matrix.values / total
    row_marginal = joint.sum(axis=1)
    col_marginal = joint.sum(axis=0)
    for a in (joint, row_marginal, col_marginal):
        a.setflags(write=False)
    return ProbabilityModel(joint, row_marginal, col_marginal, total)


def check_subset(model: ProbabilityModel, subset: RowSubset) -> RowSubset:
    """Validate a row subset: nonempty, distinct, in range."""
    subset = tuple(int(i) for i in subset)
    if not subset:
        raise ValueError("row subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"row subset has repeated indices: {subset}")
    if min(subset) < 0 or max(subset) >= model.n_rows:
        raise ValueError(f"row index out of range in {subset}")
    return subset


def pooled_profile(model: ProbabilityModel,
                   subset: RowSubset) -> tuple[float, np.ndarray]:
    """Weight and pooled column distribution of a group of rows.

    Returns (weight, profile): weight is the total row-marginal probability
    of the subset, profile the column distribution conditional on the group.
    """
    subset = check_subset(model, subset)
    idx = np.fromiter(subset, dtype=int)
    pooled = model.joint[idx].sum(axis=0)
    weight = float(pooled.sum())
    # Zero rows are rejected at ingestion, so the weight is always positive.
    if not weight > 0:
        raise AssertionError(f"row subset {subset} has zero total probability")
    return weight, pooled / weight
