"""Pearson r, Salton's cosine, and the log transform, over labeled matrices.

The cosine ignores coordinates that are zero in both vectors; Pearson r
does not, because shared zeros shift both means. That difference is the
whole controversy these measures are compared for, so both are implemented
exactly and zero handling is never silent: undefined cases (constant or
all-zero vectors) raise instead of producing NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NonFiniteValueError,
    UndefinedCorrelation,
    UndefinedCosine,
)
from .matrix import LabeledMatrix, build_matrix

# A sum of squares in this range has lost no small terms to underflow and
# has not overflowed; products of two such vectors cannot overflow either.
_SQ_LO, _SQ_HI = 2.0 ** -960, 2.0 ** 960
# What pearson and cosine raise, and with which message, for a constant or
# all-zero vector.
_UNDEFINED = {
    "pearson": (UndefinedCorrelation,
                "correlation undefined for a constant vector"),
    "cosine": (UndefinedCosine, "cosine undefined for an all-zero vector"),
}
# What pearson raises, and with which message, when a mean or a centered
# value leaves the float range.
_OVERFLOW = (NonFiniteValueError,
             "correlation undefined: centering leaves the float range")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarity over the rows of a square matrix."""

    labels: tuple[str, ...]
    values: np.ndarray
    measure: str          # "pearson" | "cosine"
    diagonal_mode: str    # "include" | "missing"
    transform: str        # "none" | "log1p"


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length vectors, length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = x - x.mean(), y - y.mean()
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        error, what = _OVERFLOW
        raise error(what)
    r = _cosine(x, y)
    if r is None:
        raise UndefinedCorrelation("correlation undefined for a constant vector")
    return min(1.0, max(-1.0, r))


def cosine(x, y) -> float:
    """Salton's cosine: sum(xy) / sqrt(sum(x^2) * sum(y^2))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ValueError("cosine needs two equal-length vectors, length >= 1")
    r = _cosine(x, y)
    if r is None:
        raise UndefinedCosine("cosine undefined for an all-zero vector")
    return r


def _cosine(x: np.ndarray, y: np.ndarray) -> float | None:
    """sum(xy) / sqrt(sum(x^2) * sum(y^2)), or None if x or y is all zero.

    Exactly-rounded sums make the result invariant under appending
    coordinates that are zero in both vectors; `math.fsum` reads a list of
    Python floats about twice as fast as a numpy array. Pearson r is this
    ratio for the centered vectors.
    """
    with np.errstate(over="ignore", under="ignore"):
        x, sxx = _scaled(x)
        y, syy = _scaled(y)
        if sxx == 0 or syy == 0:
            return None
        return math.fsum((x * y).tolist()) / (math.sqrt(sxx) * math.sqrt(syy))


def _scaled(v: np.ndarray) -> tuple[np.ndarray, float]:
    """`v` and its exactly rounded sum of squares. Only when that sum lies
    outside [_SQ_LO, _SQ_HI] is `v` first scaled by an exact power of two,
    to a largest magnitude in [0.5, 1); the ratio in `_cosine` does not
    change under such a scaling."""
    try:
        ss = math.fsum((v * v).tolist())
    except OverflowError:  # finite squares whose sum overflows
        ss = math.inf
    if _SQ_LO <= ss <= _SQ_HI:
        return v, ss
    v = np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])
    return v, math.fsum((v * v).tolist())


def _scaled_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_scaled` applied to each row of the fresh 2-D array `rows` (which
    it may overwrite): the rows and their sums of squares. Only rows whose
    sum of squares leaves [_SQ_LO, _SQ_HI], or overflows, go through
    `_scaled` itself."""
    try:
        ss = list(map(math.fsum, (rows * rows).tolist()))
    except OverflowError:  # some row's squares sum past the float range
        ss = [math.inf] * len(rows)
    for k, s in enumerate(ss):
        if not _SQ_LO <= s <= _SQ_HI:
            rows[k], ss[k] = _scaled(rows[k])
    return rows, np.array(ss)


def log_transform(matrix: LabeledMatrix) -> LabeledMatrix:
    """Cell-wise x -> log2(1 + x); monotone and zero-preserving."""
    return build_matrix(matrix.row_labels, matrix.col_labels,
                        np.log2(1.0 + matrix.values))


def similarity_matrix(matrix: LabeledMatrix, measure: str = "pearson",
                      diagonal_mode: str = "include",
                      transform: str = "none") -> SimilarityMatrix:
    """Pairwise similarity of the rows of a square labeled matrix.

    diagonal_mode "missing" drops positions i and j from both row vectors
    before comparing rows i and j (the usual handling of self-cocitation
    cells); "include" treats the diagonal as ordinary data. The log
    transform, when requested, is applied before anything else.
    """
    if measure not in ("pearson", "cosine"):
        raise ValueError(f"unknown measure: {measure!r}")
    if diagonal_mode not in ("include", "missing"):
        raise ValueError(f"unknown diagonal_mode: {diagonal_mode!r}")
    if transform not in ("none", "log1p"):
        raise ValueError(f"unknown transform: {transform!r}")
    if matrix.row_labels != matrix.col_labels:
        raise InvalidInputError("similarity needs a square matrix with "
                                "matching row and column labels")

    if transform == "log1p":
        matrix = log_transform(matrix)
    n = matrix.n_rows
    width = n if diagonal_mode == "include" else n - 2
    min_width = 2 if measure == "pearson" else 1
    if n > 1 and width < min_width:
        raise ValueError(f"{measure} needs two equal-length vectors, "
                         f"length >= {min_width}")
    # Row i against every row j > i at once: the same rounded products,
    # exactly rounded sums and correctly rounded sqrt and divide as
    # pearson(x, y) or cosine(x, y) on each pair.
    values = matrix.values
    vals = np.eye(n)
    with np.errstate(over="ignore", under="ignore"):
        if diagonal_mode == "include":
            rows, ss = _scaled_rows(_centered(values) if measure == "pearson"
                                    else values.copy())
        for i in range(n - 1):
            if diagonal_mode == "include":
                x, sxx, y, syy = rows[i], ss[i], rows[i + 1:], ss[i + 1:]
            else:
                x, sxx, y, syy = _missing_diagonal_pairs(values, i, measure)
            # Centered values past the float range leave a sum of squares
            # that is not finite, even after `_scaled`.
            finite = np.isfinite(sxx) & np.isfinite(syy)
            bad = np.flatnonzero(~finite | (sxx == 0) | (syy == 0))
            if len(bad):
                k = int(bad[0])
                error, what = _UNDEFINED[measure] if finite[k] else _OVERFLOW
                raise error(f"{what} (pair {matrix.row_labels[i]!r}, "
                            f"{matrix.row_labels[i + 1 + k]!r})")
            r = np.fromiter(map(math.fsum, (x * y).tolist()), float,
                            n - 1 - i) / (np.sqrt(sxx) * np.sqrt(syy))
            if measure == "pearson":
                r = np.clip(r, -1.0, 1.0)
            vals[i, i + 1:] = vals[i + 1:, i] = r
    vals.setflags(write=False)
    return SimilarityMatrix(labels=matrix.row_labels, values=vals,
                            measure=measure, diagonal_mode=diagonal_mode,
                            transform=transform)


def _centered(rows: np.ndarray) -> np.ndarray:
    return rows - rows.mean(axis=1, keepdims=True)


def _missing_diagonal_pairs(values: np.ndarray, i: int, measure: str):
    """Rows i and j, for each j > i, with positions i and j dropped from
    both, centered for Pearson and scaled as `_scaled` does: row i's
    vectors, their sums of squares, row j's vectors and theirs."""
    n = len(values)
    keep = np.ones((n - 1 - i, n), dtype=bool)
    keep[:, i] = False
    keep[np.arange(n - 1 - i), np.arange(i + 1, n)] = False
    x = np.broadcast_to(values[i], keep.shape)[keep].reshape(-1, n - 2)
    y = values[i + 1:][keep].reshape(-1, n - 2)
    if measure == "pearson":
        x, y = _centered(x), _centered(y)
    return (*_scaled_rows(x), *_scaled_rows(y))
