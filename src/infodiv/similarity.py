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
    return _pair("pearson", x, y)


def cosine(x, y) -> float:
    """Salton's cosine: sum(xy) / sqrt(sum(x^2) * sum(y^2))."""
    return _pair("cosine", x, y)


def _pair(measure: str, x, y) -> float:
    """`measure` of the vectors x and y: sum(xy) / sqrt(sum(x^2) * sum(y^2)),
    of the centered vectors for Pearson, whose result is clipped to
    [-1, 1].

    Exactly-rounded sums make the result invariant under appending
    coordinates that are zero in both vectors; `math.fsum` reads a list of
    Python floats about twice as fast as a numpy array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    min_width = 2 if measure == "pearson" else 1
    if x.shape != y.shape or x.ndim != 1 or len(x) < min_width:
        raise ValueError(f"{measure} needs two equal-length vectors, "
                         f"length >= {min_width}")
    pair = np.stack([x, y])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if measure == "pearson":
            pair = _centered(pair)
            if not np.isfinite(pair).all():
                error, what = _OVERFLOW
                raise error(what)
        (x, y), (sxx, syy) = _scaled_rows(pair)
        if sxx == 0 or syy == 0:
            error, what = _UNDEFINED[measure]
            raise error(what)
        r = math.fsum((x * y).tolist()) / (math.sqrt(sxx) * math.sqrt(syy))
    return min(1.0, max(-1.0, r)) if measure == "pearson" else r


def _scaled_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the fresh 2-D array `rows` (which it may overwrite) and
    their exactly rounded sums of squares. Only a row whose sum lies
    outside [_SQ_LO, _SQ_HI], or overflows, is first scaled by an exact
    power of two, to a largest magnitude in [0.5, 1); the ratio of
    `_pair` does not change under such a scaling."""
    squares = (rows * rows).tolist()
    try:
        ss = list(map(math.fsum, squares))
    except OverflowError:  # some row's squares sum past the float range
        ss = []
        for row in squares:
            try:
                ss.append(math.fsum(row))
            except OverflowError:
                ss.append(math.inf)
    for k, s in enumerate(ss):
        if not _SQ_LO <= s <= _SQ_HI:
            rows[k] = np.ldexp(rows[k],
                               -math.frexp(float(np.max(np.abs(rows[k]))))[1])
            ss[k] = math.fsum((rows[k] * rows[k]).tolist())
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
            # that is not finite, even after scaling.
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
    both, centered for Pearson and scaled by `_scaled_rows`: row i's
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
