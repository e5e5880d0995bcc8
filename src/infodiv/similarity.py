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

from .errors import UndefinedCorrelation, UndefinedCosine
from .matrix import LabeledMatrix, build_matrix

TOL = 1e-12
# A sum of squares in this range has lost no small terms to underflow and
# has not overflowed; products of two such vectors cannot overflow either.
_SQ_LO, _SQ_HI = 2.0 ** -960, 2.0 ** 960


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
    r = _cosine(x - x.mean(), y - y.mean())
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
        raise ValueError("similarity needs a square matrix with matching "
                         "row and column labels")

    if transform == "log1p":
        matrix = log_transform(matrix)
    fn = pearson if measure == "pearson" else cosine
    n = matrix.n_rows
    vals = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = matrix.values[i], matrix.values[j]
            if diagonal_mode == "missing":
                keep = np.ones(n, dtype=bool)
                keep[[i, j]] = False
                x, y = x[keep], y[keep]
            try:
                vals[i, j] = vals[j, i] = fn(x, y)
            except (UndefinedCorrelation, UndefinedCosine) as exc:
                raise type(exc)(
                    f"{exc} (pair {matrix.row_labels[i]!r}, "
                    f"{matrix.row_labels[j]!r})") from exc
    vals.setflags(write=False)
    return SimilarityMatrix(labels=matrix.row_labels, values=vals,
                            measure=measure, diagonal_mode=diagonal_mode,
                            transform=transform)
