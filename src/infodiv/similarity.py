"""Pearson r, Salton's cosine, and the log transform, over labeled matrices.

The cosine ignores coordinates that are zero in both vectors; Pearson r
does not, because shared zeros shift both means. That difference is the
whole controversy these measures are compared for, so both are implemented
exactly and zero handling is never silent: undefined cases (constant or
all-zero vectors, NaN or infinite coordinates) raise instead of producing
NaN.

Every sum of squares or products is rounded once, from its exact value, by
`_exact_sums`: a vectorised error-free summation whose result is certified
a posteriori, with `math.fsum` only for the rows the certificate does not
cover. `pearson` and `cosine` are the one-pair case of the body that
`similarity_matrix` runs on each chunk of at most `_CHUNK_CELLS` matrix
cells, so the matrix gives, bit for bit, what they give on each pair by
construction.
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
from .matrix import LabeledMatrix, _validated

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
# similarity_matrix scores pairs, and _exact_sums sums rows, in chunks of at
# most this many cells (rows times width), so that their temporaries stay
# near 1 MB at any size.
_CHUNK_CELLS = 2 ** 14
# _exact_sums certifies a row only if its sum is at most this in magnitude.
_CERT_MAX = 2.0 ** 1000


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarity over the rows of a square matrix."""

    labels: tuple[str, ...]
    values: np.ndarray


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors."""
    return _pair("pearson", x, y)


def cosine(x, y) -> float:
    """Salton's cosine: sum(xy) / sqrt(sum(x^2) * sum(y^2))."""
    return _pair("cosine", x, y)


def _pair(measure: str, x, y) -> float:
    """`measure` of the vectors x and y: the one-pair case of `_scores`.

    Exactly rounded sums make the result invariant under appending
    coordinates that are zero in both vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_vectors(measure, x.shape, y.shape)
    pair = np.stack([x, y])
    if not np.isfinite(pair).all():
        raise NonFiniteValueError(f"{measure} undefined for a vector with "
                                  "NaN or infinite coordinates")
    space = _sum_space(2, len(x))
    rows, ss = _prepared(measure, pair, space)
    return float(_scores(measure, rows[:1], ss[:1], rows[1:], ss[1:],
                         space)[0])


def _check_vectors(measure: str, x_shape: tuple, y_shape: tuple) -> None:
    """Raise unless `measure` can compare vectors of these shapes."""
    min_width = 2 if measure == "pearson" else 1
    if x_shape != y_shape or len(x_shape) != 1 or x_shape[0] < min_width:
        raise InvalidInputError(f"{measure} needs two equal-length vectors, "
                                f"length >= {min_width}")


def _prepared(measure: str, rows: np.ndarray, space
              ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the fresh 2-D array `rows`, centered in place for
    Pearson, as `_scaled_rows` returns them with their sums of squares
    (summed in `space`, as by `_exact_sums`)."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if measure == "pearson":
            rows -= rows.mean(axis=1, keepdims=True)
        return _scaled_rows(rows, space)


def _scores(measure: str, x: np.ndarray, sxx: np.ndarray, y: np.ndarray,
            syy: np.ndarray, space, name=None) -> np.ndarray:
    """`measure` of each pair k of rows x[k] and y[k] from `_prepared`,
    whose sums of squares are sxx[k] and syy[k]: sum(xy) / (sqrt(sxx) *
    sqrt(syy)), clipped to [-1, 1], which the rounding of the divisor can
    leave by an ulp (equal rows can score 1.0000000000000002). The square
    roots are taken one at a time because sums of squares up to _SQ_HI =
    2^960 are kept, and the product of two would overflow. The products
    overwrite x, and are summed in `space`. The first undefined pair
    raises, its message followed by name(k) when `name` is given."""
    # Centered values past the float range leave a sum of squares that is
    # not finite, even after scaling.
    finite = np.isfinite(sxx) & np.isfinite(syy)
    bad = np.flatnonzero(~finite | (sxx == 0) | (syy == 0))
    if len(bad):
        k = int(bad[0])
        error, what = _UNDEFINED[measure] if finite[k] else _OVERFLOW
        raise error(what if name is None else f"{what} {name(k)}")
    r = _exact_sums(np.multiply(x, y, out=x), space) / \
        (np.sqrt(sxx) * np.sqrt(syy))
    return np.clip(r, -1.0, 1.0)


def _scaled_rows(rows: np.ndarray, space) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the fresh 2-D array `rows` (which it may overwrite) and
    their exactly rounded sums of squares. Only a row whose sum lies
    outside [_SQ_LO, _SQ_HI], or overflows, is first scaled by an exact
    power of two, to a largest magnitude in [0.5, 1); the ratio of
    `_scores` does not change under such a scaling."""
    ss = _exact_sums(rows * rows, space)
    out = np.flatnonzero(~((ss >= _SQ_LO) & (ss <= _SQ_HI)))
    if len(out):
        _, exponent = np.frexp(np.max(np.abs(rows[out]), axis=1))
        scaled = np.ldexp(rows[out], -exponent[:, None])
        rows[out] = scaled
        ss[out] = _exact_sums(scaled * scaled, space)
    return rows, ss


def _exact_sums(terms: np.ndarray, space) -> np.ndarray:
    """The sum of each row of the 2-D float array `terms`, rounded once to
    nearest: what `math.fsum` returns for the row, or inf where fsum
    overflows. Rows of non-negative terms are covered, and so is any row
    whose absolute terms sum to at most _CERT_MAX.

    Reduce: the columns are added in a pairwise tree, each addition by
    Knuth's TwoSum, s + e = a + b exactly. TwoSum is exact for any finite
    operands, subnormal ones included (a sum of floats that lands in the
    subnormal range is exact), as long as nothing overflows. So the row
    sum S is exactly hi + sum(E), with hi the tree's root and E the w - 1
    rounding errors of a row of width w.
    Bound: lo = fl(sum(E)) is summed by numpy in an order we do not rely
    on: in any order, |lo - sum(E)| <= g * sum(|E|) with g = (w-2)u/(1 -
    (w-2)u), u = 2^-53 (Higham, Accuracy and Stability, eq. 4.4), and the
    same bound makes fl(sum(|E|)) at least (1 - g) * sum(|E|). So
    4wu * fl(sum(|E|)) is at least twice |lo - sum(E)|, the factor of two
    absorbing the rounding of that product, and the added smallest
    subnormal covers the product underflowing: bound = 4wu * fl(sum(|E|))
    + 2^-1074.
    Round: c = fl(hi + lo), and TwoSum gives d with hi + lo = c + d
    exactly, so |S - c| <= |d| + bound.
    Certify: c is S rounded to nearest if S lies strictly inside c's
    rounding interval, which reaches half the gap to the next float on
    either side. Below a power of two that gap is half the one above, so
    the test takes the smaller of the two gaps, and (|d| + bound) is
    scaled by 2(1 + 2^-50) to cover its own two roundings. The inequality
    is strict: S is never at a tie, so the round-half-even rule, as fsum
    applies it, cannot pick the other neighbour.
    Fall back: a row whose c is zero (fsum's sign of a zero sum follows
    its own rule), near a tie, above _CERT_MAX, inf or NaN (an overflow
    anywhere in the tree or in TwoSum reaches c or the bound) goes to
    `math.fsum`, with inf for its OverflowError.
    Overflow: fsum raises where a partial sum it forms leaves the float
    range, and it forms no value much above the sum of the absolute terms
    it has read. Squares are non-negative, so for them that sum is S
    itself, at most (1 + 2^-50) * _CERT_MAX when c is certified; for the
    products of two rows scaled by `_scaled_rows` it is at most
    sqrt(sxx * syy) <= 2^960 by Cauchy-Schwarz. Neither fsum nor the tree
    then comes near overflow where a certified c is returned.

    The rows are summed a block at a time, in the working arrays `space`
    that `_sum_space` made for at least this many terms per row.
    """
    terms = np.asarray(terms, dtype=float)
    n_rows, width = terms.shape
    sums = np.zeros(n_rows)
    if width == 0:
        return sums
    level_cells, spare_cells, err_cells = space
    block = max(1, min(n_rows, len(level_cells) // width))
    for start in range(0, n_rows, block):
        rows = terms[start:start + block]
        r = len(rows)
        # One row per term, so that every level adds contiguous blocks.
        hi = level_cells[:width * r].reshape(width, r)
        spare = spare_cells[:width * r].reshape(width, r)
        np.copyto(hi, rows.T)
        errors = err_cells[:max(width - 1, 1) * r].reshape(-1, r)
        errors[0] = 0.0
        done = 0
        w = width
        with np.errstate(over="ignore", invalid="ignore"):
            while w > 1:
                # Term k + j is added to term j; an odd middle term is
                # carried to the next level as it is. Levels alternate
                # between the two arrays, the spare one also holding
                # TwoSum's scratch rows.
                k = w // 2
                a, b = hi[:k], hi[w - k:w]
                nxt, scratch = spare[:w - k], spare[w - k:w]
                np.add(a, b, out=nxt[:k])
                if w % 2:
                    nxt[k] = hi[k]
                _two_sum_error(a, b, nxt[:k], errors[done:done + k], scratch)
                done += k
                w -= k
                hi, spare = spare, hi
            hi = hi[0]
            lo = errors.sum(axis=0)
            bound = np.abs(errors, out=errors).sum(axis=0)
            bound *= 4.0 * width * 2.0 ** -53
            bound += 2.0 ** -1074
            c = sums[start:start + r]
            np.add(hi, lo, out=c)
            d = np.empty_like(c)
            _two_sum_error(hi, lo, c, d, np.empty_like(c))
            size = np.abs(c)
            gap = np.minimum(size - np.nextafter(size, 0.0),
                             np.nextafter(size, np.inf) - size)
            np.abs(d, out=d)
            d += bound
            d *= 2.0 + 2.0 ** -49
            certified = (d < gap) & (size <= _CERT_MAX)
        for k in np.flatnonzero(~certified).tolist():
            try:
                c[k] = math.fsum(rows[k].tolist())
            except OverflowError:  # a partial sum passes the float range
                c[k] = math.inf
    return sums


def _sum_space(rows: int, width: int) -> tuple[np.ndarray, ...]:
    """Working arrays in which `_exact_sums` sums up to `rows` rows of at
    most `width` terms, in blocks of at most `_CHUNK_CELLS` cells (or one
    row); a caller that sums many blocks passes the same ones each time,
    and so allocates them once."""
    cells = width * max(1, min(rows, _CHUNK_CELLS // max(width, 1)))
    return np.empty(cells), np.empty(cells), np.empty(cells)


def _two_sum_error(a, b, s, out, t) -> None:
    """Write to `out` the error of s = fl(a + b): a + b == s + out exactly
    (Knuth's TwoSum), for finite a, b and s; `t` is scratch space of the
    same shape."""
    bb = np.subtract(s, a, out=out)
    np.subtract(s, bb, out=t)
    np.subtract(a, t, out=t)
    np.subtract(b, bb, out=bb)
    np.add(t, bb, out=out)


def log_transform(matrix: LabeledMatrix) -> LabeledMatrix:
    """Cell-wise x -> log2(1 + x): monotone, zero-preserving and positive on
    every positive cell, so it accepts every matrix `build_matrix` does. A
    cell in (0, 1) takes log1p(x) / ln 2, as 1 + x rounds one below 2^-53
    to 1."""
    x = matrix.values
    out = np.log2(1.0 + x)
    small = (x > 0.0) & (x < 1.0)
    out[small] = np.log1p(x[small]) / np.log(2.0)
    return _validated(matrix.row_labels, matrix.col_labels, out)


def similarity_matrix(matrix: LabeledMatrix, measure: str = "pearson",
                      diagonal_mode: str = "include") -> SimilarityMatrix:
    """Pairwise similarity of the rows of a square labeled matrix; pass
    `log_transform(matrix)` to compare the log-transformed rows.

    diagonal_mode "missing" drops positions i and j from both row vectors
    before comparing rows i and j (the usual handling of self-cocitation
    cells); "include" treats the diagonal as ordinary data.
    """
    if measure not in ("pearson", "cosine"):
        raise InvalidInputError(f"unknown measure: {measure!r}")
    if diagonal_mode not in ("include", "missing"):
        raise InvalidInputError(f"unknown diagonal_mode: {diagonal_mode!r}")
    if matrix.row_labels != matrix.col_labels:
        raise InvalidInputError("similarity needs a square matrix with "
                                "matching row and column labels")

    n = matrix.n_rows
    labels, values = matrix.row_labels, matrix.values
    width = n if diagonal_mode == "include" else n - 2
    if n > 1:
        _check_vectors(measure, (width,), (width,))
    # All pairs i < j in row-major order, a chunk at a time, each scored by
    # the body that scores pearson(x, y) or cosine(x, y).
    vals = np.eye(n)
    first, second = np.triu_indices(n, 1)
    chunk = max(1, _CHUNK_CELLS // n)
    # Every chunk is summed, and for include gathered, in the same working
    # arrays, allocated once: a fresh set per chunk made the heap top grow
    # and shrink, with a page fault for each page it grew by.
    space = _sum_space(chunk, n)
    if diagonal_mode == "include":  # the vectors do not depend on the pair
        rows, ss = _prepared(measure, values.copy(), space)
        x_rows, y_rows = np.empty((chunk, n)), np.empty((chunk, n))
    for start in range(0, len(first), chunk):
        i, j = first[start:start + chunk], second[start:start + chunk]
        if diagonal_mode == "include":
            # take's default mode writes `out` through a temporary; the
            # indices are in range, so "clip" changes nothing else.
            x = np.take(rows, i, axis=0, out=x_rows[:len(i)], mode="clip")
            y = np.take(rows, j, axis=0, out=y_rows[:len(j)], mode="clip")
            sxx, syy = ss[i], ss[j]
        else:
            # Pair k compares rows i[k] and j[k], both without positions
            # i[k] and j[k].
            pairs = np.arange(len(i))
            keep = np.ones((len(i), n), dtype=bool)
            keep[pairs, i] = False
            keep[pairs, j] = False
            x, sxx = _prepared(measure, values[i][keep].reshape(-1, width),
                               space)
            y, syy = _prepared(measure, values[j][keep].reshape(-1, width),
                               space)
        vals[i, j] = vals[j, i] = _scores(
            measure, x, sxx, y, syy, space,
            lambda k: f"(pair {labels[i[k]]!r}, {labels[j[k]]!r})")
    vals.setflags(write=False)
    return SimilarityMatrix(labels=labels, values=vals)
