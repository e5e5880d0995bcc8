"""Pearson r, Salton's cosine, and the log transform, over labeled matrices.

The cosine ignores coordinates that are zero in both vectors; Pearson r
does not, because shared zeros shift both means. That difference is the
whole controversy these measures are compared for, so both are implemented
exactly and zero handling is never silent: undefined cases (constant or
all-zero vectors, NaN or infinite coordinates) raise instead of producing
NaN.

A pair of vectors of width w is scored by one of two routes, chosen by the
two vectors alone:

- the integer route, when every coordinate is an integer and each vector's
  absolute coordinates sum to at most isqrt(2^62 // w). With sx = sum(x),
  sxx = sum(x^2) and sxy = sum(xy), w*sxx, w*sxy, sx^2 and sx*sy are then
  at most 2^62 in magnitude, and Pearson's numerator at most 1.5 * 2^62,
  so every sum and form below is an exact int64 value. Cosine is
  sxy / (sqrt(sxx) * sqrt(syy)) and Pearson (w*sxy - sx*sy) /
  (sqrt(w*sxx - sx^2) * sqrt(w*syy - sy^2)), each numerator and radicand
  an exact integer converted to float once;
- the float route, for every other pair: Pearson centers both vectors in
  float first, and every sum of squares or products is rounded once, from
  its exact value, by `_exact_sums`, a vectorised error-free summation
  whose result is certified a posteriori, with `math.fsum` only for the
  rows the certificate does not cover.

On both routes the divisor of two equal radicands is the radicand itself,
not the product of its square roots, which can miss it by an ulp.

Where the float route's products are exact (each |x_k * y_k| and x_k^2
at most 2^53), both routes divide the same correctly rounded sums, so
their cosines are equal (the integer route writes +0.0 for -0.0). Pearson
can differ in the last bits: the integer route does not center in float.

`pearson` and `cosine` test their pair, and `similarity_matrix` tests each
pair, pair i, j under "missing" without positions i and j. The matrix
scores its integer pairs from an int64 Gram matrix of its rows, a block of
rows at a time, and the others through the body that scores one float
pair, a chunk of at most `_CHUNK_CELLS` matrix cells at a time. So the
matrix gives, bit for bit, what `pearson` or `cosine` give on each pair,
and raises for the same first undefined pair in row-major order, whichever
route scored it.
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
# A vector of width w takes the integer route only if it is integral and its
# absolute coordinates sum to at most isqrt(_INT_RANGE // w).
_INT_RANGE = 2 ** 62


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
    """`measure` of the vectors x and y: the one-pair case of
    `_integer_scores` or of `_scores`, as the module docstring's test picks.

    Exact sums make the result invariant under appending coordinates that
    are zero in both vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_vectors(measure, x.shape, y.shape)
    pair = np.stack([x, y])
    if not np.isfinite(pair).all():
        raise NonFiniteValueError(f"{measure} undefined for a vector with "
                                  "NaN or infinite coordinates")
    width = len(x)
    kept, bound = _integer_cells(pair, width)
    # Kept cells are integers of at most 2^31 / sqrt(w), summed exactly.
    if kept.all() and (np.abs(pair).sum(axis=1) <= bound).all():
        ints = pair.astype(np.int64)
        gram = ints @ ints.T
        sums = ints.sum(axis=1)
        r, undefined = _integer_scores(measure, width, gram[:1, 1],
                                       gram[:1, 0], gram[1:, 1], sums[:1],
                                       sums[1:])
        if undefined[0]:
            _raise_undefined(measure)
        return float(r[0])
    space = _sum_space(2, width)
    rows, ss = _prepared(measure, pair, space)
    return float(_scores(measure, rows[:1], ss[:1], rows[1:], ss[1:],
                         space)[0])


def _integer_cells(rows: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """The mask of the cells of the float array `rows` that are integers of
    magnitude at most `bound` = isqrt(_INT_RANGE // width), and `bound`. A
    vector of `width` cells takes the integer route if every cell is in the
    mask and the cells' magnitudes sum to at most `bound` (a cell past
    `bound` would take the sum past it on its own)."""
    bound = math.isqrt(_INT_RANGE // width)
    kept = np.floor(rows) == rows
    kept &= np.abs(rows) <= bound
    return kept, bound


def _integer_scores(measure: str, width: int, sxy: np.ndarray,
                    sxx: np.ndarray, syy: np.ndarray, sx: np.ndarray,
                    sy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`measure` of the pairs of integer vectors of `width` with the int64
    sums sxy, sxx, syy, sx and sy (arrays that broadcast together), clipped
    to [-1, 1], and the mask of the undefined pairs. Under the integer
    route's test every value formed here is exact; where a pair fails the
    test its sums may have wrapped around, and its score means nothing."""
    if measure == "pearson":
        sxy = width * sxy - sx * sy
        sxx = width * sxx - sx * sx
        syy = width * syy - sy * sy
    undefined = (sxx == 0) | (syy == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sxy.astype(float)
        r /= _divisor(sxx.astype(float), syy.astype(float))
    return np.clip(r, -1.0, 1.0, out=r), undefined


def _divisor(sxx: np.ndarray, syy: np.ndarray) -> np.ndarray:
    """sqrt(sxx * syy) as sqrt(sxx) * sqrt(syy), or sxx itself where the
    two radicands are equal: sqrt(6) * sqrt(6) rounds to 5.999999999999999.
    The square roots are taken one at a time because sums of squares up to
    _SQ_HI = 2^960 are kept, and the product of two would overflow."""
    return np.where(sxx == syy, sxx, np.sqrt(sxx) * np.sqrt(syy))


def _raise_undefined(measure: str, where: str | None = None,
                     overflow: bool = False):
    """Raise what `measure` raises for an undefined pair, its message
    followed by `where` when given."""
    error, what = _OVERFLOW if overflow else _UNDEFINED[measure]
    raise error(what if where is None else f"{what} {where}")


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
    whose sums of squares are sxx[k] and syy[k]: sum(xy) / `_divisor`,
    clipped to [-1, 1], which the rounding of the divisor can leave by an
    ulp. The products overwrite x, and are summed in `space`. The first
    undefined pair raises, its message followed by name(k) when `name` is
    given."""
    # Centered values past the float range leave a sum of squares that is
    # not finite, even after scaling.
    finite = np.isfinite(sxx) & np.isfinite(syy)
    bad = np.flatnonzero(~finite | (sxx == 0) | (syy == 0))
    if len(bad):
        k = int(bad[0])
        _raise_undefined(measure, None if name is None else name(k),
                         overflow=not finite[k])
    r = _exact_sums(np.multiply(x, y, out=x), space) / _divisor(sxx, syy)
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
    missing = diagonal_mode == "missing"
    width = n - 2 if missing else n
    vals = np.eye(n)
    if n > 1:
        _check_vectors(measure, (width,), (width,))
        fits, stop = _integer_pairs(measure, values, width, missing, vals)
        # The other pairs i < j, in row-major order, up to the first
        # undefined integer pair: an undefined one among them comes first.
        first, second = np.triu_indices(n, 1) if fits is None \
            else np.nonzero(np.triu(~fits, 1))
        if stop is not None:
            before = first * n + second < stop[0] * n + stop[1]
            first, second = first[before], second[before]
        if len(first):
            _float_pairs(measure, values, first, second, missing, vals,
                         labels)
        if stop is not None:
            _raise_undefined(measure, _pair_name(labels, *stop))
    vals.setflags(write=False)
    return SimilarityMatrix(labels=labels, values=vals)


def _pair_name(labels, i, j) -> str:
    return f"(pair {labels[i]!r}, {labels[j]!r})"


def _integer_pairs(measure: str, values: np.ndarray, width: int,
                   missing: bool, vals: np.ndarray):
    """Score into `vals` every pair of rows of the square non-negative
    `values` that takes the integer route, from an int64 Gram matrix of the
    rows, a block of rows at a time. Return the symmetric mask of those
    pairs (None if there are none), and the first of them i < j, in
    row-major order, that is undefined, or None; that pair and the ones
    after it are not scored.

    Under `missing` the diagonal is set to 0, which no pair's vectors hold,
    and pair i, j subtracts positions i and j from each sum (one of the
    two is then 0): sxy is the Gram entry itself, and sxx and sx lose
    x_j^2 and x_j. The sums of all n cells may wrap around in int64, but a
    pair's own sums are exact wherever the pair passes the test."""
    n = len(values)
    kept, bound = _integer_cells(values, width)
    lost = n - np.count_nonzero(kept, axis=1)  # cells not kept, per row
    if missing:
        lost -= ~kept.diagonal()
    if (lost > missing).all():  # no row fits, as on most --log input
        return None, None
    ints = np.zeros((n, n), dtype=np.int64)
    np.copyto(ints, values, casting="unsafe", where=kept)
    if missing:
        np.fill_diagonal(ints, 0)
    size = ints.sum(axis=1)  # the cells are non-negative
    if missing:
        # Row i without position j fits if it lost no cell but that one
        # and its other cells sum to at most `bound`.
        fits = (lost == 0)[:, None] | ((lost == 1)[:, None] & ~kept)
        fits &= ints >= (size - bound)[:, None]
        fits &= fits.T
    else:
        row_fits = (lost == 0) & (size <= bound)
        fits = row_fits[:, None] & row_fits
    squares = np.einsum("ij,ij->i", ints, ints)
    block = max(1, _CHUNK_CELLS // n)
    for a in range(0, n - 1, block):
        # Rows i in [a, b) against rows j in [a, n), of which the pairs
        # i < j are kept.
        b = min(a + block, n - 1)
        scored = np.triu(fits[a:b, a:], 1)
        if not scored.any():
            continue
        sxy = ints[a:b] @ ints[a:].T
        if missing:
            xj, yi = ints[a:b, a:], ints[a:, a:b].T
            r, undefined = _integer_scores(
                measure, width, sxy, squares[a:b, None] - xj * xj,
                squares[a:] - yi * yi, size[a:b, None] - xj, size[a:] - yi)
        else:
            r, undefined = _integer_scores(
                measure, width, sxy, squares[a:b, None], squares[a:],
                size[a:b, None], size[a:])
        undefined &= scored
        if undefined.any():
            i, j = np.unravel_index(np.argmax(undefined), undefined.shape)
            return fits, (a + int(i), a + int(j))
        np.copyto(vals[a:b, a:], r, where=scored)
        np.copyto(vals.T[a:b, a:], r, where=scored)
    return fits, None


def _float_pairs(measure: str, values: np.ndarray, first: np.ndarray,
                 second: np.ndarray, missing: bool, vals: np.ndarray,
                 labels) -> None:
    """Score into `vals` the pairs of rows first[k] < second[k] of
    `values`, given in row-major order, a chunk at a time, each by the
    body that scores pearson(x, y) or cosine(x, y) on the float route."""
    n = len(values)
    width = n - 2 if missing else n
    chunk = max(1, min(len(first), _CHUNK_CELLS // n))
    # Every chunk is summed, and for include gathered, in the same working
    # arrays, allocated once: a fresh set per chunk made the heap top grow
    # and shrink, with a page fault for each page it grew by.
    space = _sum_space(chunk, n)
    if not missing:  # the vectors do not depend on the pair
        rows, ss = _prepared(measure, values.copy(), space)
        x_rows, y_rows = np.empty((chunk, n)), np.empty((chunk, n))
    for start in range(0, len(first), chunk):
        i, j = first[start:start + chunk], second[start:start + chunk]
        if not missing:
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
            lambda k: _pair_name(labels, i[k], j[k]))
