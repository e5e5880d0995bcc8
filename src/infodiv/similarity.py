"""Pearson r, Salton's cosine, and the log transform, over labeled matrices.

The cosine ignores coordinates that are zero in both vectors; Pearson r
does not, because shared zeros shift both means. That difference is the
whole controversy these measures are compared for, so both are implemented
exactly and zero handling is never silent: undefined cases (constant or
all-zero vectors, NaN or infinite coordinates) raise instead of producing
NaN.

One exact route scores a pair of vectors of width w. With sx = sum(x),
sxx = sum(x^2) and sxy = sum(xy), its numerator and two radicands are
sxy, sxx and syy for cosine, and w*sxy - sx*sy, w*sxx - sx^2 and
w*syy - sy^2 for Pearson; each is formed exactly and rounded to nearest
once, and r is the numerator over sqrt(rx) * sqrt(ry), clipped to [-1, 1]
(+0.0 for a zero numerator). Where the radicands are equal the divisor is
the radicand itself, not the product of its square roots, which can miss
it by an ulp.

The forms are exact because each vector is first scaled by its own power
of two, 2^k with k >= 0 the least that makes every coordinate an integer
(r does not change), and a vector fits if its integers X are at most
`_LIMB_CAP` = 2^64 in magnitude and it has at most 2^22 coordinates, past
which no limb width holds the levels below (`_limb_plan`). Below that
width the cap does not depend on it, so appending zeros never changes a
pair's route.

Both `similarity_matrix` and `pearson`/`cosine` form a fitting pair's
sums from error-free matrix products (Ozaki, Ogita, Oishi & Rump, Numer.
Algorithms 59, 2012): the integers are split into L signed limbs of b
bits, X = sum_a X_a 2^(ab) with |X_a| <= 2^(b-1), where b is the largest
with 2b + 2 log2(w) + 1 <= 53 (for L <= 4; `_limb_plan` gives the rule for
any L) and L the fewest that hold the largest |X|. One float64 matmul of
the stacked limbs gives the products of every limb a of row i with every
limb c of row j (`_limb_pairs` for the matrix's rows, a block at a time;
`_limb_scores` for the two vectors of each pair); a pair's level t
gathers those with a + c = t, of weight 2^(tb). A sum of w products of
two limbs is at most w 2^(2b-2) in magnitude, a level of sxy at most
L w 2^(2b-2), and Pearson's levels of w*sxy and of sx*sy each at most
L w^2 2^(2b-2), so a level of its numerator is at most L w^2 2^(2b-1)
<= 2^53. Every partial sum is an integer in that range, exact in float64
in any order, so no result depends on the BLAS, its kernel or its
threads. Each form's 2L - 1 levels are rounded once by `_exact_sums`; at
L = 1 the one level is the form. Counts up to 2^(b-1) need one limb
(262,144 at w = 80), which multiplies them as they are. Under "missing"
the matrix's diagonal is set to 0, and pair i, j subtracts position j's
terms from row i's sums.

The float fallback takes a pair with a vector that does not fit, such as
one holding both 1e-300 and 1e300: Pearson centers both vectors in float
first, and every sum of squares or products is rounded once, from its
exact value, by `_exact_sums`, a vectorised error-free summation whose
result is certified a posteriori, with `math.fsum` only for the rows the
certificate does not cover.

`pearson` and `cosine` test their pair, and `similarity_matrix` tests each
pair, pair i, j under "missing" without positions i and j. The matrix's
pairs with a row past the cap go through the body that scores one pair, a
chunk of at most `_CHUNK_CELLS` matrix cells at a time (under "missing"
such a pair's vectors may still fit). Every fitting pair's forms are the
same exact integers, each rounded once, so the matrix gives, bit for bit,
what `pearson` or `cosine` give on each pair, and raises for the same first
undefined pair in row-major order, whichever way it was scored.
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
# _exact_sums sums at most this many terms in all by math.fsum alone,
# which is quicker there than its vectorised tree (33 against 65 us for
# one row of 1024; 5.0 against 0.47 ms for one of 100,000).
_FSUM_CELLS = 2 ** 10
# _exact_sums certifies a row only if its sum is at most this in magnitude.
_CERT_MAX = 2.0 ** 1000
# A vector fits the limbs if its scaled integers are at most this in
# magnitude; one past it takes the float fallback. The bound does not
# depend on the width, so appending zeros keeps a pair's route (up to the
# 2^22 coordinates past which `_limb_plan` finds no limbs).
_LIMB_CAP = 2.0 ** 64


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
    `_vector_scores`.

    Exact sums make the result invariant under appending coordinates that
    are zero in both vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_vectors(measure, x.shape, y.shape)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValueError(f"{measure} undefined for a vector with "
                                  "NaN or infinite coordinates")
    r, undefined, overflow = _vector_scores(measure, x[None], y[None],
                                            _sum_space(1, len(x)))
    if undefined[0] or overflow[0]:
        _raise_undefined(measure, overflow=bool(overflow[0]))
    return float(r[0])


def _vector_scores(measure: str, x: np.ndarray, y: np.ndarray, space
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`measure` of each pair k of the rows x[k] and y[k] of two 2-D
    arrays of finite values, and the masks of the undefined pairs and of
    those whose centering leaves the float range (whose scores mean
    nothing). A pair whose two vectors fit the limbs is scored by
    `_limb_scores`, every other one on the float fallback, its sums in
    `space`."""
    pairs, width = x.shape
    rows = np.concatenate([x, y])
    k, top = _scales(rows, _exponents(rows))
    top = np.maximum(top[:pairs], top[pairs:])
    fits = (top <= _LIMB_CAP) & (_limb_plan(width, _LIMB_CAP) is not None)
    r = np.empty(pairs)
    undefined = np.zeros(pairs, dtype=bool)
    overflow = np.zeros(pairs, dtype=bool)
    fit = np.flatnonzero(fits)
    if len(fit):
        both = np.concatenate([fit, pairs + fit])
        scaled = rows if len(fit) == pairs else rows[both]
        if k.any():
            scaled = np.ldexp(scaled, k[both, None])
        r[fit], undefined[fit] = _limb_scores(measure, scaled,
                                              top[fit].max())
    rest = np.flatnonzero(~fits)
    if len(rest):
        xr, sxx = _prepared(measure, x[rest], space)
        yr, syy = _prepared(measure, y[rest], space)
        r[rest], undefined[rest], overflow[rest] = _scores(
            measure, xr, sxx, yr, syy, space)
    return r, undefined, overflow


def _limb_scores(measure: str, rows: np.ndarray, top: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """`measure` of each pair k of the integer-valued rows x[k] and y[k],
    stacked as `rows` = [x, y] and at most `top` in magnitude, and the mask
    of the undefined pairs: the forms of `_limb_pairs`, from the same limbs
    and levels, each pair's from products of its stacked limbs, taken
    `_CHUNK_CELLS` cells of `rows` at a time."""
    pairs, width = len(rows) // 2, rows.shape[1]
    bits, count = _limb_plan(width, top)
    sums = np.zeros((count, 2, pairs))
    gram = np.zeros((pairs, 2 * count, 2 * count))
    step = max(1, _CHUNK_CELLS // len(rows))
    for start in range(0, width, step):
        limbs = _split(rows[:, start:start + step], bits, count).reshape(
            count, 2, pairs, -1)
        sums += limbs.sum(axis=3)
        stack = limbs.transpose(2, 0, 1, 3).reshape(pairs, 2 * count, -1)
        gram += stack @ stack.transpose(0, 2, 1)
    # gram[a, c, s, t] holds, for each pair, the product of limb a of its
    # vector s with limb c of its vector t (s, t = 0 for x, 1 for y); the
    # forms take s, t = 0, 1, then 0, 0, then 1, 1.
    gram = gram.reshape(pairs, count, 2, count, 2).transpose(1, 3, 2, 4, 0)
    s, t = [0, 0, 1], [1, 0, 1]
    # One row of terms per form of each pair, a column per level.
    terms = np.empty((3, pairs, 2 * count - 1))
    _form(measure, width, _levels(gram[:, :, s, t]), sums[:, s], sums[:, t],
          terms.transpose(2, 0, 1))
    space = _sum_space(3 * pairs, 2 * count - 1) if count > 1 else None
    num, rx, ry = _rounded(terms.reshape(-1, 2 * count - 1), bits,
                           space).reshape(3, -1)
    return _ratio(num, rx, ry)


def _ratio(num: np.ndarray, rx: np.ndarray, ry: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """num / `_divisor`(rx, ry) for the rounded exact forms of pairs,
    clipped to [-1, 1] with -0.0 as +0.0, and the mask of the undefined
    pairs, those with a zero radicand."""
    undefined = (rx == 0) | (ry == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / _divisor(rx, ry)
    r = np.clip(r, -1.0, 1.0, out=r)
    r += 0.0
    return r, undefined


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


def _limb_plan(width: int, top: float) -> tuple[int, int] | None:
    """b and L for a Gram of rows of `width` cells whose scaled integers
    are at most `top` in magnitude: the fewest limbs L, each of the largest
    b with 2b + 2 ceil(log2(width)) + max(2, ceil(log2(L))) <= 54, for
    which top <= 2^(Lb - 1). That makes L w^2 2^(2b-1) <= 2^53; for L <= 4
    it is 2b + 2 log2(w) + 1 <= 53. None if no b >= 1 will do: b falls as
    L grows, and for a top of 2^64 that is the case past 2^22 cells."""
    count = 1
    while True:
        bits = (54 - 2 * (width - 1).bit_length()
                - max(2, (count - 1).bit_length())) // 2
        if bits < 1:
            return None
        if top <= 2.0 ** (count * bits - 1):
            return bits, count
        count += 1


def _exponents(rows: np.ndarray) -> np.ndarray | None:
    """For each cell of the 2-D array of finite `rows`, the least k for
    which cell * 2^k is an integer (0 for a zero cell, negative for an
    integer with trailing zero bits); None if every cell is an integer."""
    if (np.floor(rows) == rows).all():
        return None
    mantissa, exponent = np.frexp(rows)
    digits = np.ldexp(mantissa, 53).astype(np.int64)
    lowest = digits & -digits  # the lowest set bit of |digits|
    # cell = digits * 2^(exponent - 53); with lowest = 2^(z - 1), the
    # cell's lowest set bit is 2^(exponent - 54 + z).
    return np.where(lowest != 0, 54 - exponent - np.frexp(lowest)[1], 0)


def _scales(rows: np.ndarray, need: np.ndarray | None
            ) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the 2-D array of finite `rows`, whose
    `_exponents` are `need`: k >= 0, the least for which row * 2^k holds
    only integers, and the largest magnitude there (inf past the float
    range)."""
    top = np.abs(rows).max(axis=1)
    if need is None:
        return np.zeros(len(rows), dtype=np.int64), top
    k = np.maximum(need.max(axis=1), 0)
    with np.errstate(over="ignore"):
        return k, np.ldexp(top, k)


def _split(rows: np.ndarray, bits: int, count: int) -> np.ndarray:
    """The `count` signed limbs of the integer-valued float array `rows`,
    of magnitude at most 2^(`bits` - 1) each, rows = sum_a limbs[a] *
    2^(a * bits): limbs[a] is the rest rounded to a multiple of 2^(a *
    bits), from the top down. Every step is exact: the rest is an integer
    of at most 53 significant bits. One limb is `rows` itself."""
    if count == 1:
        return rows[None]
    limbs = np.empty((count,) + rows.shape)
    rest = rows
    for a in range(count - 1, 0, -1):
        np.rint(rest * 2.0 ** (-a * bits), out=limbs[a])
        rest = rest - limbs[a] * 2.0 ** (a * bits)
    limbs[0] = rest
    return limbs


def _levels(products) -> np.ndarray:
    """The levels of the products of two stacks of L limbs (or limb sums),
    given for each limb a of the one as the array of its products with
    every limb c of the other: level t, for t < 2L - 1, sums those with
    a + c = t."""
    levels = None
    for a, row in enumerate(products):
        if levels is None:
            levels = np.zeros((2 * len(row) - 1,) + row.shape[1:])
        levels[a:a + len(row)] += row
    return levels


def _form(measure: str, width: int, second: np.ndarray, first_x: np.ndarray,
          first_y: np.ndarray, out: np.ndarray) -> None:
    """Write to `out` the levels of cosine's sum(xy), or of Pearson's
    w*sum(xy) - sum(x)*sum(y), from the levels `second` of sum(xy) and the
    limb sums first_x and first_y of sum(x) and sum(y)."""
    if measure == "cosine":
        out[...] = second
    else:
        np.multiply(second, width, out=out)
        out -= _levels(x * first_y for x in first_x)


def _rounded(terms: np.ndarray, bits: int, space) -> np.ndarray:
    """sum_t terms[:, t] * 2^(t * bits) for each row of the 2-D array
    `terms` (which it overwrites), rounded once to nearest by `_exact_sums`
    in `space`; one term is returned as it is."""
    if terms.shape[1] == 1:
        return terms[:, 0]
    terms *= 2.0 ** (bits * np.arange(terms.shape[1]))
    return _exact_sums(terms, space)


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
            syy: np.ndarray, space
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float fallback's `measure` of each pair k of rows x[k] and y[k]
    from `_prepared`, whose sums of squares are sxx[k] and syy[k]:
    sum(xy) / `_divisor`, clipped to [-1, 1], which the rounding of the
    divisor can leave by an ulp; the products are summed in `space`. Also
    the masks of the undefined pairs and of those whose centered values
    left the float range (a sum of squares not finite, even after
    scaling); their scores mean nothing."""
    overflow = ~(np.isfinite(sxx) & np.isfinite(syy))
    undefined = ~overflow & ((sxx == 0) | (syy == 0))
    r = np.zeros(len(x))
    good = np.flatnonzero(~(overflow | undefined))
    if len(good):
        r[good] = _exact_sums(x[good] * y[good], space) / \
            _divisor(sxx[good], syy[good])
    return np.clip(r, -1.0, 1.0, out=r), undefined, overflow


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
    whose absolute terms sum to at most _CERT_MAX. Up to `_FSUM_CELLS`
    terms in all are summed by fsum alone; more take the steps below.

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
    if n_rows * width <= _FSUM_CELLS:
        _fsums(terms, np.arange(n_rows), sums)
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
        _fsums(rows, np.flatnonzero(~certified), c)
    return sums


def _fsums(rows: np.ndarray, picked: np.ndarray, out: np.ndarray) -> None:
    """Write to out[k] the `math.fsum` of rows[k] for each k in `picked`,
    or inf where fsum overflows."""
    for k in picked.tolist():
        try:
            out[k] = math.fsum(rows[k].tolist())
        except OverflowError:  # a partial sum passes the float range
            out[k] = math.inf


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
        fits, stop = _limb_pairs(measure, values, width, missing, vals)
        # The other pairs i < j, in row-major order, up to the first
        # undefined pair of fitting rows: an undefined one among them
        # comes first.
        first, second = np.nonzero(np.triu(~(fits[:, None] & fits), 1))
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


def _rows(values: np.ndarray, start: int, stop: int, missing: bool
          ) -> np.ndarray:
    """Rows start to stop of the square `values`, with their diagonal
    cells set to 0 (in a copy) under `missing`."""
    rows = values[start:stop]
    stop = start + len(rows)
    if missing:
        rows = rows.copy()
        rows[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return rows


def _row_scales(values: np.ndarray, missing: bool):
    """`_scales` of the rows of the square `values` (diagonal zeroed under
    `missing`), k and the largest scaled magnitude, a block of rows at a
    time. Under `missing` also pos and lift: row i without position pos[i]
    needs a scale 2^lift[i] smaller than row i's own (where only that cell
    needs k[i]; lift[i] is 0 elsewhere), without any other position the
    same scale."""
    n = len(values)
    block = max(1, _CHUNK_CELLS // n)
    k, top = np.empty(n, dtype=np.int64), np.empty(n)
    pos, lift = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for a in range(0, n, block):
        rows = _rows(values, a, a + block, missing)
        need = _exponents(rows)
        k[a:a + block], top[a:a + block] = _scales(rows, need)
        if missing and need is not None:
            pos[a:a + block] = need.argmax(axis=1)
            lift[a:a + block] = k[a:a + block] - np.maximum(
                np.partition(need, -2, axis=1)[:, -2], 0)
    return k, top, pos, lift


def _limb_pairs(measure: str, values: np.ndarray, width: int, missing: bool,
                vals: np.ndarray):
    """Score into `vals` every pair of rows of the square `values` of which
    both rows fit the limbs (diagonal zeroed under `missing`), from a Gram
    matrix of the rows' limbs, a block of rows at a time. Return the mask
    of the rows that fit, and the first pair i < j of them, in row-major
    order, that is undefined, or None.

    A row fits if its own scaling, `_scales`, leaves it within the limb
    cap; then so does each of its pair vectors, whose cells are among the
    row's. Under `missing` the diagonal is 0, which no pair's vectors
    hold, and pair i, j subtracts position j's terms from row i's sums
    (sxy is the Gram entry itself). Where j = pos[i] (`_row_scales`), row
    i's scale is 2^lift[i] more than the pair's own vector would take. That
    changes each sum by an exact power of two, which leaves r alone but for
    the test of equal radicands, so x's numerator and radicand are first
    brought to the frame of the pair's own vectors.

    Row blocks are taken from the last, each against the rows from its
    own first on; the limb sums and squares of the later rows are then
    known."""
    n = len(values)
    k, top, pos, lift = _row_scales(values, missing)
    fits = top <= _LIMB_CAP
    if not fits.any():
        return fits, None
    bits, count = _limb_plan(width, top[fits].max())
    # Each level of a block pair's forms takes at most _CHUNK_CELLS cells.
    block = max(1, math.isqrt(_CHUNK_CELLS // (2 * count - 1)))
    starts = range(0, n, block)
    sums, squares = np.empty((count, n)), np.empty((2 * count - 1, n))
    radicands = np.empty(n)
    space = _sum_space(3 * block * block, 2 * count - 1) if count > 1 \
        else None
    scaled = k.any() or not fits.all()

    def limbs(a):
        rows = _rows(values, a, a + block, missing)
        if scaled:
            with np.errstate(over="ignore"):
                rows = np.ldexp(rows, k[a:a + block, None])
            rows[~fits[a:a + block]] = 0.0
        return _split(rows, bits, count)

    def forms(a, x_limbs, c, y_limbs, i, j):
        # The numerator and radicands of the pairs of rows i and j, each
        # rounded once, from the limbs of the blocks from a and from c;
        # the temporaries go when it returns.
        # Limb u of the block's rows against limb v of the other's; on
        # the diagonal block, v against u is the transpose.
        cols = y_limbs.shape[1]
        ij = (i - a) * cols + (j - c)
        ji = (j - c) * cols + (i - a) if c == a else None
        sxy = np.zeros((2 * count - 1, len(i)))
        for u in range(count):
            for v in range(u if c == a else 0, count):
                gram = x_limbs[u] @ y_limbs[v].T
                sxy[u + v] += gram.take(ij)
                if c == a and v > u:
                    sxy[u + v] += gram.take(ji)
        sx, sy = sums.take(i, axis=1), sums.take(j, axis=1)
        # One row of terms per form of each pair, a column per level.
        terms = np.empty((3 if missing else 1, len(i), 2 * count - 1))
        if missing:
            xj = x_limbs.reshape(count, -1).take((i - a) * n + j, axis=1)
            yi = y_limbs.reshape(count, -1).take((j - c) * n + i, axis=1)
            sx -= xj
            sy -= yi
            sxx = squares.take(i, axis=1) - _levels(x * xj for x in xj)
            syy = squares.take(j, axis=1) - _levels(y * yi for y in yi)
            _form(measure, width, sxx, sx, sx, terms[1].T)
            _form(measure, width, syy, sy, sy, terms[2].T)
        _form(measure, width, sxy, sx, sy, terms[0].T)
        rounded = _rounded(terms.reshape(-1, 2 * count - 1), bits,
                           space).reshape(len(terms), -1)
        return rounded if missing else (rounded[0], radicands[i],
                                        radicands[j])

    def score(a, x_limbs, c):
        # Score the pairs of the rows of x_limbs, from a on, with those of
        # the block from c on, and return the first undefined one as
        # i * n + j, or n * n.
        end = a + x_limbs.shape[1]
        if c == a:
            i, j = np.triu_indices(end - a, 1)
        else:
            i, j = np.indices((end - a, min(c + block, n) - c))
            i, j = i.ravel(), j.ravel()
        if not fits.all():
            kept = fits[a + i] & fits[c + j]
            i, j = i[kept], j[kept]
        if not len(i):
            return n * n
        i, j = i + a, j + c
        num, rx, ry = forms(a, x_limbs, c, x_limbs if c == a else limbs(c),
                            i, j)
        if missing:
            shift = np.where(pos[j] == i, lift[j], 0) - \
                np.where(pos[i] == j, lift[i], 0)
            if shift.any():
                # A lift past 64 bits leaves a vector of zeros, whose
                # pair is undefined; the other side may then overflow.
                with np.errstate(over="ignore"):
                    num = np.ldexp(num, shift)
                    rx = np.ldexp(rx, 2 * shift)
        r, undefined = _ratio(num, rx, ry)
        vals[i, j] = vals[j, i] = r
        bad = np.flatnonzero(undefined)
        return int(i[bad[0]]) * n + int(j[bad[0]]) if len(bad) else n * n

    stop = n * n
    for a in reversed(starts):
        x_limbs = limbs(a)
        end = a + x_limbs.shape[1]
        sums[:, a:end] = x_limbs.sum(axis=2)
        squares[:, a:end] = _levels(np.einsum("ik,cik->ci", x, x_limbs)
                                    for x in x_limbs)
        if not missing:
            terms = np.empty((end - a, 2 * count - 1))
            _form(measure, width, squares[:, a:end], sums[:, a:end],
                  sums[:, a:end], terms.T)
            radicands[a:end] = _rounded(terms, bits, space)
        for c in starts[a // block:]:
            stop = min(stop, score(a, x_limbs, c))
    return fits, None if stop == n * n else divmod(stop, n)


def _float_pairs(measure: str, values: np.ndarray, first: np.ndarray,
                 second: np.ndarray, missing: bool, vals: np.ndarray,
                 labels) -> None:
    """Score into `vals` the pairs of rows first[k] < second[k] of
    `values`, given in row-major order, of which a row is past the limb
    cap, a chunk at a time, each by the body that scores pearson(x, y) or
    cosine(x, y). Under include such a pair's vector is that row, and it
    takes the float fallback; under missing its vectors lack positions i
    and j, and may fit."""
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
            r, undefined, overflow = _scores(measure, x, ss[i], y, ss[j],
                                             space)
        else:
            # Pair k compares rows i[k] and j[k], both without positions
            # i[k] and j[k].
            pairs = np.arange(len(i))
            keep = np.ones((len(i), n), dtype=bool)
            keep[pairs, i] = False
            keep[pairs, j] = False
            r, undefined, overflow = _vector_scores(
                measure, values[i][keep].reshape(-1, width),
                values[j][keep].reshape(-1, width), space)
        bad = np.flatnonzero(undefined | overflow)
        if len(bad):
            k = int(bad[0])
            _raise_undefined(measure, _pair_name(labels, i[k], j[k]),
                             overflow=bool(overflow[k]))
        vals[i, j] = vals[j, i] = r
