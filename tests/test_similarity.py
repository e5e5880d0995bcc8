import decimal
import fractions
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cocitation_matrix,
    examples,
    reference_integer_forms,
    reference_integer_pair,
    reference_pair,
    reference_similarity_matrix,
)
from infodiv import (
    InfodivError,
    InvalidInputError,
    NonFiniteValueError,
    UndefinedCorrelation,
    UndefinedCosine,
    build_matrix,
    cosine,
    log_transform,
    pearson,
    similarity_csv,
    similarity_matrix,
    write_csv,
)
from infodiv import similarity
from infodiv.similarity import _exact_sums, _sum_space


def test_pearson_basics():
    assert pearson([1, 5, 3], [1, 5, 3]) == pytest.approx(1.0)
    assert pearson([1, 2], [2, 1]) == pytest.approx(-1.0)
    assert pearson([1, 2, 0], [2, 1, 0]) == pytest.approx(0.5)


def test_pearson_constant_vector_is_an_error():
    with pytest.raises(UndefinedCorrelation, match=re.escape(
            "correlation undefined for a constant vector")):
        pearson([3, 3, 3], [1, 2, 3])


def test_cosine_basics():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 1], [2, 2]) == pytest.approx(1.0)
    assert cosine([1, 2], [2, 1]) == pytest.approx(0.8)
    assert cosine([1, 2, 0], [2, 1, 0]) == pytest.approx(0.8)


def test_cosine_zero_vector_is_an_error():
    with pytest.raises(UndefinedCosine, match=re.escape(
            "cosine undefined for an all-zero vector")):
        cosine([0, 0], [1, 2])


@pytest.mark.parametrize("measure, x, y", [
    (pearson, [1], [2]), (pearson, [1, 2], [1, 2, 3]),
    (pearson, [[1, 2]], [[1, 2]]),
    (cosine, [], []), (cosine, [1, 2], [1, 2, 3]),
    (cosine, [[1, 2]], [[1, 2]]),
], ids=["pearson-short", "pearson-unequal", "pearson-not-1d",
        "cosine-empty", "cosine-unequal", "cosine-not-1d"])
def test_vector_shapes_are_checked(measure, x, y):
    length = 2 if measure is pearson else 1
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{measure.__name__} needs two equal-length vectors, "
            f"length >= {length}")):
        measure(x, y)


def test_scaling_one_vector_leaves_the_other():
    # x's squares sum past the float range, and y's integers pass the limb
    # cap. The forms are exact, so y's 2**-604 is not lost beside its
    # 2**470: the cosine, 2**-0.5 times the smallest subnormal, rounds to
    # it.
    x, y = [0.0, 1.2e154, 1.2e154], [2.0 ** 470, 2.0 ** -604, 0.0]
    assert cosine(x, y) == cosine(y, x) == 2.0 ** -1074


def test_zero_sensitivity_witness():
    # Shared zeros move Pearson but not the cosine.
    assert pearson([1, 2], [2, 1]) == pytest.approx(-1.0)
    assert pearson([1, 2, 0], [2, 1, 0]) == pytest.approx(0.5)
    assert cosine([1, 2], [2, 1]) == cosine([1, 2, 0], [2, 1, 0]) == \
        pytest.approx(0.8)


vec = st.lists(st.floats(0.0, 50.0), min_size=2, max_size=8)


@given(vec, vec, st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_cosine_zero_padding_invariance(x, y, k):
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    if (x * x).sum() == 0 or (y * y).sum() == 0:
        return
    padded_x = np.concatenate([x, np.zeros(k)])
    padded_y = np.concatenate([y, np.zeros(k)])
    assert cosine(padded_x, padded_y) == cosine(x, y)


@given(vec, vec)
@settings(max_examples=300, deadline=None)
def test_pearson_is_cosine_of_centered(x, y):
    # Pearson r is exact, so the vectors are centered exactly, in
    # fractions, and each centered value is rounded once.
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    dx, dy = ([float(fractions.Fraction(v) - sum(map(fractions.Fraction, u))
                     / n) for v in u] for u in (x, y))
    if not any(dx) or not any(dy):
        return
    assert pearson(x, y) == pytest.approx(cosine(dx, dy), abs=1e-12)


@given(vec, vec, st.floats(0.1, 10.0))
@example([0.0, 1.88e-162], [0.0, 1.0], 2.0)
@settings(max_examples=200, deadline=None)
def test_symmetry_and_scale_invariance(x, y, c):
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    if (x * x).sum() == 0 or (y * y).sum() == 0 or \
            ((c * x) ** 2).sum() == 0:
        return
    assert cosine(x, y) == cosine(y, x)
    assert cosine(c * x, y) == pytest.approx(cosine(x, y), abs=1e-12)
    # Pearson is undefined exactly where a vector is constant, also where
    # a float centering leaves a residue.
    if len(set(x.tolist())) > 1 and len(set(y.tolist())) > 1:
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


def test_tiny_and_huge_vectors_do_not_underflow_or_overflow():
    assert cosine([0, 1.88e-162], [0, 1]) == 1.0
    assert cosine([1e200, 1e200], [1, 1]) == pytest.approx(1.0, abs=1e-15)
    assert cosine([1e154, 1e154], [1, 0]) == pytest.approx(2 ** -0.5)
    assert pearson([1e-162, 3e-162, 2e-162], [1, 3, 2]) == \
        pytest.approx(1.0, abs=1e-15)
    assert pearson([1e200, -1e200, 0], [1, -1, 0]) == \
        pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("x", [[1e308] * 4, [-1.7e308, 1.7e308, 1.7e308]],
                         ids=["mean", "centered"])
def test_pearson_where_float_centering_overflows(x):
    # A float mean of the first x, or the centered values of the second,
    # would leave the float range; the exact forms do not. The first is
    # constant, so its Pearson r is undefined; the second's is that of
    # sign(x).
    y = list(range(len(x)))
    for args in [(x, y), (y, x)]:
        assert _outcome(pearson, *args) == _outcome(reference_pair,
                                                    "pearson", *args)
    if len(set(x)) == 1:
        with pytest.raises(UndefinedCorrelation, match=re.escape(
                "correlation undefined for a constant vector")):
            pearson(x, y)
    else:
        assert pearson(x, y) == pytest.approx(pearson(np.sign(x), y),
                                              abs=1e-15)
    assert cosine(x, y) == pytest.approx(cosine(np.sign(x), y), abs=1e-15)


def test_log_transform_values():
    m = build_matrix(["a"], ["x", "y", "z"], [[0, 1, 3]])
    t = log_transform(m)
    assert t.values.tolist() == [[0.0, 1.0, 2.0]]
    # Below 1, log1p keeps the cells that 1 + x would round away.
    small = [1e-20, 1e-10, 0.5, math.nextafter(1.0, 0.0)]
    t = log_transform(build_matrix(["a"], list("wxyz"), [small]))
    assert [v.hex() for v in t.values[0].tolist()] == \
        [(math.log1p(x) / math.log(2)).hex() for x in small]


# Cells for the log transform: integers, reals, the floats around 1.0 and
# around powers of two, and subnormals.
_log_cells = st.one_of(
    st.integers(0, 2 ** 53).map(float),
    st.floats(0.0, 2.0 ** 60),
    st.integers(-64, 64).map(lambda k: 1.0 + k * 2.0 ** -53),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 60)),
    st.integers(1, 2 ** 52).map(lambda k: k * 2.0 ** -1074))


@given(st.lists(_log_cells, min_size=1, max_size=40))
@settings(max_examples=examples(300), deadline=None)
def test_log_transform_is_monotone_and_keeps_integer_bits(cells):
    x = np.array(sorted([*cells, 1.0]))
    got = log_transform(build_matrix(["a"], [f"c{j}" for j in range(len(x))],
                                     [x])).values[0]
    assert np.all(got[1:] >= got[:-1])
    assert np.array_equal(got > 0, x > 0)
    whole = x == np.floor(x)
    assert got[whole].tobytes() == np.log2(1.0 + x[whole]).tobytes()


def test_log_transform_does_not_move_pearson_base():
    # Pearson is affine-invariant, so the log base cannot matter.
    x = np.array([0, 1, 3, 7, 2.0])
    y = np.array([2, 0, 5, 1, 9.0])
    r2 = pearson(np.log2(1 + x), np.log2(1 + y))
    rn = pearson(np.log(1 + x), np.log(1 + y))
    assert r2 == pytest.approx(rn, abs=1e-12)


def square():
    vals = [[5, 2, 0], [2, 7, 1], [0, 1, 4]]
    return build_matrix(list("abc"), list("abc"), vals)


def test_similarity_matrix_cosine_identity_like():
    m = build_matrix(["a", "b"], ["a", "b"], [[2, 0], [0, 2]])
    sim = similarity_matrix(m, measure="cosine")
    assert sim.values[0, 1] == 0.0
    assert sim.values[0, 0] == sim.values[1, 1] == 1.0


@pytest.mark.parametrize("measure", ["pearson", "cosine"])
def test_equal_rows_are_written_as_exactly_one(measure):
    # Rows a and b are equal. Their radicands are equal, so the divisor is
    # the radicand itself: sqrt(sxx) * sqrt(syy) rounded, and cosine gave
    # 1.0000000000000002 and Pearson 0.9999999999999998 before the clip to
    # [-1, 1] and the 12-digit rounding. Both are written "1.0", as an
    # exact 1 is.
    m = build_matrix(list("abc"), list("abc"),
                     [[2, 3, 0], [2, 3, 0], [1, 1, 5]])
    assert cosine([2, 3, 0], [2, 3, 0]) == 1.0
    sim = similarity_matrix(m, measure=measure)
    assert sim.values.max() <= 1.0
    assert similarity_csv(sim).splitlines()[1].split(",")[:3] == \
        ["a", "1.0", "1.0"]


def test_equal_radicands_divide_by_the_radicand_itself():
    # Both radicands are 6 (Pearson) or 5 (cosine), also for the halves,
    # which scale to the same integers: sqrt(6) * sqrt(6) rounds to
    # 5.999999999999999, which made r 0.5000000000000001.
    assert pearson([1, 2, 0], [2, 1, 0]) == 0.5
    assert cosine([1, 2, 0], [2, 1, 0]) == 0.8
    assert pearson([0.5, 1, 0], [1, 0.5, 0]) == 0.5
    assert cosine([0.5, 1, 0], [1, 0.5, 0]) == 0.8
    m = build_matrix(list("abc"), list("abc"), [[1, 2, 0], [2, 1, 0],
                                                [1, 1, 5]])
    assert similarity_matrix(m).values[0, 1] == 0.5
    assert similarity_matrix(m, "cosine").values[0, 1] == 0.8


def test_similarity_matrix_symmetric_and_bounded():
    for measure in ("pearson", "cosine"):
        sim = similarity_matrix(log_transform(square()), measure=measure)
        assert np.allclose(sim.values, sim.values.T, atol=1e-12)
        assert np.all(np.diag(sim.values) == 1.0)
        if measure == "cosine":
            assert np.all(sim.values >= 0) and np.all(sim.values <= 1)
        else:
            assert np.all(sim.values >= -1) and np.all(sim.values <= 1)


def test_similarity_matrix_missing_diagonal():
    m = build_matrix(list("abcd"), list("abcd"),
                     [[10, 3, 16, 12], [3, 10, 15, 8], [16, 15, 0, 9],
                      [12, 8, 9, 10]])
    sim = similarity_matrix(m, measure="pearson", diagonal_mode="missing")
    # Pair (0, 1): positions 0 and 1 removed from both vectors.
    expect = pearson([16, 12], [15, 8])
    assert sim.values[0, 1] == pytest.approx(expect, abs=1e-12)


def test_similarity_matrix_rejects_nonsquare():
    m = build_matrix(["a", "b"], ["x", "y"], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        similarity_matrix(m)


def test_similarity_error_names_the_pair():
    m = build_matrix(list("abc"), list("abc"),
                     [[1, 1, 1], [1, 2, 3], [3, 2, 1]])
    with pytest.raises(UndefinedCorrelation, match="'a'"):
        similarity_matrix(m, measure="pearson")


@st.composite
def transformed_square_matrices(draw):
    """A square matrix of up to 7 rows, log-transformed or not: small
    integers or reals, each row scaled by 2^-700, 1 or 2^700; in half of
    them some rows are zero off the diagonal and some constant."""
    logged = draw(st.booleans())
    n = draw(st.integers(1, 7))
    cell = st.one_of(st.integers(0, 4).map(float),
                     st.floats(0.0, 50.0, allow_subnormal=False))
    values = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))
    kinds = ["data", "data", "zero", "constant"] if draw(st.booleans()) \
        else ["data"]
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            values[i] = 0.0
        elif kind == "constant":
            values[i] = values[i, 0]
        values[i, i] = max(values[i, i], 1.0)  # no all-zero row
        values[i] = np.ldexp(values[i],
                             draw(st.sampled_from([-700, 0, 0, 700])))
    labels = [f"a{i}" for i in range(n)]
    matrix = build_matrix(labels, labels, values)
    return log_transform(matrix) if logged else matrix


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InfodivError) as exc:
        return type(exc), str(exc)


@given(transformed_square_matrices(), st.sampled_from(["pearson", "cosine"]),
       st.sampled_from(["include", "missing"]))
@example(build_matrix(list("abc"), list("abc"),
                      [[5, 2, 0], [2, 7, 1], [0, 1, 4]]),
         "pearson", "missing")
@example(build_matrix(list("abc"), list("abc"),
                      [[1e154, 1e154, 1], [1, 1e154, 1e154],
                       [3, 1, 1e154]]),
         "cosine", "include")
@example(build_matrix(list("abcd"), list("abcd"),
                      [[2, 2, 2, 2], [1e308, 1e308, 1, 1], [1, 2, 3, 4],
                       [2, 1, 1, 5]]),
         "pearson", "include")
@example(build_matrix(list("abcd"), list("abcd"),
                      [[1, 1e308, 1e308, 1], [1, 2, 3, 4], [2, 1, 1, 5],
                       [1, 1, 2, 3]]),
         "pearson", "missing")
@settings(max_examples=examples(400), deadline=None)
def test_similarity_matrix_matches_the_per_pair_loop(matrix, measure,
                                                      diagonal_mode):
    args = (matrix, measure, diagonal_mode)
    expected = _outcome(reference_similarity_matrix, *args)
    got = _outcome(similarity_matrix, *args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("measure", [pearson, cosine])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coordinates_are_an_error(measure, bad):
    x, y = [bad, 1.0, 2.0], [1.0, 1.0, 3.0]
    for args in [(x, y), (y, x)]:
        with pytest.raises(NonFiniteValueError, match=re.escape(
                f"{measure.__name__} undefined for a vector with NaN or "
                "infinite coordinates")):
            measure(*args)


def _fsum_or_inf(row):
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _assert_exact_sums(rows):
    # Small inputs are summed by fsum itself; the vectorised tree is
    # checked on them as well, with that shortcut off.
    terms = np.array(rows, dtype=float)
    want = [_fsum_or_inf(row).hex() for row in rows]
    for fsum_cells in (similarity._FSUM_CELLS, 0):
        with mock.patch.object(similarity, "_FSUM_CELLS", fsum_cells):
            sums = _exact_sums(terms, _sum_space(*terms.shape))
        assert [float(v).hex() for v in sums] == want


# Rows the certificate must get right or hand to math.fsum, each summed
# forwards and backwards as an explicit example of test_exact_sums_are_fsum.
_HARD_ROWS = {
    "tie": [1.0, 2.0 ** -53],
    "past-tie": [1.0, 2.0 ** -53, 2.0 ** -105],
    "tie-below-power-of-two": [1.0, -(2.0 ** -54)],
    "past-tie-below-power-of-two": [1.0, -(2.0 ** -54), -(2.0 ** -110)],
    "tie-to-odd-neighbour": [1.0 + 2.0 ** -52, 2.0 ** -53],
    "negative-zeros": [-0.0, -0.0],
    "signed-zeros": [0.0, -0.0],
    "cancel-to-zero": [1e300, 3.0, -1e300, -3.0],
    "cancel-to-subnormal": [1.0, 2.0 ** -1074, -1.0],
    "subnormals": [2.0 ** -1074, 3 * 2.0 ** -1074, 2.0 ** -1023],
    "smallest-normal": [2.0 ** -1022, 2.0 ** -1074, -(2.0 ** -1074)],
    "heavy-cancellation": [2.0 ** 900, 1.0, -(2.0 ** 900), 2.0 ** -60],
    # Rounding the float sum of the TwoSum errors loses a small term.
    "error-sum-rounds": [2.0 ** 44, -(2.0 ** 44), 2.0 ** -60, 2.0 ** -105,
                         -(2.0 ** -30), 1.25 * 2.0 ** -86,
                         2.0 ** -30 - 2.0 ** -86],
    "overflow": [1.7e308, 1.7e308],
    "intermediate-overflow": [1.7e308, 1.7e308, 1.0],
    "largest-finite": [1.7976931348623157e308, 0.0],
    "single": [0.1],
}


def test_exact_sums_of_no_columns():
    assert _exact_sums(np.empty((3, 0)), _sum_space(3, 0)).tolist() == \
        [0.0, 0.0, 0.0]


@st.composite
def rows_to_sum(draw):
    """1-4 rows of one width. A row is non-negative, with terms up to the
    largest float so that its sum may overflow, or of mixed signs with its
    absolute terms summing to at most 2^990 (the two kinds `_exact_sums`
    covers). Its terms are reals, powers of two, subnormals and signed
    zeros, or short multiples of powers of two within 2^-180 of each other,
    which puts sums at and near ties and powers of two; a mixed row may end
    in a term that cancels the rest."""
    width = draw(st.integers(1, 40))
    nonneg = draw(st.booleans())
    top = 1023 if nonneg else 990 - width.bit_length()
    if draw(st.booleans()):
        term = st.one_of(
            st.floats(-(2.0 ** top), 2.0 ** top, allow_subnormal=False),
            st.builds(math.ldexp, st.sampled_from([1.0, -1.0, 1.5, -0.75]),
                      st.integers(-1074, top - 1)),
            st.integers(-(2 ** 52), 2 ** 52).map(lambda k: k * 2.0 ** -1074),
            st.sampled_from([0.0, -0.0]),
            st.integers(-5, 5).map(float))
    else:
        scale = draw(st.integers(-880, 880))
        term = st.builds(math.ldexp,
                         st.sampled_from([1.0, -1.0, 1.25, -1.5, 1.75]),
                         st.integers(scale - 180, scale))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(term) for _ in range(width)]
        if nonneg:
            row = [abs(v) for v in row]
        elif width > 1 and draw(st.booleans()):
            # The rounded sum of the other terms, negated: what is left
            # is their rounding error.
            row[-1] = -float(np.sum(row[:-1]))
        rows.append(row)
    return rows


@given(rows_to_sum())
@settings(max_examples=examples(300), deadline=None)
def test_exact_sums_are_fsum(rows):
    _assert_exact_sums(rows)


for _row in _HARD_ROWS.values():
    test_exact_sums_are_fsum = example([_row, _row[::-1]])(
        test_exact_sums_are_fsum)


# A chunk of three rows of cells splits most rows' pairs across chunks; one
# of n - 1 cells holds a single pair, and `_exact_sums` then sums one row
# per block.
@pytest.mark.parametrize("seed, chunk_cells", [
    *[pytest.param(seed, lambda n: 3 * n, id=f"{seed}") for seed in (1, 2, 3)],
    *[pytest.param(seed, lambda n: n - 1, id=f"{seed}-one-pair")
      for seed in (1, 2, 3)],
])
def test_small_chunks_match_the_per_pair_loop(monkeypatch, seed,
                                              chunk_cells):
    rng = np.random.default_rng(seed)
    matrix = cocitation_matrix(rng, int(rng.integers(20, 41)))
    monkeypatch.setattr(similarity, "_CHUNK_CELLS",
                        chunk_cells(matrix.n_rows))
    for args in itertools.product(
            [matrix, log_transform(matrix)], ["pearson", "cosine"],
            ["include", "missing"]):
        got = similarity_matrix(*args).values
        assert got.tobytes() == reference_similarity_matrix(*args).tobytes()


@pytest.mark.parametrize("diagonal_mode, measure, logged", [
    pytest.param(diagonal_mode, measure, logged,
                 id=diagonal_mode + suffix + ("-log" if logged else ""))
    for logged in (False, True)
    for measure, suffix in [("pearson", ""), ("cosine", "-cosine")]
    for diagonal_mode in ("include", "missing")])
def test_similarity_matrix_memory_is_bounded(diagonal_mode, measure, logged):
    # The result is 0.7 MB at n = 300; every other temporary is bounded by
    # the block size. Counts need one limb; under --log the rows need four,
    # and each block's limbs are split from the values when they are used.
    matrix = cocitation_matrix(np.random.default_rng(4), 300)
    if logged:
        matrix = log_transform(matrix)
    tracemalloc.start()
    try:
        similarity_matrix(matrix, measure, diagonal_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


vector_pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(*[
    st.lists(st.one_of(
        st.floats(-50.0, 50.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-1074, 1023).map(lambda e: 2.0 ** e),
        st.integers(0, 4).map(float)), min_size=n, max_size=n)] * 2))


@given(vector_pairs, st.sampled_from(["pearson", "cosine"]))
@example(([1.0, 2.0 ** -53, 0.0], [1.0, 1.0, 0.0]), "cosine")
@example(([1.2e154, 1.2e154, 0.0], [2.0 ** 470, 2.0 ** -604, 0.0]), "cosine")
@example(([1.37e-198, 0.0, 0.0, 0.0, 6.77e125], [-1.0, 0.0, 0.0, 0.0, 0.0]),
         "cosine")
@settings(max_examples=examples(400), deadline=None)
def test_similarity_pair_matches_the_fsum_reference(xy, measure):
    fn = pearson if measure == "pearson" else cosine
    got = _outcome(fn, *xy)
    expected = _outcome(reference_pair, measure, *xy)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert type(got) is float and got.hex() == expected.hex()


@st.composite
def dyadic_rows(draw, signed):
    """2-6 rows of 1-9 dyadic cells m * 2^e, |m| < 2^20, all e of a row
    within `span` (up to 70) bits of the row's top exponent, which lies in
    [-1000, 900]: scaled to integers, a row's largest lies on either side
    of the limb cap, 2^64, as does 2^64 itself; in half of them a row is
    constant."""
    n, width = draw(st.integers(2, 6)), draw(st.integers(1, 9))
    low = -(2 ** 20) if signed else 0
    rows = []
    for _ in range(n):
        top, span = draw(st.integers(-1000, 900)), draw(st.integers(0, 70))
        rows.append([math.ldexp(draw(st.integers(low, 2 ** 20)),
                                top - draw(st.integers(0, span)))
                     for _ in range(width)])
    if draw(st.booleans()):
        rows[0] = [rows[0][0]] * width
    if draw(st.booleans()):
        rows[-1][0] = math.ldexp(1.0, 64 + draw(st.integers(-1, 1)))
    return rows


@given(dyadic_rows(signed=True), st.sampled_from(["pearson", "cosine"]))
@settings(max_examples=examples(300), deadline=None)
def test_dyadic_pairs_match_the_exact_reference(rows, measure):
    # Each pair of rows against the dyadic reference: both vectors scaled to
    # Python ints, the forms exact, each rounded once.
    fn = pearson if measure == "pearson" else cosine
    for x, y in itertools.combinations(rows, 2):
        got = _outcome(fn, x, y)
        expected = _outcome(reference_pair, measure, x, y)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.hex() == expected.hex()


@given(dyadic_rows(signed=False), st.sampled_from(["pearson", "cosine"]),
       st.sampled_from(["include", "missing"]))
@settings(max_examples=examples(300), deadline=None)
def test_dyadic_matrices_match_the_exact_reference(rows, measure,
                                                   diagonal_mode):
    # A square of such rows, each padded or cut to the row count; a zero
    # row gets a 1 on its diagonal.
    n = len(rows)
    values = np.array([(row * n)[:n] for row in rows])
    for i in np.flatnonzero(~values.any(axis=1)):
        values[i, i] = 1.0
    labels = [f"a{i}" for i in range(n)]
    matrix = build_matrix(labels, labels, values)
    args = (matrix, measure, diagonal_mode)
    expected = _outcome(reference_similarity_matrix, *args)
    got = _outcome(similarity_matrix, *args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.values.tobytes() == expected.tobytes()


def _int_route(fn, *args):
    """fn(*args) with every pair scored in Python ints: under a limb cap of
    0 only all-zero vectors would fit, and they are undefined on either
    route."""
    with mock.patch.object(similarity, "_LIMB_CAP", 0.0):
        return _outcome(fn, *args)


_EXACT = decimal.Context(prec=50)


def _pearson_error(matrix, diagonal_mode, values):
    """|values[i, j] - r| for each pair i < j, r the exact Pearson r of the
    pair's vectors to 50 digits."""
    n = matrix.n_rows
    errors = []
    for i, j in itertools.combinations(range(n), 2):
        keep = [k for k in range(n)
                if diagonal_mode == "include" or k not in (i, j)]
        num, rx, ry = reference_integer_forms(
            "pearson", matrix.values[i, keep], matrix.values[j, keep])
        exact = _EXACT.divide(num, _EXACT.multiply(rx, ry).sqrt(_EXACT))
        errors.append(abs(decimal.Decimal(values[i, j]) - exact))
    return errors


@st.composite
def integer_square_matrices(draw):
    """A square count matrix of 2 to 7 rows whose rows all pass the integer
    route's test: cells up to 4, 1000, 2^26 (where every product of two is
    exact in float) or a row's share of the guard, isqrt(2^62 // n) // n;
    in half of them some rows are constant."""
    n = draw(st.integers(2, 7))
    top = draw(st.sampled_from([4, 1000, 2 ** 26,
                                math.isqrt(2 ** 62 // n) // n]))
    values = np.array(draw(st.lists(
        st.lists(st.integers(0, top), min_size=n, max_size=n),
        min_size=n, max_size=n)), dtype=float)
    for i in range(n):
        if draw(st.integers(0, 5)) == 0:
            values[i] = values[i, 0]
        values[i, i] = max(values[i, i], 1.0)  # no all-zero row
    labels = [f"a{i}" for i in range(n)]
    return build_matrix(labels, labels, values)


@given(integer_square_matrices(), st.sampled_from(["include", "missing"]))
@example(build_matrix(list("abc"), list("abc"),
                      [[1, 2 ** 30, 2 ** 30], [3, 2 ** 29, 2], [1, 2, 5]]),
         "include")
@example(build_matrix(list("abcdef"), list("abcdef"),
                      [[0, 0, 0, 1, 1, 2], [2, 2, 2, 2, 2, 2],
                       [1, 0, 3, 1, 0, 2], [4, 1, 1, 5, 0, 0],
                       [0, 2, 0, 1, 3, 1], [1, 1, 0, 0, 2, 6]]),
         "include")
@settings(max_examples=examples(300), deadline=None)
def test_integer_route_cosine_and_pearson_accuracy(matrix, diagonal_mode):
    # Both measures are the same bits from the limbs and from Python ints,
    # and an undefined pair raises on either route. In the second example
    # the cosine radicands of rows a and b, 6 and 24, are both 1.5 over
    # their powers of four; they are not equal. Pearson: the numerator and
    # radicands are exact, then seven roundings of at most 2^-53 relative
    # each (the two radicands' conversions at half weight under their
    # square roots) bound the error by 6 * 2^-53 * |r|; most of them must
    # be near their extremes at once to pass 2 * 2^-52 (1.24 * 2^-52 was
    # the largest of 79,303 random pairs).
    for measure in ["cosine", "pearson"]:
        got = _outcome(similarity_matrix, matrix, measure, diagonal_mode)
        expected = _int_route(similarity_matrix, matrix, measure,
                              diagonal_mode)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.values.tobytes() == expected.values.tobytes()
    if not isinstance(got, tuple):
        errors = _pearson_error(matrix, diagonal_mode, got.values)
        assert max(errors, default=0) <= 2 * 2.0 ** -52


def test_limb_plan_holds_the_cap_up_to_2_22_coordinates():
    # Planned limbs hold the top and keep every level of a form below 2^53;
    # past 2^22 coordinates no limb of one bit or more holds 2^64, and such
    # a pair is scored in Python ints.
    for width in [1, 2, 50, 80, 300, 10 ** 5, 2 ** 22]:
        for top in [0.0, 1.0, 2.0 ** 20, 2.0 ** 53, 2.0 ** 64]:
            bits, count = similarity._limb_plan(width, top)
            assert bits >= 1 and top <= 2.0 ** (count * bits - 1)
            assert count * width ** 2 * 2.0 ** (2 * bits - 1) <= 2.0 ** 53
    assert similarity._limb_plan(2 ** 22 + 1, 2.0 ** 64) is None


@pytest.mark.parametrize("measure", ["pearson", "cosine"])
@pytest.mark.parametrize("diagonal_mode", ["include", "missing"])
def test_integer_route_ends_at_its_guard(measure, diagonal_mode):
    # The cells that pair (a, b) compares (under missing, all but positions
    # a and b) are multiples of 2^10 in [2^62, 2^63), but for row a's first,
    # 0.5, and last, 2^63: scaled by 2 to integers, row a's largest is the
    # limb cap, 2^64. With 0.25 in place of 0.5 the scale is 4 and the
    # largest 2^65, past the cap. Pair (a, b) is scored from the limbs at
    # the cap and in Python ints past it, to the same exact value; under
    # missing, row a past the cap leaves its pairs to the per-pair body,
    # which scores pair (a, c) from the limbs, as its vectors lack the
    # 0.25.
    n, kept, seed = (4, slice(0, 4), 11) if diagonal_mode == "include" \
        else (6, slice(2, 6), 0)
    values = np.ldexp(np.random.default_rng(seed).integers(
        2 ** 52, 2 ** 53, (n, n)).astype(float), 10)
    values[0, kept.stop - 1] = 2.0 ** 63
    labels = list("abcdef"[:n])
    fn = pearson if measure == "pearson" else cosine
    for frac, scale in [(0.5, 2), (0.25, 4)]:
        values[0, kept.start] = frac
        x, y = values[0, kept], values[1, kept]
        expected = reference_integer_pair(
            measure, *[[int(v * scale) for v in u] for u in (x, y)])
        matrix = build_matrix(labels, labels, values)
        with mock.patch.object(similarity, "_int_score",
                               wraps=similarity._int_score) as ints:
            assert fn(x, y).hex() == expected.hex()
            assert ints.called == (scale == 4)
            got = similarity_matrix(matrix, measure, diagonal_mode).values
        assert got[0, 1].hex() == expected.hex()
        assert got.tobytes() == reference_similarity_matrix(
            matrix, measure, diagonal_mode).tobytes()


@pytest.mark.parametrize("measure", ["pearson", "cosine"])
def test_integer_route_skips_the_diagonal_under_missing(measure):
    # No pair's vectors hold a diagonal cell under missing, so diagonal
    # cells of any scale leave every pair on the limbs; under include the
    # rows holding 1e300 and 1e-300 pass the limb cap and put their 21
    # pairs in Python ints, and the other rows' dyadic cells fit.
    matrix = cocitation_matrix(np.random.default_rng(5), 12)
    values = matrix.values.copy()
    np.fill_diagonal(values, [0.5, 1e300, 2.0 ** 63, 7.25, 2.0 ** 40, 1e-300,
                              3.5, 2.0 ** 31, 1e17, 0.25, 9.75, 2.0 ** 62])
    matrix = build_matrix(matrix.row_labels, matrix.col_labels, values)
    for diagonal_mode, past in [("missing", 0), ("include", 21)]:
        with mock.patch.object(similarity, "_int_score",
                               wraps=similarity._int_score) as ints:
            got = similarity_matrix(matrix, measure, diagonal_mode).values
        assert ints.call_count == past
        assert got.tobytes() == reference_similarity_matrix(
            matrix, measure, diagonal_mode).tobytes()


# Square matrices whose pairs take different routes, with constant rows
# (Pearson) or rows that are zero but for two positions (cosine under
# missing), so that undefined pairs fall on both routes; and the first
# undefined pair in row-major order, which the Python-int route alone also
# names. The key says which route that pair takes: "integer" for the
# limbs, "float" for a pair past the limb cap. A row holding both 1 and
# 2^-70 (`_P`) passes the cap, and so do the pairs whose vectors keep both.
_P = 2.0 ** -70
_MIXED = {
    "integer-first": ("pearson", "include", [
        [4, 1, 2, 0, 5], [_P, 3, 1, 2, 2], [2, 2, 2, 2, 2],
        [3, 3, 3, 3, 3], [1, 0, 3, 2, 6]], ("a", "c")),
    "float-first": ("pearson", "include", [
        [4, 1, 2, _P, 5], [1, 3, 1, 2, 2], [2.5, 2.5, 2.5, 2.5, 2.5],
        [3, 3, 3, 3, 3], [1, 0, 3, 2, 6]], ("a", "c")),
    "float-before-integer": ("pearson", "include", [
        [4, 1, 2, _P, 5], [2.5, 2.5, 2.5, 2.5, 2.5], [3, 3, 3, 3, 3],
        [1, 0, 3, 2, 6], [0.5, 3, 1, 2, 2]], ("a", "b")),
    "missing-integer-first": ("cosine", "missing", [
        [4, 1, 2, 0, 5], [1, 3, 1, 2, 2], [0, 3, 5, 0, 0],
        [1, _P, 3, 2, 6], [0, 0, 0, 2.5, 7]], ("b", "c")),
    "missing-float-first": ("cosine", "missing", [
        [4, 1, 2, 0, 5], [1, 3, _P, 2.5, 0], [1, 2, 5, 0, 3],
        [0, 1.5, 0, 2, 0], [0, 0, 4, 0, 7]], ("b", "d")),
    # Row a passes the cap through its cell at position b alone, so pair
    # (a, b) fits though row a does not.
    "missing-integer-in-float-rows": ("cosine", "missing", [
        [2.5, _P, 1, 0, 0], [1, 3, 0, 0, 0], [1, 2, 5, 0, 3],
        [1, 2, 0.5, 3, 0], [0, 0, 0, 1, 4]], ("a", "b")),
}


@pytest.mark.parametrize("chunk_cells", [None, 1], ids=["one-block",
                                                        "row-blocks"])
@pytest.mark.parametrize("case", list(_MIXED))
def test_mixed_routes_raise_for_the_first_undefined_pair(monkeypatch, case,
                                                         chunk_cells):
    measure, diagonal_mode, values, (first, second) = _MIXED[case]
    if chunk_cells is not None:
        monkeypatch.setattr(similarity, "_CHUNK_CELLS", chunk_cells)
    matrix = build_matrix(list("abcde"), list("abcde"), values)
    error = UndefinedCorrelation if measure == "pearson" else UndefinedCosine
    with pytest.raises(error, match=re.escape(
            f"(pair {first!r}, {second!r})")):
        similarity_matrix(matrix, measure, diagonal_mode)
    got = _outcome(similarity_matrix, matrix, measure, diagonal_mode)
    assert got == _outcome(reference_similarity_matrix, matrix, measure,
                           diagonal_mode)
    assert got == _int_route(similarity_matrix, matrix, measure,
                             diagonal_mode)


# Runs `similarity` on the CSV argv[1] under both measures, both diagonal
# modes and with and without --log, and prints the sha256 of each output;
# then again with the whole matrix in one block, so that each product of
# limbs is large enough for the BLAS to spread over its threads.
_SIMILARITY_RUNS = """
import hashlib, itertools, os, sys
from infodiv import similarity
from infodiv.cli import run_cli
for blocks in ["blocks", "one block"]:
    if blocks == "one block":
        similarity._CHUNK_CELLS = 2 ** 20
    for measure, diagonal, log in itertools.product(
            ["pearson", "cosine"], ["include", "missing"], [[], ["--log"]]):
        out = os.path.join(sys.argv[2], "out.csv")
        assert run_cli(["similarity", sys.argv[1], "--measure", measure,
                        "--diagonal", diagonal, *log, "--out", out]) == 0
        with open(out, "rb") as fh:
            print(measure, diagonal, *log,
                  hashlib.sha256(fh.read()).hexdigest())
"""


def test_similarity_bytes_do_not_depend_on_the_blas(tmp_path):
    # The limb products are the only BLAS calls in `similarity`: every sum
    # of their products is an integer below 2^53, exact in any order, so
    # neither the number of BLAS threads, nor the kernel the BLAS picks for
    # the CPU, nor the block size changes a byte. At 150 authors the --log
    # rows need four limbs.
    matrix = cocitation_matrix(np.random.default_rng(31), 150)
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(write_csv(matrix))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for env in [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                {"OPENBLAS_CORETYPE": "Prescott"}]:
        outputs.append(subprocess.run(
            [sys.executable, "-c", _SIMILARITY_RUNS, str(csv_path),
             str(tmp_path)], env={"PYTHONPATH": src, **env},
            capture_output=True, check=True, text=True).stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == 16 and lines[:8] == lines[8:]
    assert outputs[0] == outputs[1] == outputs[2]
