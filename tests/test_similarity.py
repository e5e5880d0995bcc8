import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples, reference_pair, reference_similarity_matrix
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
    similarity_matrix,
)
from infodiv import similarity
from infodiv.similarity import _exact_sums


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
    # x's squares are finite but sum past the float range, so x is scaled;
    # y's sum of squares is in range, so y is not. Scaling y as well (to a
    # largest magnitude below 1) would round its 2**-604 to zero, and the
    # cosine, the smallest subnormal, with it.
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
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    dx, dy = x - x.mean(), y - y.mean()
    if (dx * dx).sum() == 0 or (dy * dy).sum() == 0:
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
    dx, dy = x - x.mean(), y - y.mean()
    if (dx * dx).sum() > 0 and (dy * dy).sum() > 0:
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
def test_pearson_centering_past_the_float_range_is_an_error(x):
    y = list(range(len(x)))
    for args in [(x, y), (y, x)]:
        with pytest.raises(NonFiniteValueError, match="float range"):
            pearson(*args)
    assert cosine(x, y) == pytest.approx(cosine(np.sign(x), y), abs=1e-15)


def test_log_transform_values():
    m = build_matrix(["a"], ["x", "y", "z"], [[0, 1, 3]])
    t = log_transform(m)
    assert t.values.tolist() == [[0.0, 1.0, 2.0]]


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
    integers or reals, each row scaled by 2^-700 (untransformed only, as the
    log of so small a row is zero), 1 or 2^700; in half of them some rows
    are zero off the diagonal and some constant."""
    logged = draw(st.booleans())
    n = draw(st.integers(1, 7))
    cell = st.one_of(st.integers(0, 4).map(float),
                     st.floats(0.0, 50.0, allow_subnormal=False))
    values = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))
    kinds = ["data", "data", "zero", "constant"] if draw(st.booleans()) \
        else ["data"]
    scales = [0, 0, 700] if logged else [-700, 0, 0, 700]
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            values[i] = 0.0
        elif kind == "constant":
            values[i] = values[i, 0]
        values[i, i] = max(values[i, i], 1.0)  # no all-zero row
        values[i] = np.ldexp(values[i], draw(st.sampled_from(scales)))
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
    got = [float(v).hex() for v in _exact_sums(np.array(rows, dtype=float))]
    assert got == [_fsum_or_inf(row).hex() for row in rows]


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
    assert _exact_sums(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]


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


def _cocitation(rng, n):
    """Symmetric Poisson counts in four author groups, positive diagonal."""
    member = rng.integers(0, 4, size=n)
    rate = np.where(member[:, None] == member[None, :], 6.0, 1.5)
    upper = np.triu(rng.poisson(rate), 1)
    counts = (upper + upper.T).astype(float)
    counts[np.arange(n), np.arange(n)] = counts.max(axis=1) + 1
    labels = [f"au{i:02d}" for i in range(n)]
    return build_matrix(labels, labels, counts)


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
    matrix = _cocitation(rng, int(rng.integers(20, 41)))
    monkeypatch.setattr(similarity, "_CHUNK_CELLS",
                        chunk_cells(matrix.n_rows))
    for args in itertools.product(
            [matrix, log_transform(matrix)], ["pearson", "cosine"],
            ["include", "missing"]):
        got = similarity_matrix(*args).values
        assert got.tobytes() == reference_similarity_matrix(*args).tobytes()


@pytest.mark.parametrize("diagonal_mode", ["include", "missing"])
def test_similarity_matrix_memory_is_bounded(diagonal_mode):
    # The result, the row-major pair index and, for include, the scaled
    # rows and their squares are O(n^2), about 2.7 MB at n = 300; every
    # other temporary is bounded by the chunk size (3.2 MB in all was
    # measured for include, 2.4 MB for missing).
    matrix = _cocitation(np.random.default_rng(4), 300)
    tracemalloc.start()
    try:
        similarity_matrix(matrix, "pearson", diagonal_mode)
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
@settings(max_examples=examples(400), deadline=None)
def test_similarity_pair_matches_the_fsum_reference(xy, measure):
    fn = pearson if measure == "pearson" else cosine
    got = _outcome(fn, *xy)
    expected = _outcome(reference_pair, measure, *xy)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert type(got) is float and got.hex() == expected.hex()
