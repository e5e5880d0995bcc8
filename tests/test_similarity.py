import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodiv import (
    UndefinedCorrelation,
    UndefinedCosine,
    build_matrix,
    cosine,
    log_transform,
    pearson,
    similarity_matrix,
)


def test_pearson_basics():
    assert pearson([1, 5, 3], [1, 5, 3]) == pytest.approx(1.0)
    assert pearson([1, 2], [2, 1]) == pytest.approx(-1.0)
    assert pearson([1, 2, 0], [2, 1, 0]) == pytest.approx(0.5)


def test_pearson_constant_vector_is_an_error():
    with pytest.raises(UndefinedCorrelation):
        pearson([3, 3, 3], [1, 2, 3])


def test_cosine_basics():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 1], [2, 2]) == pytest.approx(1.0)
    assert cosine([1, 2], [2, 1]) == pytest.approx(0.8)
    assert cosine([1, 2, 0], [2, 1, 0]) == pytest.approx(0.8)


def test_cosine_zero_vector_is_an_error():
    with pytest.raises(UndefinedCosine):
        cosine([0, 0], [1, 2])


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
        sim = similarity_matrix(square(), measure=measure,
                                transform="log1p")
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
