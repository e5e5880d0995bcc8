import io

import numpy as np
import pytest

from infodiv import (
    DuplicateLabelError,
    EmptyMatrixError,
    NegativeValueError,
    NonFiniteValueError,
    ZeroRowError,
    build_matrix,
    log_transform,
    parse_csv,
    pooled_profile,
    probability_model,
)

from conftest import random_matrix


def test_build_valid():
    m = build_matrix(["a", "b"], ["x", "y"], [[2, 0], [0, 2]])
    assert m.grand_sum == 4
    assert m.row_labels == ("a", "b")


def test_build_matrix_copies_the_callers_array():
    values = np.array([[2.0, 0.0], [0.0, 2.0]])
    m = build_matrix(["a", "b"], ["x", "y"], values)
    assert values.flags.writeable
    assert not m.values.flags.writeable
    values[0, 0] = 7.0
    assert m.values.tolist() == [[2, 0], [0, 2]]


# Quoted text goes through csv.reader, the others through the digit
# decoder, with labels in order or not.
@pytest.mark.parametrize("text", ["x,a,b\nr1,2,0\nr2,0,2\n",
                                  "x,b,a\nr2,1,2\nr1,3,4\n",
                                  'x,a,b\n"r1",2,0\nr2,0,2\n'])
def test_parse_csv_and_log_transform_return_read_only_values(text):
    m = parse_csv(io.StringIO(text))
    logged = log_transform(m)
    for values in m.values, logged.values:
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.0
    assert not np.shares_memory(m.values, logged.values)


def test_negative_value_rejected():
    with pytest.raises(NegativeValueError):
        build_matrix(["a"], ["x", "y"], [[1, -1]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_value_rejected(bad):
    with pytest.raises(NonFiniteValueError, match="row 'b', column 'y'"):
        build_matrix(["a", "b"], ["x", "y"], [[1, 2], [3, bad]])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        build_matrix(["a", "a"], ["x", "y"], [[1, 0], [0, 1]])
    with pytest.raises(DuplicateLabelError):
        build_matrix(["a", "b"], ["x", "x"], [[1, 0], [0, 1]])


def test_zero_row_rejected():
    with pytest.raises(ZeroRowError, match=r"rows with zero sum: \['a'\]"):
        build_matrix(["a", "b"], ["x", "y"], [[0, 0], [1, 2]])


def test_all_zero_rejected():
    with pytest.raises((EmptyMatrixError, ZeroRowError)):
        build_matrix(["a"], ["x"], [[0]])


def test_probability_model_symmetric():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    assert pm.joint.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert not pm.joint.flags.writeable


def test_probability_model_shares_the_matrix_values():
    m = build_matrix(["a", "b"], ["x", "y"], [[3, 1], [1, 3]])
    pm = probability_model(m)
    assert pm.values is m.values and pm.total == 8.0
    assert np.shares_memory(pm.values, m.values)


def test_probability_model_uniform():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 1], [1, 1]]))
    assert np.allclose(pm.joint, 0.25)


def test_probability_model_hand_arithmetic():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[3, 1], [1, 3], [3, 1]]))
    assert np.allclose(pm.joint.sum(axis=0), [7 / 12, 5 / 12], atol=1e-12)
    assert np.allclose(pm.joint.sum(axis=1), [1 / 3] * 3, atol=1e-12)


def test_probability_model_rejects_a_grand_sum_past_the_float_range():
    # Both rows and both cells of each are finite; their sum is not.
    m = build_matrix(["a", "b"], ["x", "y"], [[1e308, 1e308], [1e308, 1]])
    assert m.grand_sum == float("inf")
    with pytest.raises(NonFiniteValueError, match="grand sum overflows"):
        probability_model(m)


def test_pooled_profile_cases():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    w, prof = pooled_profile(pm, (0,))
    assert w == 0.5 and prof.tolist() == [1.0, 0.0]

    pm3 = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                         [[3, 1], [1, 3], [3, 1]]))
    w, prof = pooled_profile(pm3, (0, 2))
    assert abs(w - 2 / 3) < 1e-12
    assert np.allclose(prof, [0.75, 0.25], atol=1e-12)

    w, prof = pooled_profile(pm3, (0, 1, 2))
    assert abs(w - 1) < 1e-12
    assert np.allclose(prof, pm3.joint.sum(axis=0), atol=1e-12)


def test_partition_weights_sum_to_one(rng):
    for _ in range(20):
        m = random_matrix(rng)
        pm = probability_model(m)
        idx = list(range(m.n_rows))
        cut = max(1, m.n_rows // 2)
        w1, _ = pooled_profile(pm, tuple(idx[:cut]))
        w2, _ = pooled_profile(pm, tuple(idx[cut:])) if idx[cut:] else (0, None)
        assert abs(w1 + w2 - 1) < 1e-12


def test_scaling_invariance(rng):
    m = random_matrix(rng)
    scaled = build_matrix(m.row_labels, m.col_labels, m.values * 7.5)
    pm, pms = probability_model(m), probability_model(scaled)
    assert np.allclose(pm.joint, pms.joint, atol=1e-12)


def test_joint_sums_to_one(rng):
    for _ in range(20):
        pm = probability_model(random_matrix(rng))
        assert abs(pm.joint.sum() - 1) < 1e-12
