import itertools
import math
import re
import subprocess
import sys
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infodiv import (
    Grouping,
    InvalidInputError,
    build_matrix,
    decompose,
    evaluate_bipartition,
    exhaustive_partition,
    greedy_bisect,
    probability_model,
    shannon_entropy,
)
from infodiv import entropy
from infodiv.matrix import ProbabilityModel, check_subset

from conftest import ROUNDING_COUNTS, brute_decompose, entropy_bits, \
    examples, random_grouping, random_matrix, reference_group_sums


def test_shannon_entropy_basics():
    assert shannon_entropy([0.5, 0.5]) == 1.0
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([7 / 12, 5 / 12]) == pytest.approx(0.9799, abs=1e-4)


def test_zero_times_log_zero_is_zero():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5, 0.0]) == 1.0


def test_shannon_entropy_takes_any_shape_as_one_distribution():
    assert shannon_entropy([[.25, .25], [.25, .25]]) == 2.0
    assert shannon_entropy(np.full((2, 2, 2), 1 / 8)) == 3.0
    assert shannon_entropy(1.0) == 0.0


PM3 = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                     [[3, 1], [1, 3], [3, 1]]))


@pytest.mark.parametrize("call, message", [
    (lambda: check_subset(PM3, ()), "row subset must be nonempty"),
    (lambda: check_subset(PM3, (0, 0)), "row subset has repeated indices"),
    (lambda: check_subset(PM3, (0, 3)), "row index out of range in (0, 3)"),
    (lambda: check_subset(PM3, (1.7, 0.2)),
     "row index must be an integer, got 1.7"),
    (lambda: check_subset(PM3, ("1",)),
     "row index must be an integer, got '1'"),
    (lambda: greedy_bisect(PM3, (0.5, 1.5, 2.5)),
     "row index must be an integer, got 0.5"),
    (lambda: evaluate_bipartition(PM3, (0, 1), (0, 1)),
     "left must be a proper subset of subtree"),
    (lambda: Grouping((0, 2, 0)), "group ids must cover 0..1"),
    (lambda: Grouping((0, 1.0, 0, 1)), "group id must be an integer, got 1.0"),
    (lambda: Grouping.from_sets([[0.0, 2], [1, 3]], 4),
     "row index must be an integer, got 0.0"),
    (lambda: Grouping.from_sets([[0, 1], [], [2]], 3), "group 1 is empty"),
    (lambda: Grouping.from_sets([[0], [0, 1, 2]], 3), "row 0 assigned twice"),
    (lambda: Grouping.from_sets([[0], [1]], 3),
     "grouping does not cover all rows"),
    (lambda: Grouping.from_sets([[0], [-1]], 2), "row -1 outside 0..1"),
    (lambda: Grouping.from_sets([[0], [5]], 2), "row 5 outside 0..1"),
    (lambda: shannon_entropy([1.5, -0.5]), "finite and nonnegative"),
    (lambda: shannon_entropy([0.5, 0.5, math.nan]), "finite and nonnegative"),
    (lambda: shannon_entropy([0.5, math.inf]), "finite and nonnegative"),
    (lambda: shannon_entropy([0.5, 0.4]), "probabilities sum to 0.9"),
    (lambda: decompose(PM3, Grouping((0, 1))),
     "grouping covers 2 rows, model has 3"),
    (lambda: exhaustive_partition(PM3, 2.5),
     "max_groups must be an integer, got 2.5"),
], ids=["subset-empty", "subset-repeated", "subset-range", "subset-float",
        "subset-string", "greedy-float-rows", "left-not-proper", "group-ids",
        "group-id-float", "from-sets-float-row", "from-sets-empty-group",
        "row-twice", "rows-uncovered", "row-negative", "row-past-end",
        "negative", "nan", "inf", "unnormalized", "grouping-length",
        "max-groups-float"])
def test_bad_argument_raises_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_entropy_permutation_invariant_and_bounded(weights):
    p = np.array(weights) / sum(weights)
    h = shannon_entropy(p)
    assert h == pytest.approx(shannon_entropy(p[::-1]), abs=1e-12)
    assert 0 <= h <= math.log2(len(p)) + 1e-12


def test_decompose_separated_blocks():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    rep = decompose(pm, Grouping((0, 1)))
    assert rep.h_n == rep.h_m == rep.h_joint == rep.h0 == 1.0
    assert all(h_g == 0.0 for _, h_g in rep.groups)


def test_decompose_identical_rows():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 1], [1, 1]]))
    rep = decompose(pm, Grouping((0, 1)))
    assert rep.h0 == pytest.approx(0.0, abs=1e-12)
    assert rep.h_n == 1.0
    assert all(h_g == pytest.approx(1.0) for _, h_g in rep.groups)


def test_decompose_hand_example():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[3, 1], [1, 3], [3, 1]]))
    rep = decompose(pm, Grouping((0, 1, 0)))
    assert [p for p, _ in rep.groups] == pytest.approx([2 / 3, 1 / 3])
    assert [h for _, h in rep.groups] == pytest.approx([0.8113, 0.8113],
                                                       abs=1e-4)
    assert rep.h_n == pytest.approx(0.9799, abs=1e-4)
    assert rep.h0 == pytest.approx(0.1687, abs=1e-3)
    # Cross-check against the independent loop-based computation.
    h_n, h_m, h_joint, h0, within = brute_decompose(
        [[3, 1], [1, 3], [3, 1]], [0, 1, 0])
    assert rep.h0 == pytest.approx(h0, abs=1e-12)
    assert rep.h_cond == pytest.approx(within, abs=1e-12)


def test_transmission_named_quantity():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    assert decompose(pm, Grouping((0, 1))).h0 == 1.0
    assert decompose(pm, Grouping((0, 0))).h0 == pytest.approx(0.0,
                                                               abs=1e-12)
    # H0 is the mutual information between the groups and the columns:
    # groups {a, c} and {b} pool to [[6, 2], [1, 3]] / 12.
    pm3 = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                         [[3, 1], [1, 3], [3, 1]]))
    joint = [[6 / 12, 2 / 12], [1 / 12, 3 / 12]]
    mutual = sum(p * math.log2(p / (sum(row) * (joint[0][c] + joint[1][c])))
                 for row in joint for c, p in enumerate(row))
    assert decompose(pm3, Grouping((0, 1, 0))).h0 == \
        pytest.approx(mutual, abs=1e-12)


def test_identities_on_random_inputs(rng):
    for _ in range(100):
        m = random_matrix(rng)
        pm = probability_model(m)
        assignment = random_grouping(rng, m.n_rows)
        rep = decompose(pm, Grouping(tuple(assignment)))
        within = sum(p * h for p, h in rep.groups)
        assert rep.h_n == pytest.approx(rep.h0 + within, abs=1e-9)
        assert rep.h_cond == pytest.approx(rep.h_joint - rep.h_m, abs=1e-9)
        assert rep.h0 == pytest.approx(rep.h_n + rep.h_m - rep.h_joint,
                                       abs=1e-9)
        assert -1e-12 <= rep.h0 <= min(rep.h_n, rep.h_m) + 1e-12


def test_h0_zero_iff_profiles_match_marginal():
    # Duplicate rows: every group profile equals the column marginal.
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[2, 4], [1, 2], [4, 8]]))
    for assignment in [(0, 1, 2), (0, 0, 1), (0, 1, 0)]:
        rep = decompose(pm, Grouping(assignment))
        assert rep.h0 == pytest.approx(0.0, abs=1e-12)


def test_refinement_monotonicity(rng):
    for _ in range(30):
        m = random_matrix(rng, max_rows=8)
        pm = probability_model(m)
        assignment = random_grouping(rng, m.n_rows)
        coarse = decompose(pm, Grouping(tuple(assignment))).h0
        # Split the largest group in two, if it has at least 2 rows.
        m_groups = max(assignment) + 1
        counts = [assignment.count(g) for g in range(m_groups)]
        g = counts.index(max(counts))
        if counts[g] < 2:
            continue
        members = [i for i, a in enumerate(assignment) if a == g]
        refined = list(assignment)
        refined[members[0]] = m_groups
        fine = decompose(pm, Grouping(tuple(refined))).h0
        assert fine >= coarse - 1e-12


def test_singleton_grouping_h0():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[3, 1], [1, 3], [3, 1]]))
    rep = decompose(pm, Grouping((0, 1, 2)))
    row_term = sum(
        pm.joint[i].sum() * entropy_bits(pm.joint[i] / pm.joint[i].sum())
        for i in range(3))
    assert rep.h0 == pytest.approx(rep.h_n - row_term, abs=1e-12)


def test_inconsistent_model_raises_even_under_python_O():
    # Each group entropy comes back 1 bit too high, so H(n) misses
    # H0 + sum Pg Hg by 1 bit: a bug, reported even when asserts are off.
    code = """
from infodiv import Grouping, build_matrix, decompose, entropy
from infodiv import probability_model
exact = entropy._entropies
def one_bit_high(sums):
    bits, weights = exact(sums)
    return bits + 1, weights
entropy._entropies = one_bit_high
pm = probability_model(build_matrix(["a", "b"], ["x", "y"], [[1, 3], [2, 1]]))
try:
    decompose(pm, Grouping((0, 1)))
except AssertionError:
    print("raised")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src})
    assert out.stdout.strip() == "raised"


@st.composite
def grouped_models(draw, cells=st.one_of(
        st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0]), st.floats(0.0, 10.0))):
    """A model of up to 60 rows of `cells` and a grouping of its rows: one
    column in a third of them; one group, one group a row, up to 3 groups
    (more than 8 rows each on the larger models) or any number of
    groups."""
    n = draw(st.integers(1, 60))
    k = draw(st.one_of(st.just(1), st.integers(1, 30)))
    values = draw(arrays(float, (n, k), elements=cells))
    values[values.sum(axis=1) == 0, 0] = 1.0
    kind = draw(st.sampled_from(["one", "singletons", "few", "any"]))
    if kind == "one":
        assignment = [0] * n
    elif kind == "singletons":
        assignment = list(range(n))
    else:
        top = 2 if kind == "few" else n - 1
        ids: dict[int, int] = {}
        assignment = [ids.setdefault(g, len(ids)) for g in draw(
            st.lists(st.integers(0, top), min_size=n, max_size=n))]
    return (probability_model(build_matrix(range(n), range(k), values)),
            Grouping(tuple(assignment)))


# The group sums pool the raw values, each group's rows a gather of at most
# `_BLOCK_CELLS` cells at a time. On integer cells every order of the rows
# gives the same sums, the 2-D np.add.at's among them.
@given(grouped_models(), st.sampled_from([1, 7, 64, entropy._BLOCK_CELLS]))
@settings(max_examples=examples(300), deadline=None)
def test_decompose_pools_raw_rows_block_by_block_bit_for_bit(case, block):
    pm, grouping = case
    sums = []
    exact = entropy._entropies

    def spy(rows):
        sums.append(rows.copy())
        return exact(rows)
    with unittest.mock.patch.object(entropy, "_BLOCK_CELLS", block), \
            unittest.mock.patch.object(entropy, "_entropies", spy):
        decompose(pm, grouping)
    step = max(1, block // pm.n_cols)
    want = reference_group_sums(pm.values, grouping.assignment, grouping.m,
                                step)
    assert sums[0].shape == want.shape
    assert sums[0].tobytes() == want.tobytes()
    if (np.floor(pm.values) == pm.values).all():
        added = np.zeros_like(want)
        np.add.at(added, np.asarray(grouping.assignment), pm.values)
        assert added.tobytes() == want.tobytes()


def test_decompose_peak_memory_is_bounded():
    # Each group's rows are gathered a block of at most 2^16 cells (0.5 MB)
    # at a time: the rows of one group of all 600,000 cells, gathered at
    # once, would be 4.8 MB, as would the divided joint.
    rng = np.random.default_rng(23)
    values = rng.random((2000, 300))
    pm = ProbabilityModel(values, float(values.sum()))
    for assignment in [i % 18 for i in range(2000)], [0] * 2000:
        grouping = Grouping(tuple(assignment))
        tracemalloc.start()
        try:
            decompose(pm, grouping)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _report_bits(report):
    """Each float of an EntropyReport, bit for bit."""
    return [x.hex() for x in (report.h_n, report.h_m, report.h_joint,
                              report.h_cond, report.h0, report.h0_ratio,
                              *itertools.chain(*report.groups))]


@given(grouped_models(st.sampled_from(ROUNDING_COUNTS).map(float)),
       st.data(), st.sampled_from([1, 7, 64, entropy._BLOCK_CELLS]))
@settings(max_examples=examples(200), deadline=None)
def test_exact_pooling_decompose_depends_only_on_the_partition(case, data,
                                                               block):
    # The same counts, each row kept in its group, with the rows in
    # another order and summed a block of another size at a time: on count
    # input every group sum is exact, so every number is the same float.
    pm, grouping = case
    order = data.draw(st.permutations(range(pm.n_rows)))
    moved = probability_model(build_matrix(
        range(pm.n_rows), range(pm.n_cols), pm.values[order]))
    regrouped = Grouping(tuple(grouping.assignment[i] for i in order))
    report = decompose(pm, grouping)
    with unittest.mock.patch.object(entropy, "_BLOCK_CELLS", block):
        assert _report_bits(decompose(moved, regrouped)) == \
            _report_bits(report)
