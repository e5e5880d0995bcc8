import io
import itertools
import math
import subprocess
import sys
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infodiv import (
    ClusterOptions,
    Grouping,
    build_matrix,
    cluster,
    decompose,
    divisive_cluster,
    entropy,
    evaluate_bipartition,
    exhaustive_partition,
    extract_clusters,
    greedy_bisect,
    pooled_profile,
    probability_model,
    shannon_entropy,
)

from infodiv.cluster import _ARGMAX_MIN, STRICT_TOL, _first_best, \
    _split_scores, exhaustive_bisect
from infodiv.entropy import _entropies, _xlog2x_table
from infodiv.io import export_dendrogram, parse_csv

from conftest import ROUNDING_COUNTS, brute_local_h0, examples, \
    random_matrix, reference_entropies, reference_evaluate_bipartition, \
    reference_exhaustive_bisect, reference_exhaustive_partition, \
    reference_exhaustive_tree, reference_greedy_bisect, \
    reference_split_scores

BLOCK = [[4, 4, 0, 0], [4, 4, 0, 0], [0, 0, 4, 4], [0, 0, 4, 4]]


def block_model():
    return probability_model(build_matrix(list("abcd"), list("wxyz"), BLOCK))


def test_evaluate_bipartition_block():
    ev = evaluate_bipartition(block_model(), (0, 1, 2, 3), (0, 1))
    assert ev.h_aggregate == 2.0
    assert ev.h_left == 1.0 and ev.h_right == 1.0
    assert ev.local_h0 == 1.0 and ev.global_delta == 1.0
    assert ev.divisive
    # Independent loop-based cross-check.
    assert ev.local_h0 == pytest.approx(
        brute_local_h0(BLOCK, (0, 1, 2, 3), (0, 1)), abs=1e-12)


def test_greedy_ties_go_to_the_first_row_in_group_order():
    # The two seeds tie; the one listed first in the group wins, whatever
    # its row index, so a child group's order (the order its rows joined)
    # decides its ties.
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 2], [2, 1]]))
    full = ClusterOptions(stop_rule="full")
    assert greedy_bisect(pm, (1, 0), full).left == (1,)
    assert greedy_bisect(pm, (0, 1), full).left == (0,)


def test_evaluate_bipartition_identical_rows_not_divisive():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 1], [1, 1]]))
    ev = evaluate_bipartition(pm, (0, 1), (0,))
    assert ev.local_h0 == pytest.approx(0.0, abs=1e-12)
    assert not ev.divisive
    assert ev.h_left == ev.h_aggregate


def test_evaluate_bipartition_perfect_separation():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    ev = evaluate_bipartition(pm, (0, 1), (0,))
    assert ev.divisive and ev.local_h0 == 1.0


def test_not_both_sides_above_aggregate(rng):
    for _ in range(30):
        m = random_matrix(rng, max_rows=6)
        pm = probability_model(m)
        rows = tuple(range(m.n_rows))
        for size in range(1, m.n_rows):
            for left in itertools.combinations(rows, size):
                ev = evaluate_bipartition(pm, rows, left)
                assert not (ev.h_left > ev.h_aggregate + 1e-12
                            and ev.h_right > ev.h_aggregate + 1e-12)
                assert ev.local_h0 >= 0 and ev.global_delta >= 0


def test_greedy_bisect_block():
    ev = greedy_bisect(block_model(), (0, 1, 2, 3))
    assert sorted(ev.left) in ([0, 1], [2, 3])
    assert ev.local_h0 == pytest.approx(1.0, abs=1e-12)
    # Brute force over all 7 bipartitions confirms the maximum.
    best = max(brute_local_h0(BLOCK, (0, 1, 2, 3), (0,) + extra)
               for r in range(3)
               for extra in itertools.combinations((1, 2, 3), r))
    assert ev.local_h0 == pytest.approx(best, abs=1e-12)


def test_greedy_bisect_identical_rows_no_split():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 1], [1, 1]]))
    assert greedy_bisect(pm, (0, 1)) is None
    # Full-tree mode still returns the (non-divisive) bipartition.
    ev = greedy_bisect(pm, (0, 1), ClusterOptions(stop_rule="full"))
    assert ev is not None and not ev.divisive


def test_greedy_bisect_outlier_pair():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[2, 0], [0, 2], [2, 0]]))
    ev = greedy_bisect(pm, (0, 1, 2))
    assert sorted(ev.left) == [1] or sorted(ev.right) == [1]


def test_divisive_cluster_block():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    dend = divisive_cluster(m)
    root = dend.root
    assert sorted(root.split.left) in ([0, 1], [2, 3])
    assert root.split.global_delta == pytest.approx(1.0, abs=1e-12)
    assert all(c.is_leaf for c in root.children)
    assert all(c.height == pytest.approx(1.0) for c in root.children)


def test_divisive_cluster_single_row():
    dend = divisive_cluster(build_matrix(["a"], ["x", "y"], [[1, 2]]))
    assert dend.root.is_leaf and dend.root.members == (0,)


def test_divisive_cluster_two_rows():
    dend = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                         [[2, 0], [0, 2]]))
    assert dend.max_height() == pytest.approx(1.0)
    assert all(len(l.members) == 1 for l in dend.leaves())


def test_extract_clusters():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    dend = divisive_cluster(m)
    assert sorted(map(sorted, extract_clusters(dend))) == [[0, 1], [2, 3]]
    assert sorted(map(sorted, extract_clusters(dend, height=0.0))) == \
        [[0, 1, 2, 3]]
    d2 = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                       [[2, 0], [0, 2]]))
    assert sorted(map(sorted, extract_clusters(d2))) == [[0], [1]]
    with pytest.raises(ValueError):
        extract_clusters(dend, height=-1)
    # An infinite height is valid (NaN is not, see test_io): it cuts below
    # every split, down to the leaves.
    assert sorted(map(sorted, extract_clusters(
        dend, height=float("inf")))) == [[0, 1], [2, 3]]


def all_cut_groupings(dend):
    """Every grouping obtainable by cutting the tree, with the summed
    global_delta of the splits above the cut."""
    results = []

    def expand(frontier, delta_sum):
        results.append((tuple(frontier), delta_sum))
        for k, node in enumerate(frontier):
            if not node.is_leaf:
                nxt = frontier[:k] + list(node.children) + frontier[k + 1:]
                expand(nxt, delta_sum + node.split.global_delta)

    expand([dend.root], 0.0)
    return results


def test_chain_rule_additivity(rng):
    for _ in range(15):
        m = random_matrix(rng, max_rows=6)
        pm = probability_model(m)
        dend = divisive_cluster(m, ClusterOptions(stop_rule="full"))
        seen = set()
        for frontier, delta_sum in all_cut_groupings(dend):
            key = tuple(sorted(n.members for n in frontier))
            if key in seen:
                continue
            seen.add(key)
            grouping = Grouping.from_sets([n.members for n in frontier],
                                          m.n_rows)
            assert delta_sum == pytest.approx(
                decompose(pm, grouping).h0, abs=1e-9)


def test_total_height_bounded_by_h_n(rng):
    for _ in range(20):
        m = random_matrix(rng, max_rows=7)
        pm = probability_model(m)
        dend = divisive_cluster(m, ClusterOptions(stop_rule="full"))
        h_n = shannon_entropy(pm.joint.sum(axis=0))
        assert dend.max_height() <= h_n + 1e-9


def test_identical_profile_rows_merge_equivalence():
    # Merging two proportional rows changes no split's contribution.
    vals = [[2, 0, 2], [4, 0, 4], [0, 3, 1], [1, 0, 9]]
    m1 = build_matrix(list("abcd"), list("xyz"), vals)
    merged = [[6, 0, 6], [0, 3, 1], [1, 0, 9]]
    m2 = build_matrix(["ab", "c", "d"], list("xyz"), merged)
    d1 = divisive_cluster(m1)
    d2 = divisive_cluster(m2)

    def deltas(dend):
        out = []

        def walk(n):
            if not n.is_leaf:
                out.append(round(n.split.global_delta, 9))
                walk(n.children[0])
                walk(n.children[1])

        walk(dend.root)
        return sorted(out)

    assert deltas(d1) == pytest.approx(deltas(d2), abs=1e-9)


@st.composite
def sparse_count_matrices(draw, max_cols=5, cells=(0, 0, 0, 1, 2, 5),
                          max_rows=10):
    """Small count matrices of `cells` with many zero cells and some
    exactly repeated rows, whose candidate splits tie exactly."""
    n = draw(st.integers(2, max_rows))
    k = draw(st.integers(1, max_cols))
    cell = st.sampled_from(cells)
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)) == 0:
            row = list(draw(st.sampled_from(rows)))
        else:
            row = draw(st.lists(cell, min_size=k, max_size=k))
            if sum(row) == 0:
                row[draw(st.integers(0, k - 1))] = 1
        rows.append(row)
    return build_matrix([f"r{i}" for i in range(n)],
                        [f"c{j}" for j in range(k)], rows)


@st.composite
def two_scale_matrices(draw, max_rows=8):
    """Rows with cells near 1 and rows with cells near 1e-17 within the
    columns of the large rows. A group's sum minus the sum of its large rows
    then rounds to 0 in every column, so a right half of weight 0 reaches
    the masked divide of `_entropies`."""
    n = draw(st.integers(2, max_rows))
    k = draw(st.integers(1, 4))
    big = draw(st.lists(st.sampled_from([0, 1, 1, 2, 5]), min_size=k,
                        max_size=k).filter(any))
    rows = []
    for i in range(n):
        scale = 1.0 if i == 0 else draw(st.sampled_from([1.0, 1e-17]))
        cells = [c * draw(st.sampled_from([0, 1, 1, 3])) for c in big]
        if not any(cells):
            cells = big
        rows.append([c * scale for c in cells])
    order = draw(st.permutations(range(n)))
    return build_matrix([f"r{i}" for i in range(n)],
                        [f"c{j}" for j in range(k)],
                        [rows[i] for i in order])


@st.composite
def float_matrices(draw, max_cols=12, max_rows=14):
    """Matrices of non-integer cells at several scales, some zero, whose
    pooled sums round."""
    n = draw(st.integers(2, max_rows))
    k = draw(st.integers(1, max_cols))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    rows = [draw(st.lists(cell, min_size=k, max_size=k)) for _ in range(n)]
    for row in rows:
        if not any(row):
            row[0] = 0.7
    return build_matrix([f"r{i}" for i in range(n)],
                        [f"c{j}" for j in range(k)], rows)


@given(st.one_of(sparse_count_matrices(), two_scale_matrices()), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_bisect_searches_match_per_candidate_reference(m, data):
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    for stop in ("divisive", "full"):
        assert greedy_bisect(pm, subtree, ClusterOptions(stop_rule=stop)) == \
            reference_greedy_bisect(pm, subtree, stop)
    assert exhaustive_bisect(pm, subtree) == \
        reference_exhaustive_bisect(pm, subtree)


@given(st.one_of(sparse_count_matrices(max_rows=12),
                 two_scale_matrices(max_rows=12), float_matrices(max_rows=12)),
       st.data())
@settings(max_examples=examples(100), deadline=None)
def test_subset_table_searches_match_the_references(m, data):
    # On a model of at most 12 rows both exhaustive searches score by
    # lookup in one subset table; the references score every candidate
    # through evaluate_bipartition or decompose. The bisection is of a
    # random group of the rows, as at a node of a tree.
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    assert exhaustive_bisect(pm, subtree) == \
        reference_exhaustive_bisect(pm, subtree)
    for stop in ("divisive", "full"):
        assert divisive_cluster(m, ClusterOptions(stop_rule=stop),
                                "exhaustive") == \
            reference_exhaustive_tree(m, stop)
    if m.n_rows <= 7:  # the reference decomposes every partition
        for max_groups in range(1, m.n_rows + 1):
            assert exhaustive_partition(pm, max_groups) == \
                reference_exhaustive_partition(pm, max_groups)


def test_streaming_bisect_of_a_larger_model_matches_the_reference(
        rng, monkeypatch):
    # Above 12 rows no table is built: the left halves of a group are
    # pooled a chunk at a time, here of a few rows of columns each.
    for _ in range(10):
        m = random_matrix(rng, max_rows=16, min_rows=13, max_cols=5)
        pm = probability_model(m)
        subtree = tuple(rng.permutation(m.n_rows)[:rng.integers(3, 8)]
                        .tolist())
        monkeypatch.setattr(cluster, "_CELLS", 3 * m.n_cols)
        chunked = exhaustive_bisect(pm, subtree)
        monkeypatch.undo()
        assert chunked == reference_exhaustive_bisect(pm, subtree)
        assert "subsets" not in pm.cache


@given(st.one_of(sparse_count_matrices(max_cols=12), two_scale_matrices(),
                 float_matrices(), float_matrices(max_cols=1)), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_greedy_reports_what_evaluate_bipartition_reports(m, data):
    # The search scores its winner from its own sums: the group's, the left
    # half's added in join order, and the right half's rows pooled.
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    for stop in ("divisive", "full"):
        greedy = greedy_bisect(pm, subtree, ClusterOptions(stop_rule=stop))
        if greedy is not None:
            ev = evaluate_bipartition(pm, subtree, greedy.left)
            assert greedy == ev
            assert _split_bits(greedy) == _split_bits(ev)


@given(st.one_of(sparse_count_matrices(), two_scale_matrices()), st.data())
@settings(max_examples=examples(100), deadline=None)
def test_two_row_greedy_calls_no_kernel(m, data):
    pm = probability_model(m)
    pair = tuple(data.draw(st.permutations(range(m.n_rows)))[:2])
    calls = []

    def spy(sums, *args):
        calls.append(len(sums))
        return _split_scores(sums, *args)
    with unittest.mock.patch.object(cluster, "_split_scores", spy):
        for stop in ("divisive", "full"):
            assert greedy_bisect(pm, pair, ClusterOptions(stop_rule=stop)) \
                == reference_greedy_bisect(pm, pair, stop)
        assert calls == []
        if m.n_rows > 2:  # the spy sees the kernel of a larger group
            greedy_bisect(pm, tuple(range(m.n_rows)))
            assert calls[0] == 2 * m.n_rows + 1


@given(sparse_count_matrices())
@settings(max_examples=examples(40), deadline=None)
def test_the_sign_of_a_zero_cell_never_changes_a_tree(m):
    # The seed move forms its one-row lefts as 0.0 + row, which turns a
    # -0.0 cell into 0.0; no score, and so no export, may tell them apart.
    def export(zero):
        lines = [",".join(["", *m.col_labels])]
        lines += [",".join([label, *(f"{v:g}" if v else zero for v in row)])
                  for label, row in zip(m.row_labels, m.values.tolist())]
        parsed = parse_csv(io.StringIO("\n".join(lines) + "\n"))
        if zero == "-0" and (m.values == 0).any():
            assert np.signbit(parsed.values[m.values == 0]).all()
        return [export_dendrogram(divisive_cluster(
                    parsed, ClusterOptions(stop_rule=stop), method), fmt)
                for stop in ("divisive", "full")
                for method in ("greedy", "exhaustive")
                for fmt in ("json", "newick")]

    assert export("-0") == export("0")


@given(st.data())
@settings(max_examples=examples(300), deadline=None)
def test_first_best_is_the_sequential_tie_rule(data):
    # Scores on a grid of 0.4 * STRICT_TOL, and -inf for step -1: on a grid
    # of 12 steps many gaps fall either side of the tolerance; on one of
    # 10**6 steps the top score mostly stands clear, which from
    # _ARGMAX_MIN scores on is taken by the argmax.
    hi = data.draw(st.sampled_from([12, 10 ** 6]))
    n = data.draw(st.integers(1, 2 * _ARGMAX_MIN + 20))
    steps = data.draw(st.lists(st.integers(-1, hi), min_size=n, max_size=n))
    floor_step = data.draw(st.integers(-1, hi))
    scores = np.array([-np.inf if s < 0 else s * 0.4 * STRICT_TOL
                       for s in steps])
    floor = -np.inf if floor_step < 0 else floor_step * 0.4 * STRICT_TOL
    best, want = None, floor
    for i, s in enumerate(scores.tolist()):
        if s > want:
            best, want = i, s + STRICT_TOL
    assert _first_best(scores, floor) == (best, want)


def _float_bits(ev):
    """Each float field of a SplitEvaluation, bit for bit."""
    return [getattr(ev, f).hex() for f in ("h_aggregate", "h_left",
                                           "h_right", "local_h0",
                                           "global_delta")]


# Past 8 columns numpy sums in blocks, so whether zero cells are summed
# changes the bits.
@given(sparse_count_matrices(max_cols=30), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_evaluate_bipartition_is_the_public_route_bit_for_bit(m, data):
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    left = tuple(data.draw(st.permutations(subtree))
                 [:data.draw(st.integers(1, len(subtree) - 1))])
    ev = evaluate_bipartition(pm, subtree, left)
    ref = reference_evaluate_bipartition(pm, subtree, left)
    assert ev == ref
    assert _float_bits(ev) == _float_bits(ref)


def _split_bits(ev):
    """A split's numbers, bit for bit, by row set rather than by side."""
    sides = {frozenset(ev.left): ev.h_left.hex(),
             frozenset(ev.right): ev.h_right.hex()}
    return sides, [x.hex() for x in (ev.h_aggregate, ev.local_h0,
                                     ev.global_delta)], ev.divisive


@given(sparse_count_matrices(max_cols=12, cells=ROUNDING_COUNTS),
       st.data())
@settings(max_examples=examples(200), deadline=None)
def test_exact_pooling_split_numbers_depend_only_on_row_sets(m, data):
    # On count input every pooled sum is exact, so a split scores the same
    # whatever the order of its rows, whichever half is `left`, and
    # whichever search found it.
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    left = tuple(data.draw(st.permutations(subtree))
                 [:data.draw(st.integers(1, len(subtree) - 1))])
    ev = evaluate_bipartition(pm, subtree, left)
    for other in ((tuple(sorted(subtree)), tuple(sorted(left))),
                  (subtree[::-1], left[::-1]), (subtree, ev.right)):
        assert _split_bits(evaluate_bipartition(pm, *other)) == \
            _split_bits(ev)
    # The kernel ranks by another form of the same number: within 1e-13
    # bits of local_h0, and one float for every order of the rows and
    # either half as `left`.
    def kernel(group, half):
        sums = np.zeros((3, m.n_cols))
        sums[0] = m.values[list(group)].sum(axis=0)
        sums[1] = m.values[list(half)].sum(axis=0)
        return _split_scores(sums, _xlog2x_table(pm))[0].hex()

    score = kernel(subtree, left)
    assert abs(float.fromhex(score) - ev.local_h0) <= 1e-13
    for other in ((sorted(subtree), sorted(left)),
                  (subtree[::-1], left[::-1]), (subtree, ev.right)):
        assert kernel(*other) == score

    greedy = greedy_bisect(pm, subtree, ClusterOptions(stop_rule="full"))
    exact = exhaustive_bisect(pm, subtree)
    if set(greedy.left) in (set(exact.left), set(exact.right)):
        assert _split_bits(greedy) == _split_bits(exact)
    for found in greedy, exact:
        assert _split_bits(found) == \
            _split_bits(evaluate_bipartition(pm, subtree[::-1], found.right))


# Each route pools the group's raw rows with one `.sum(axis=0)`, so the
# group's weight is one float too.
@given(sparse_count_matrices(max_cols=30), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_group_entropy_is_one_float_by_every_route(m, data):
    pm = probability_model(m)
    ids: dict[int, int] = {}
    assignment = [ids.setdefault(g, len(ids)) for g in data.draw(
        st.lists(st.integers(0, m.n_rows - 1), min_size=m.n_rows,
                 max_size=m.n_rows))]
    grouping = Grouping(tuple(assignment))
    report = decompose(pm, grouping)
    for g in range(grouping.m):
        members = grouping.members(g)
        weight, profile = pooled_profile(pm, members)
        bits, total = _entropies(pm.values[list(members)].sum(axis=0))
        routes = [report.groups[g][1], shannon_entropy(profile), float(bits)]
        assert {h.hex() for h in routes} == {routes[0].hex()}
        assert report.groups[g][0] == weight == float(total) / pm.total


def test_zero_weight_group_raises_even_under_python_O():
    # Row 1 is all zero, which build_matrix never lets through: a bug,
    # reported even when asserts are off, whichever half it falls in, by
    # the check that evaluate_bipartition and greedy_bisect share. Among
    # three rows of one profile every seed scores 0, so the greedy search
    # keeps its first seed, the zero row, and reports it from its own sums.
    code = """
import traceback
import numpy as np
from infodiv import ClusterOptions, evaluate_bipartition, greedy_bisect
from infodiv.matrix import ProbabilityModel
pm = ProbabilityModel(np.array([[.5, .5], [0, 0], [.5, .5]]), 2.0)
full = ClusterOptions(stop_rule="full")
for call in (lambda: evaluate_bipartition(pm, (0, 1), (0,)),
             lambda: evaluate_bipartition(pm, (0, 1), (1,)),
             lambda: greedy_bisect(pm, (1, 0, 2), full)):
    try:
        call()
    except AssertionError as e:
        print(traceback.extract_tb(e.__traceback__)[-1].name)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src})
    assert out.stdout.split() == ["_scored_split"] * 3


# Pooled values as the kernel sees them: mostly zero, some subnormal.
CELL = st.sampled_from([0.0, 0.0, 0.0, 5e-324, 3e-310, 1e-300, 0.125, 0.3,
                        1.0])


@given(st.integers(1, 6), st.integers(1, 7), st.data())
@settings(max_examples=examples(300), deadline=None)
def test_entropies_equal_the_masked_formula_bit_for_bit(m, c, data):
    halves = np.array(data.draw(st.lists(CELL, min_size=2 * m * c,
                                         max_size=2 * m * c))
                      ).reshape(2, m, c)
    for sums in (halves, halves[0], halves[0, 0]):
        for got, want in zip(_entropies(sums), reference_entropies(sums)):
            assert got.tobytes() == want.tobytes()
    # The kernel ranks by X H of the raw sums: its scores lie within 1e-13
    # bits of one reference call per half, and with divisive_only a split
    # that is not divisive scores -inf, wherever no half's entropy lies
    # within 1e-13 of that boundary. No score changes when every sum is
    # scaled by a power of two, so the reference scores the sums scaled to
    # a group total near 1, where its weights are not subnormal.
    total = halves[0].sum(axis=0) + halves[1].sum(axis=0)
    assume(total.any())
    left_sums = np.minimum(halves[0], total)
    scale = -math.frexp(total.sum())[1]
    total_ref, left_ref = np.ldexp(total, scale), np.ldexp(left_sums, scale)
    grand = data.draw(st.sampled_from([1.0, 0.75, 3.0]))
    scores, divisive = reference_split_scores(total_ref, left_ref, grand)
    boundary = reference_entropies(total_ref)[0] - STRICT_TOL
    clear = np.ones(len(left_sums), dtype=bool)
    for half in left_ref, np.maximum(total_ref - left_ref, 0.0):
        clear &= abs(reference_entropies(half)[0] - boundary) > 1e-13
    for divisive_only in (False, True):
        sums = np.concatenate([total[None], left_sums, left_sums])
        got = _split_scores(sums, None, divisive_only)
        if divisive_only:
            assert (np.isinf(got) == ~divisive)[clear].all()
            kept = ~np.isinf(got)
            got, want = got[kept], scores[kept]
        else:
            want = scores
        assert np.abs(got - want).max(initial=0.0) <= 1e-13


def _kernel_scores(pm, subtree, lefts, divisive_only):
    """The kernel's scores, as bytes, of the splits of `subtree` into each
    of `lefts` and the rest, with the model's x log2 x table."""
    sums = np.empty((2 * len(lefts) + 1, pm.n_cols))
    sums[0] = pm.values[list(subtree)].sum(axis=0)
    for i, left in enumerate(lefts, 1):
        sums[i] = pm.values[list(left)].sum(axis=0)
    return _split_scores(sums, _xlog2x_table(pm), divisive_only).tobytes()


@given(st.one_of(sparse_count_matrices(cells=(0, 1, 2, 97, 400, 4093)),
                 sparse_count_matrices(), two_scale_matrices()), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_xlog2x_table_is_a_memo_of_the_log2_route(m, data):
    # Every prefix of a random order of the group is a left half. The
    # table and np.log2 give each x log2 x the same bits, so every score.
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    lefts = [subtree[:i] for i in range(1, len(subtree))]
    tabled = probability_model(m)
    with unittest.mock.patch.object(entropy, "_TABLE_MAX", -1):
        logged = probability_model(m)
        assert _xlog2x_table(logged) is None
    counts = (m.values % 1 == 0).all()
    assert (_xlog2x_table(tabled) is not None) == counts
    for divisive_only in (False, True):
        assert _kernel_scores(tabled, subtree, lefts, divisive_only) == \
            _kernel_scores(logged, subtree, lefts, divisive_only)


@pytest.mark.parametrize("top", [2 ** 16, 2 ** 16 + 1])
def test_xlog2x_table_at_its_guard(top, rng):
    # A largest column total of 2^16 is tabulated, one of 2^16 + 1 is not;
    # either way the scores are those of the log2 route.
    vals = rng.integers(0, 40, size=(9, 6)).astype(float)
    vals[:, 0] += 1
    vals[0, 2] += top - vals[:, 2].sum()
    m = build_matrix([f"r{i}" for i in range(9)],
                     [f"c{j}" for j in range(6)], vals)
    pm = probability_model(m)
    table = _xlog2x_table(pm)
    if top == 2 ** 16:
        assert len(table) == top + 1 and not table.flags.writeable
        assert table[top] == top * 16.0 and table[0] == 0.0
    else:
        assert table is None
    subtree = tuple(rng.permutation(9).tolist())
    lefts = [subtree[:i] for i in range(1, 9)]
    with unittest.mock.patch.object(entropy, "_TABLE_MAX", -1):
        logged = probability_model(m)
        assert _xlog2x_table(logged) is None
    for divisive_only in (False, True):
        assert _kernel_scores(pm, subtree, lefts, divisive_only) == \
            _kernel_scores(logged, subtree, lefts, divisive_only)
    assert greedy_bisect(pm, subtree) == greedy_bisect(logged, subtree)


def test_xlog2x_table_memory():
    # Cells near 1e6 put every column total past the guard: no table, and
    # nothing the size of the values is allocated to find that out. A
    # corpus-sized model, 60 x 40 counts up to 400, builds a table of at
    # most 60 * 400 + 1 floats.
    rng = np.random.default_rng(3)
    for cells, bound in ((rng.integers(10 ** 6 - 100, 10 ** 6, (60, 40)),
                          2 ** 12),
                         (rng.integers(1, 401, (60, 40)), 2 ** 19)):
        pm = probability_model(build_matrix(
            [f"r{i}" for i in range(60)], [f"c{j}" for j in range(40)],
            cells))
        tracemalloc.start()
        try:
            table = _xlog2x_table(pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        if cells.max() > 400:
            assert table is None
        else:
            assert len(table) == cells.sum(axis=0).max() + 1
            assert table.nbytes <= 8 * (60 * 400 + 1)


def test_entropies_of_zero_columns_and_rows():
    sums = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.25, 0.0, 0.25],
                     [5e-324, 0.0, 5e-324]])
    h, w = _entropies(sums)  # no RuntimeWarning for the row of weight 0
    assert h.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert w.tolist() == [0.0, 0.5, 0.5, 1e-323]


# Rows of a few units of the smallest subnormal, 2^-1074, beside a row of
# total 2: rows 0 and 1 total 3 and 5 units, whose weights over the grand
# sum, 1.5 and 2.5 units, round to 2 and 2.
_U = 5e-324
_SUBNORMAL = [[_U, 2 * _U, 0.0], [4 * _U, _U, 0.0], [0.0, 1.0, 1.0],
              [0.0, _U, 3 * _U]]


def test_subnormal_groups_score_as_their_scaled_copies():
    # A group's split depends on its rows alone, and on them only up to a
    # common power of two. Scaling the whole matrix by 2^1000 leaves every
    # weight as it is and takes the raw totals out of the subnormal range;
    # scaling the group's rows alone makes their weights normal too.
    values = np.array(_SUBNORMAL)
    scaled = np.ldexp(values, 1000)
    rows_scaled = values.copy()
    rows_scaled[[0, 1, 3]] = scaled[[0, 1, 3]]
    models = [probability_model(build_matrix(list("abcd"), list("xyz"), v))
              for v in (values, scaled, rows_scaled)]
    for bisect in (lambda pm, group: evaluate_bipartition(pm, group, (0,)),
                   greedy_bisect, exhaustive_bisect):
        for group in (0, 1), (0, 1, 3):
            got = [bisect(pm, group) for pm in models]
            assert got[0] == got[1]
            assert got[0].left == got[2].left
            assert got[0].local_h0 == pytest.approx(got[2].local_h0,
                                                    rel=1e-12)
    # Weighted 3:5, not 1:1.
    h = [reference_entropies(np.array(row))[0] for row in
         ([5 / 8, 3 / 8], [1 / 3, 2 / 3], [4 / 5, 1 / 5])]
    assert evaluate_bipartition(models[0], (0, 1), (0,)).local_h0 == \
        pytest.approx(h[0] - (3 * h[1] + 5 * h[2]) / 8, rel=1e-12)
