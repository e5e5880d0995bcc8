import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodiv import (
    ClusterOptions,
    Grouping,
    build_matrix,
    divisive_cluster,
    evaluate_bipartition,
    extract_clusters,
    greedy_bisect,
    probability_model,
    transmission,
)

from infodiv.cluster import STRICT_TOL, _first_best, exhaustive_bisect

from conftest import brute_local_h0, random_matrix, \
    reference_exhaustive_bisect, reference_greedy_bisect

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
    assert sorted(map(sorted, extract_clusters(
        dend, rule="height", height=0.0))) == [[0, 1, 2, 3]]
    d2 = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                       [[2, 0], [0, 2]]))
    assert sorted(map(sorted, extract_clusters(d2))) == [[0], [1]]
    with pytest.raises(ValueError):
        extract_clusters(dend, rule="height", height=-1)


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
                transmission(pm, grouping), abs=1e-9)


def test_total_height_bounded_by_h_n(rng):
    for _ in range(20):
        m = random_matrix(rng, max_rows=7)
        pm = probability_model(m)
        dend = divisive_cluster(m, ClusterOptions(stop_rule="full"))
        from infodiv import shannon_entropy
        assert dend.max_height() <= shannon_entropy(pm.col_marginal) + 1e-9


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
def sparse_count_matrices(draw):
    """Small count matrices with many zero cells and some exactly repeated
    rows, whose candidate splits tie exactly."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, 5))
    cell = st.sampled_from([0, 0, 0, 1, 2, 5])
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


@given(sparse_count_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_bisect_searches_match_per_candidate_reference(m, data):
    pm = probability_model(m)
    order = data.draw(st.permutations(range(m.n_rows)))
    subtree = tuple(order[:data.draw(st.integers(2, m.n_rows))])
    for stop in ("divisive", "full"):
        assert greedy_bisect(pm, subtree, ClusterOptions(stop_rule=stop)) == \
            reference_greedy_bisect(pm, subtree, stop)
    assert exhaustive_bisect(pm, subtree) == \
        reference_exhaustive_bisect(pm, subtree)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=30),
       st.integers(-1, 12))
@settings(max_examples=300, deadline=None)
def test_first_best_is_the_sequential_tie_rule(steps, floor_step):
    # Scores on a grid of 0.4 * STRICT_TOL: many gaps fall either side of
    # the tolerance.
    scores = np.array(steps) * 0.4 * STRICT_TOL
    floor = -np.inf if floor_step < 0 else floor_step * 0.4 * STRICT_TOL
    best = None
    for i, s in enumerate(scores):
        if s > (floor if best is None else scores[best] + STRICT_TOL):
            best = i
    assert _first_best(scores, floor)[0] == best
