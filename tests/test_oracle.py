import itertools
import math

import pytest

from infodiv import (
    SizeLimitError,
    build_matrix,
    exhaustive_bisect,
    exhaustive_partition,
    greedy_bisect,
    probability_model,
    restricted_growth_strings,
    transmission,
    verify_greedy,
    Grouping,
)

from conftest import brute_decompose, random_matrix, \
    reference_exhaustive_bisect

BLOCK = [[4, 4, 0, 0], [4, 4, 0, 0], [0, 0, 4, 4], [0, 0, 4, 4]]


def bell(n):
    # Bell numbers via the triangle recurrence.
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def test_rgs_counts_match_bell():
    for n in range(1, 8):
        parts = list(restricted_growth_strings(n, n))
        assert len(parts) == bell(n)
        assert len(set(parts)) == len(parts)


def test_rgs_respects_max_groups():
    for rgs in restricted_growth_strings(5, 2):
        assert max(rgs) + 1 <= 2
    # Partitions into at most 2 blocks: 2^(n-1).
    assert len(list(restricted_growth_strings(5, 2))) == 16


def test_exhaustive_bisect_block():
    pm = probability_model(build_matrix(list("abcd"), list("wxyz"), BLOCK))
    ev = exhaustive_bisect(pm, (0, 1, 2, 3))
    assert sorted(ev.left) == [0, 1]
    assert ev.local_h0 == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_bisect_identical_rows():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[1, 1], [1, 1]]))
    ev = exhaustive_bisect(pm, (0, 1))
    assert ev.local_h0 == pytest.approx(0.0, abs=1e-12)


def test_exhaustive_bisect_two_rows_forced():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    ev = exhaustive_bisect(pm, (0, 1))
    assert sorted(ev.left) == [0] and sorted(ev.right) == [1]


def test_exhaustive_bisect_ties_go_to_lexicographically_smallest_subset():
    # {a, d, e} | {b, c} and {a, e} | {b, c, d} tie exactly. In
    # lexicographic order (a, d, e) comes first; counting bitmasks up from
    # zero would reach {a, e} first.
    vals = [[0, 2, 1], [1, 0, 0], [3, 0, 2], [1, 1, 2], [0, 2, 1]]
    pm = probability_model(build_matrix(list("abcde"), list("xyz"), vals))
    ev = exhaustive_bisect(pm, (0, 1, 2, 3, 4))
    assert ev.left == (0, 3, 4)
    assert ev == reference_exhaustive_bisect(pm, (0, 1, 2, 3, 4))


def test_size_guards_are_hard_errors():
    n = 26
    vals = [[i + 1, 1] for i in range(n)]
    m = build_matrix([f"r{i}" for i in range(n)], ["x", "y"], vals)
    pm = probability_model(m)
    with pytest.raises(SizeLimitError):
        exhaustive_bisect(pm, tuple(range(n)))
    with pytest.raises(SizeLimitError):
        exhaustive_partition(pm, 2)


def test_exhaustive_partition_two_rows():
    pm = probability_model(build_matrix(["a", "b"], ["x", "y"],
                                        [[2, 0], [0, 2]]))
    rep = exhaustive_partition(pm, 2)
    assert rep.best_grouping.assignment == (0, 1)
    assert rep.best_h0 == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_partition_identical_rows_prefers_fewest_groups():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[1, 1], [1, 1], [1, 1]]))
    rep = exhaustive_partition(pm, 3)
    assert rep.best_grouping.m == 1
    assert rep.best_h0 == pytest.approx(0.0, abs=1e-12)


def test_exhaustive_partition_hand_example():
    pm = probability_model(build_matrix(["a", "b", "c"], ["x", "y"],
                                        [[3, 1], [1, 3], [3, 1]]))
    rep = exhaustive_partition(pm, 3)
    assert rep.candidates_examined == 5
    assert rep.best_grouping.assignment == (0, 1, 0)
    # Independent enumeration of the 5 partitions of 3 elements.
    best = max(brute_decompose([[3, 1], [1, 3], [3, 1]], list(a))[3]
               for a in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                         (0, 1, 2)])
    assert rep.best_h0 == pytest.approx(best, abs=1e-12)
    assert rep.best_h0 == pytest.approx(0.1687, abs=1e-3)


def test_exhaustive_ge_greedy(rng):
    for _ in range(25):
        m = random_matrix(rng, max_rows=7, max_cols=5)
        pm = probability_model(m)
        rows = tuple(range(m.n_rows))
        exact = exhaustive_bisect(pm, rows)
        from infodiv import ClusterOptions
        greedy = greedy_bisect(pm, rows, ClusterOptions(stop_rule="full"))
        greedy_h0 = greedy.local_h0 if greedy else 0.0
        assert exact.local_h0 >= greedy_h0 - 1e-12


def test_partition_beyond_profile_classes_never_helps(rng):
    for _ in range(10):
        m = random_matrix(rng, max_rows=6, max_cols=4)
        pm = probability_model(m)
        full = exhaustive_partition(pm, m.n_rows)
        singles = transmission(pm, Grouping(tuple(range(m.n_rows)),
                                            m.n_rows))
        assert full.best_h0 == pytest.approx(singles, abs=1e-9) or \
            full.best_h0 >= singles - 1e-12


def test_verify_greedy_block_and_forced():
    rep = verify_greedy(build_matrix(list("abcd"), list("wxyz"), BLOCK))
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    rep2 = verify_greedy(build_matrix(["a", "b"], ["x", "y"],
                                      [[2, 0], [0, 2]]))
    assert rep2.gap == pytest.approx(0.0, abs=1e-12)


def test_verify_greedy_random_suite(rng):
    equal = 0
    for _ in range(20):
        m = random_matrix(rng, max_rows=6, min_rows=6, max_cols=5,
                          min_cols=5)
        rep = verify_greedy(m)
        assert rep.gap >= -1e-12
        if rep.gap <= 1e-9:
            equal += 1
    # No target frequency asserted; the bound is the contract.
    assert 0 <= equal <= 20
