import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodiv import cluster, oracle
from infodiv import (
    ClusterOptions,
    SizeLimitError,
    build_matrix,
    decompose,
    divisive_cluster,
    exhaustive_bisect,
    exhaustive_partition,
    greedy_bisect,
    probability_model,
    verify_greedy,
    Grouping,
)
from infodiv.cli import run_cli

from conftest import brute_decompose, examples, random_matrix, \
    reference_exhaustive_bisect, reference_exhaustive_partition, \
    reference_restricted_growth_strings

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
    # Also the bound's worst case: every partition scores 0, so nothing is
    # pruned and all Bell(n) leaves are scored.
    for n in (3, 10):
        pm = probability_model(build_matrix(
            [f"r{i}" for i in range(n)], ["x", "y"], [[1, 1]] * n))
        rep = exhaustive_partition(pm, n)
        assert rep.best_grouping.m == 1
        assert rep.best_h0 == pytest.approx(0.0, abs=1e-12)
        assert rep.candidates_examined == bell(n)


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


def test_exhaustive_partition_counts_every_partition():
    # The count is of the strings covered, pruned or scored.
    for n in range(1, 13):
        pm = probability_model(build_matrix(
            [f"r{i}" for i in range(n)], ["x", "y"],
            [[i + 1, 1] for i in range(n)]))
        assert exhaustive_partition(pm, n).candidates_examined == bell(n)
        if n <= 8:
            for max_groups in range(1, n + 1):
                assert exhaustive_partition(pm, max_groups) \
                    .candidates_examined == sum(
                        1 for _ in reference_restricted_growth_strings(
                            n, max_groups))


def test_exhaustive_partition_prunes_a_block_matrix():
    # 12 rows in 3 blocks: all 4,213,597 partitions take seconds to score
    # one by one; the bound leaves a few thousand prefixes.
    rng = np.random.default_rng(5)
    profiles = rng.dirichlet(np.ones(6), size=3)
    vals = np.stack([rng.multinomial(60, profiles[i % 3])
                     for i in range(12)])
    pm = probability_model(build_matrix(
        [f"r{i:02d}" for i in range(12)], [f"c{j}" for j in range(6)], vals))
    start = time.perf_counter()
    rep = exhaustive_partition(pm, 12)
    assert time.perf_counter() - start < 2.0
    assert rep.candidates_examined == bell(12)
    assert rep.best_h0 >= decompose(pm, Grouping(
        tuple(i % 3 for i in range(12)))).h0 - 1e-12


def test_exhaustive_partition_respects_max_groups():
    # Rows with disjoint support: every split adds information, so the
    # winner uses every block it may, and no more.
    pm = probability_model(build_matrix(list("abcde"), list("vwxyz"),
                                        np.eye(5, dtype=int)))
    for max_groups in range(1, 6):
        assert exhaustive_partition(pm, max_groups).best_grouping.m == \
            max_groups


def test_exhaustive_partition_ties_go_to_lexicographically_smallest_string():
    # The matrix of the bisection tie test above: the strings
    # (0, 1, 1, 0, 0) and (0, 1, 1, 1, 0) have the same H0 bits, and the
    # search must reach the smaller one first.
    vals = [[0, 2, 1], [1, 0, 0], [3, 0, 2], [1, 1, 2], [0, 2, 1]]
    pm = probability_model(build_matrix(list("abcde"), list("xyz"), vals))
    rep = exhaustive_partition(pm, 2)
    assert rep.best_grouping.assignment == (0, 1, 1, 0, 0)
    assert rep.best_h0.hex() == "0x1.89b2a4e107df8p-2"
    assert decompose(pm, Grouping((0, 1, 1, 1, 0))).h0 == rep.best_h0


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
        singles = decompose(pm, Grouping(tuple(range(m.n_rows)))).h0
        assert full.best_h0 == pytest.approx(singles, abs=1e-9) or \
            full.best_h0 >= singles - 1e-12


def test_verify_greedy_block_and_forced():
    rep = verify_greedy(probability_model(
        build_matrix(list("abcd"), list("wxyz"), BLOCK)))
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    rep2 = verify_greedy(probability_model(
        build_matrix(["a", "b"], ["x", "y"], [[2, 0], [0, 2]])))
    assert rep2.gap == pytest.approx(0.0, abs=1e-12)


def test_verify_greedy_reports_no_gap_for_the_same_split():
    # Greedy grows the left half {3, 4, 5, 7}, the exhaustive search's
    # right half. Pooled from probabilities in their own orders, the two
    # scores of that split differed by 2^-51; pooled from the counts, each
    # sum is exact, and the scores are equal.
    counts = [[0, 27, 7, 4, 3, 25, 3, 47, 3, 0, 34, 4],
              [1, 3, 1, 0, 0, 7, 2, 9, 2, 0, 4, 1],
              [0, 13, 2, 1, 1, 13, 0, 27, 3, 1, 11, 3],
              [5, 76, 15, 11, 10, 4, 2, 0, 1, 18, 28, 1],
              [0, 11, 5, 1, 1, 2, 0, 0, 0, 4, 4, 0],
              [1, 19, 7, 3, 2, 0, 1, 0, 0, 6, 12, 0],
              [2, 20, 1, 2, 0, 11, 4, 39, 5, 0, 23, 6],
              [8, 52, 14, 9, 14, 1, 2, 1, 0, 19, 26, 0]]
    model = probability_model(build_matrix(
        [f"r{i}" for i in range(8)], [f"c{j}" for j in range(12)], counts))
    all_rows = tuple(range(8))
    greedy = greedy_bisect(model, all_rows,
                           cluster.ClusterOptions(stop_rule="full"))
    exact = exhaustive_bisect(model, all_rows)
    assert set(greedy.left) == set(exact.right) == {3, 4, 5, 7}
    assert greedy.local_h0 == exact.local_h0
    rep = verify_greedy(model)
    assert rep.greedy_h0 == rep.best_h0 == exact.local_h0
    assert rep.gap == 0.0


def test_verify_greedy_random_suite(rng):
    equal = 0
    for _ in range(20):
        m = random_matrix(rng, max_rows=6, min_rows=6, max_cols=5,
                          min_cols=5)
        rep = verify_greedy(probability_model(m))
        assert rep.gap >= -1e-12
        if rep.gap <= 1e-9:
            equal += 1
    # No target frequency asserted; the bound is the contract.
    assert 0 <= equal <= 20


@st.composite
def tied_count_matrices(draw):
    """Up to 6 rows with many zero cells; some rows repeat or scale an
    earlier row, so distinct partitions tie exactly in H0, and some change
    one cell of an earlier row by 1, so they nearly tie. With cells in the
    hundred thousands, such near ties differ by about the tie tolerance."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    size = draw(st.sampled_from([1, 1, 1000, 100000]))
    cell = st.sampled_from([0, 0, 0, size, 2 * size, 5 * size])
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "copy", "scaled",
                                     "perturbed"])) if rows else "fresh"
        if kind == "fresh":
            row = draw(st.lists(cell, min_size=k, max_size=k))
            if sum(row) == 0:
                row[draw(st.integers(0, k - 1))] = 1
        elif kind == "perturbed":
            row = list(draw(st.sampled_from(rows)))
            j = draw(st.integers(0, k - 1))
            row[j] += 1 if row[j] == 0 or sum(row) == 1 else \
                draw(st.sampled_from([-1, 1]))
        else:
            factor = 1 if kind == "copy" else draw(st.sampled_from([2, 3]))
            row = [factor * v for v in draw(st.sampled_from(rows))]
        rows.append(row)
    return build_matrix([f"r{i}" for i in range(n)],
                        [f"c{j}" for j in range(k)], rows)


@given(tied_count_matrices())
@settings(max_examples=examples(150), deadline=None)
def test_exhaustive_partition_matches_per_candidate_reference(m):
    pm = probability_model(m)
    for max_groups in range(1, m.n_rows + 1):
        assert exhaustive_partition(pm, max_groups) == \
            reference_exhaustive_partition(pm, max_groups)


def test_exhaustive_partition_matches_reference_on_near_ties():
    # Rows of counts near 1e5 that differ by 0 or 1 in each cell: partitions
    # differ in H0 by about the 1e-12-bit tie tolerance, where the pruning
    # margin must keep every string that could still win a tie.
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = rng.integers(100000, 200000, size=3) + \
            rng.integers(0, 2, size=(6, 3))
        pm = probability_model(build_matrix(
            [f"r{i}" for i in range(6)], ["x", "y", "z"], vals))
        for max_groups in range(1, 7):
            assert exhaustive_partition(pm, max_groups) == \
                reference_exhaustive_partition(pm, max_groups)


def test_exhaustive_searches_agree_across_subset_chunks(rng, monkeypatch):
    # A cell budget of a few rows of columns splits every subset-cost table
    # and every mask list into many kernel calls.
    for _ in range(10):
        m = random_matrix(rng, max_rows=7, min_rows=5, max_cols=5)
        pm = probability_model(m)
        rows = tuple(range(m.n_rows))
        monkeypatch.setattr(cluster, "_CELLS", 3 * m.n_cols)
        monkeypatch.setattr(oracle, "_CELLS", 3 * m.n_cols)
        chunked = (exhaustive_bisect(pm, rows), exhaustive_partition(pm, 3),
                   exhaustive_partition(pm, m.n_rows))
        monkeypatch.undo()
        assert chunked == (reference_exhaustive_bisect(pm, rows),
                           reference_exhaustive_partition(pm, 3),
                           reference_exhaustive_partition(pm, m.n_rows))


@pytest.mark.parametrize("search", [
    lambda pm: exhaustive_bisect(pm, tuple(range(pm.n_rows))),
    lambda pm: exhaustive_partition(pm, 3),
], ids=["bisect", "partition"])
def test_exhaustive_memory_is_bounded_for_wide_matrices(search):
    # 12 x 4000: pooling every subset at once would take hundreds of MB.
    vals = np.random.default_rng(7).poisson(2.0, size=(12, 4000))
    vals[vals.sum(axis=1) == 0, 0] = 1
    pm = probability_model(build_matrix(
        [f"r{i:02d}" for i in range(12)], [f"c{j:04d}" for j in range(4000)],
        vals))
    tracemalloc.start()
    try:
        search(pm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("stop", ["divisive", "full"])
def test_exhaustive_tree_memory_is_bounded_for_wide_matrices(stop):
    # Each group of a 12 x 4000 tree is scored a chunk of candidates at a
    # time, from half tables of at most 2^6 subset sums.
    vals = np.random.default_rng(7).poisson(2.0, size=(12, 4000))
    vals[vals.sum(axis=1) == 0, 0] = 1
    m = build_matrix([f"r{i:02d}" for i in range(12)],
                     [f"c{j:04d}" for j in range(4000)], vals)
    tracemalloc.start()
    try:
        divisive_cluster(m, ClusterOptions(stop_rule=stop), "exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_only_the_partition_search_tabulates_subsets(tmp_path, monkeypatch,
                                                     capsys):
    # `cluster --mode exhaustive --stop full` bisects every group of a
    # 12-row tree from the group's own half tables and tabulates no model
    # subsets; `oracle` also searches the partitions, which tabulate them
    # once.
    vals = np.random.default_rng(3).poisson(4.0, size=(12, 6)) + \
        np.eye(12, 6, dtype=int)
    path = tmp_path / "m.csv"
    path.write_text("row," + ",".join(f"c{j}" for j in range(6)) + "\n" +
                    "".join(f"r{i:02d}," + ",".join(map(str, row)) + "\n"
                            for i, row in enumerate(vals.tolist())))
    builds = []
    subset_costs = oracle._subset_costs

    def tabulate(*args):
        builds.append(len(args[0]))
        return subset_costs(*args)

    monkeypatch.setattr(oracle, "_subset_costs", tabulate)
    for argv, want in ((["cluster", str(path), "--mode", "exhaustive",
                         "--stop", "full"], []),
                       (["oracle", str(path)], [12])):
        builds.clear()
        assert run_cli(argv) == 0, capsys.readouterr().err
        assert builds == want


WINNERS_DIGEST = """
import hashlib
import numpy as np
from infodiv import build_matrix, exhaustive_bisect, probability_model
from infodiv.oracle import _subset_costs
rng = np.random.default_rng(7)
digest = hashlib.sha256()
for _ in range(8):
    n, c = int(rng.integers(13, 17)), int(rng.integers(2, 6))
    counts = rng.poisson(3.0, size=(n, c)) + np.eye(n, c, dtype=int)
    for values in (rng.random((n, c)) * 100, np.log2(1 + counts)):
        pm = probability_model(build_matrix(range(n), range(c), values))
        split = exhaustive_bisect(pm, tuple(range(n)))
        digest.update(f"{split.left} {split.local_h0.hex()}".encode())
        costs = _subset_costs(values[:10], float(values[:10].sum()))
        digest.update(costs.tobytes())
print(digest.hexdigest())
"""


def test_exhaustive_winners_do_not_depend_on_the_blas_settings():
    # The exhaustive bisection and the partition search's subset costs add
    # their sums without BLAS, so on non-integer cells too, uniform floats
    # and log2(1 + counts), whose sums round, a bisection's winner and its
    # score, and every cost, keep their bytes under any thread count or
    # kernel. (Sums of such cells pooled by a float matmul gave other
    # bytes under OPENBLAS_CORETYPE=Prescott than by default.)
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = {subprocess.run([sys.executable, "-c", WINNERS_DIGEST],
                              check=True, capture_output=True, text=True,
                              env={"PYTHONPATH": src, **setting}).stdout
               for setting in ({"OPENBLAS_NUM_THREADS": "1"},
                               {"OPENBLAS_NUM_THREADS": "2"},
                               {"OPENBLAS_CORETYPE": "Prescott"})}
    assert len(digests) == 1 and len(digests.pop()) == 65
