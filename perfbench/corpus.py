"""Seeded input corpus for the benchmark workloads.

`build_corpus(workload, seed, directory)` writes CSV matrices (and, for
`ingest`, grouping JSON files) into `directory` and returns the operations
to run on them. The program under test only ever receives these files.
The same seed gives byte-identical files and the same operation list.

Matrix sizes follow fixed schedules; the seed draws only the counts, the
row-to-block assignment and the block profiles. Keeping sizes fixed keeps
the cost of a pass comparable across seeds, so run-to-run spread measures
the program and the machine, not the corpus.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same text.
WORKLOADS = {
    "cluster-greedy": "the paper's main path: greedy seed-and-grow search "
                      "(check_subset, pooled_profile, shannon_entropy) is "
                      "over 95% of op time; io and render are small",
    "oracle": "brute-force enumeration dominates: exhaustive_partition "
              "calls decompose per RGS, exhaustive_bisect scores every "
              "subset; the greedy search is negligible",
    "similarity": "the per-pair Pearson/cosine loop and the n^2 CSV writer "
                  "do the work; cluster and oracle are never called",
    "ingest": "io.parse_csv and build_matrix validation dominate and "
              "decompose runs once; the only workload where CSV reading "
              "and the entropy command matter",
}


@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` plus `--out <file>`, checked as `kind`."""

    item: str               # stable id of the input within the corpus
    argv: tuple[str, ...]   # run_cli arguments without --out
    kind: str               # "cluster" | "oracle" | "similarity" | "entropy"
    fmt: str = "json"       # output format of cluster ops


def build_corpus(workload: str, seed: int, directory: str) -> list[Op]:
    """Write the inputs of `workload` for `seed` and return its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload!r}")
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    os.makedirs(directory, exist_ok=True)
    make = {"cluster-greedy": _cluster_greedy, "oracle": _oracle,
            "similarity": _similarity, "ingest": _ingest}[workload]
    return make(rng, directory)


def _size(lo: int, hi: int, k: int, count: int) -> int:
    """k-th of `count` sizes evenly spaced from lo to hi."""
    return lo + round((hi - lo) * k / (count - 1))


def _block_counts(rng, n_rows: int, n_cols: int, blocks: int,
                  lo_total: int, hi_total: int) -> np.ndarray:
    """Multinomial rows drawn from `blocks` Dirichlet column profiles,
    with block sizes as equal as `n_rows` allows."""
    profiles = rng.dirichlet(np.full(n_cols, 0.6), size=blocks)
    member = rng.permutation(np.arange(n_rows) % blocks)
    totals = rng.integers(lo_total, hi_total + 1, size=n_rows)
    return np.stack([rng.multinomial(totals[i], profiles[member[i]])
                     for i in range(n_rows)])


def _write_csv(path: str, row_labels, col_labels, counts) -> None:
    lines = ["," + ",".join(col_labels)]
    for label, row in zip(row_labels, counts.tolist()):
        lines.append(label + "," + ",".join(map(str, row)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(n)]


def _shuffled(rng, ops: list[Op]) -> list[Op]:
    """Ops in a seeded order, so a partial last pass is a random sample."""
    return [ops[i] for i in rng.permutation(len(ops))]


# Corpus sizes are odd multiples of five, so the p50 and p90 of a pass fall
# in the middle of one item's share of the samples, not between two items.

def _cluster_greedy(rng, directory: str) -> list[Op]:
    # 45 items: each (structure, format) pair three times. The stop rule
    # alternates on the 2- and 4-block matrices; unstructured ones are
    # always split in full, because whether the divisive rule splits them
    # at all depends on the draw: their cost varied by up to 43% between
    # seeds and moved op_s.p50 by over 10%.
    count = 45
    structures = (2, 4, 1)   # blocks; 1 means no structure
    formats = ("json", "newick", "dot", "text", "svg")
    ops = []
    for k in range(count):
        n_rows = _size(20, 60, k, count)
        blocks = structures[k % 3]
        counts = _block_counts(rng, n_rows, 40, blocks, 60, 400)
        path = os.path.join(directory, f"greedy{k:02d}.csv")
        _write_csv(path, _labels("r", n_rows), _labels("c", 40), counts)
        stop = "full" if blocks == 1 else ("divisive", "full")[(k // 3) % 2]
        fmt = formats[k % 5]
        ops.append(Op(f"greedy{k:02d}", ("cluster", path, "--stop", stop,
                                         "--format", fmt), "cluster", fmt))
    return _shuffled(rng, ops)


def _oracle(rng, directory: str) -> list[Op]:
    # `oracle` on 7-8 rows, `cluster --mode exhaustive` on 10-12 rows, 12
    # columns. An oracle's cost depends on its size only, an exhaustive
    # tree's on where its splits fall; the mix puts the p50 among the 7-row
    # and the p90 among the 8-row oracles.
    ops = []
    for k, n_rows in enumerate((7, 7, 7, 7, 7, 7, 8, 8, 8)):
        counts = _block_counts(rng, n_rows, 12, 2 + k % 2, 20, 200)
        path = os.path.join(directory, f"oracle{k:02d}.csv")
        _write_csv(path, _labels("r", n_rows), _labels("c", 12), counts)
        ops.append(Op(f"oracle{k:02d}", ("oracle", path), "oracle"))
    for k, n_rows in enumerate((10, 10, 10, 11, 11, 12)):
        counts = _block_counts(rng, n_rows, 12, 2 + k % 2, 20, 200)
        path = os.path.join(directory, f"exhaustive{k:02d}.csv")
        _write_csv(path, _labels("r", n_rows), _labels("c", 12), counts)
        stop = ("divisive", "full")[k % 2]
        ops.append(Op(f"exhaustive{k:02d}",
                      ("cluster", path, "--mode", "exhaustive", "--stop",
                       stop), "cluster"))
    return _shuffled(rng, ops)


def _cocitation(rng, n: int) -> np.ndarray:
    """Symmetric cocitation-like counts with a positive diagonal.

    Every row has at least three distinct off-diagonal values, so with
    any one further position dropped ("missing" diagonal mode) no row is
    constant or all-zero and every Pearson r and cosine is defined.
    """
    while True:
        member = rng.integers(0, 4, size=n)
        rate = np.where(member[:, None] == member[None, :], 6.0, 1.5)
        upper = np.triu(rng.poisson(rate), 1)
        counts = upper + upper.T
        off = counts + np.diag(np.full(n, -1))
        if all(len(set(row[row >= 0].tolist())) >= 3 for row in off):
            break
    counts[np.arange(n), np.arange(n)] = counts.max(axis=1) + \
        rng.integers(1, 10, size=n)
    return counts


def _similarity(rng, directory: str) -> list[Op]:
    # 25 items cycling through measure x log x diagonal.
    count = 25
    ops = []
    for k in range(count):
        n = _size(40, 80, k, count)
        labels = _labels("au", n)
        path = os.path.join(directory, f"cocit{k:02d}.csv")
        _write_csv(path, labels, labels, _cocitation(rng, n))
        argv = ["similarity", path, "--measure", ("pearson", "cosine")[k % 2],
                "--diagonal", ("include", "missing")[(k // 4) % 2]]
        if (k // 2) % 2:
            argv.append("--log")
        ops.append(Op(f"cocit{k:02d}", tuple(argv), "similarity"))
    return _shuffled(rng, ops)


def _ingest(rng, directory: str) -> list[Op]:
    count = 15
    ops = []
    for k in range(count):
        n_rows = _size(1000, 2000, k, count)
        n_cols = _size(200, 300, k, count)
        counts = rng.poisson(0.4, size=(n_rows, n_cols))
        counts[np.arange(n_rows), rng.integers(0, n_cols, size=n_rows)] += 1
        rows = _labels("r", n_rows)
        path = os.path.join(directory, f"tall{k:02d}.csv")
        _write_csv(path, rows, _labels("c", n_cols), counts)
        n_groups = 4 + k
        groups = rng.integers(0, n_groups, size=n_rows).tolist()
        grouping = {label: f"g{g:02d}" for label, g in zip(rows, groups)}
        gpath = os.path.join(directory, f"tall{k:02d}.groups.json")
        with open(gpath, "w", encoding="utf-8") as fh:
            json.dump(grouping, fh, sort_keys=True)
            fh.write("\n")
        ops.append(Op(f"tall{k:02d}", ("entropy", path, "--groups", gpath),
                      "entropy"))
    return _shuffled(rng, ops)
