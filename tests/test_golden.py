"""Byte-exact dendrogram, oracle, entropy and similarity outputs on seeded
matrices.

Every export format (JSON, Newick, DOT) and render format (text, SVG) is
compared, under both stop rules and both search modes, against the bytes in
`golden.json`, as is what `infodiv oracle` prints at `--max-groups` 2, 3
and the row count, what `infodiv entropy --groups` prints for two seeded
groupings of each matrix, and what `infodiv similarity` prints for three
square cocitation matrices under both measures, both `--diagonal` modes and
with and without `--log`. Those bytes are a fixed reference: a change in
any of them is a behaviour change. Regenerate them only for a deliberate
output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from infodiv import (
    ClusterOptions,
    build_matrix,
    divisive_cluster,
    export_dendrogram,
    render_dendrogram,
    write_csv,
)
from infodiv.cli import run_cli

GOLDEN = Path(__file__).with_name("golden.json")
FORMATS = ("json", "newick", "dot", "text", "svg")


def _labelled(values):
    n, k = values.shape
    return build_matrix([f"r{i}" for i in range(n)],
                        [f"c{j}" for j in range(k)], values)


def _no_zero_rows(vals):
    vals[vals.sum(axis=1) == 0, 0] = 1
    return vals


@functools.cache
def matrices():
    """Five seeded matrices: block structure, sparse rows, exact ties,
    unstructured counts and proportional rows."""
    rng = np.random.default_rng(20261017)
    profiles = rng.dirichlet(np.full(5, 0.5), size=2)
    blocks = np.stack([rng.multinomial(30, profiles[i % 2]) for i in range(8)])
    sparse = rng.integers(0, 6, size=(8, 6)) * (rng.random((8, 6)) < 0.3)
    base = rng.integers(0, 5, size=(4, 4))
    ties = np.vstack([base, base[[0, 2]], rng.integers(0, 5, size=(2, 4))])
    unstructured = rng.integers(0, 10, size=(9, 5))
    shape = rng.integers(1, 6, size=(3, 4))
    proportional = np.vstack([shape, 2 * shape, 3 * shape[:1]])
    return {name: _labelled(_no_zero_rows(v.astype(float)))
            for name, v in (("blocks", blocks), ("sparse", sparse),
                            ("ties", ties), ("unstructured", unstructured),
                            ("proportional", proportional))}


@functools.cache
def cocitation_matrices():
    """Three seeded symmetric author-by-author count matrices whose diagonal
    exceeds each row's largest count. Every row has at least three distinct
    off-diagonal counts, so every Pearson r and cosine is defined, also
    with the diagonal treated as missing."""
    rng = np.random.default_rng(20261018)
    out = {}
    for n in (5, 9, 16):
        while True:
            upper = np.triu(rng.poisson(2.0, size=(n, n)), 1)
            counts = upper + upper.T
            if all(len(set(np.delete(row, i).tolist())) >= 3
                   for i, row in enumerate(counts)):
                break
        counts[np.arange(n), np.arange(n)] = counts.max(axis=1) + \
            rng.integers(1, 10, size=n)
        labels = [f"au{i}" for i in range(n)]
        out[f"cocit{n}"] = build_matrix(labels, labels, counts.astype(float))
    return out


@functools.cache
def groupings():
    """Two seeded groupings of each matrix's rows into at most four named
    groups, as `infodiv entropy --groups` reads them."""
    rng = np.random.default_rng(20261019)
    return {(name, k): {label: f"g{int(g)}" for label, g in zip(
                m.row_labels, rng.integers(0, rng.integers(2, 5), m.n_rows))}
            for name, m in matrices().items() for k in ("0", "1")}


def cli_output(matrix, argv, groups=None):
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp, "m.csv"), Path(tmp, "out")
        csv.write_text(write_csv(matrix), encoding="utf-8")
        if groups is not None:
            path = Path(tmp, "groups.json")
            path.write_text(json.dumps(groups), encoding="utf-8")
            argv = [*argv, "--groups", str(path)]
        assert run_cli([argv[0], str(csv), *argv[1:], "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")


@functools.cache
def dendrogram(name, stop, mode):
    return divisive_cluster(matrices()[name], ClusterOptions(stop_rule=stop),
                            method=mode)


def output(key):
    kind = key.split("/")[1]
    if kind == "oracle":
        name, _, max_groups = key.split("/")
        return cli_output(matrices()[name],
                          ["oracle", "--max-groups", max_groups])
    if kind == "entropy":
        name, _, k = key.split("/")
        return cli_output(matrices()[name], ["entropy"],
                          groups=groupings()[name, k])
    if kind == "similarity":
        name, _, measure, diagonal, log = key.split("/")
        return cli_output(cocitation_matrices()[name],
                          ["similarity", "--measure", measure, "--diagonal",
                           diagonal] + ["--log"] * (log == "log"))
    name, stop, mode, fmt = key.split("/")
    dend = dendrogram(name, stop, mode)
    if fmt in ("json", "newick", "dot"):
        return export_dendrogram(dend, fmt)
    return render_dendrogram(dend, fmt)


def keys():
    return [f"{name}/{stop}/{mode}/{fmt}" for name in matrices()
            for stop in ("divisive", "full")
            for mode in ("greedy", "exhaustive") for fmt in FORMATS] + \
        [f"{name}/oracle/{k}" for name, m in matrices().items()
         for k in ("2", "3", str(m.n_rows))] + \
        [f"{name}/entropy/{k}" for name, k in groupings()] + \
        [f"{name}/similarity/{measure}/{diagonal}/{log}"
         for name in cocitation_matrices()
         for measure in ("pearson", "cosine")
         for diagonal in ("include", "missing") for log in ("raw", "log")]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == \
        sorted(keys())


@pytest.mark.parametrize("key", keys())
def test_golden_bytes(key):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    assert output(key) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: output(k) for k in keys()}, indent=1,
                                 sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
