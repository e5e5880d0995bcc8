"""Byte-exact dendrogram outputs on seeded matrices.

Every export format (JSON, Newick, DOT) and render format (text, SVG) is
compared, under both stop rules and both search modes, against the bytes in
`golden.json`. Those bytes are a fixed reference: a change in any of them is
a behaviour change. Regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from infodiv import (
    ClusterOptions,
    build_matrix,
    divisive_cluster,
    export_dendrogram,
    render_dendrogram,
)

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
def dendrogram(name, stop, mode):
    return divisive_cluster(matrices()[name], ClusterOptions(stop_rule=stop),
                            method=mode)


def output(key):
    name, stop, mode, fmt = key.split("/")
    dend = dendrogram(name, stop, mode)
    if fmt in ("json", "newick", "dot"):
        return export_dendrogram(dend, fmt)
    return render_dendrogram(dend, fmt)


def keys():
    return [f"{name}/{stop}/{mode}/{fmt}" for name in matrices()
            for stop in ("divisive", "full")
            for mode in ("greedy", "exhaustive") for fmt in FORMATS]


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
