"""Span tracing of infodiv's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function in the
loaded `infodiv` modules with a wrapper: the defining module, the package
namespace, and every `from ... import` copy (for example `check_subset` in
`infodiv.cluster` and `infodiv.oracle`). Calls made through any of them are
recorded. Spans are only recorded inside an operation, i.e. below a
`cli.run_cli` span, so the benchmark's own output checks stay out.

Each span keeps its name, start, end and parent in flat arrays until the
run ends; `Tracer.report()` then derives per-name call counts, inclusive
time and self time (duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Traced functions as "<module>.<name>"; the module is relative to infodiv.
TRACED = (
    "cli.run_cli",
    "io.parse_csv", "io.export_dendrogram", "io.similarity_csv",
    "matrix.build_matrix", "matrix.probability_model",
    "matrix.check_subset", "matrix.pooled_profile",
    "entropy.shannon_entropy", "entropy.decompose",
    "cluster.divisive_cluster", "cluster.greedy_bisect",
    "cluster.evaluate_bipartition",
    "oracle.exhaustive_bisect", "oracle.exhaustive_partition",
    "oracle.verify_greedy",
    "similarity.similarity_matrix", "similarity.log_transform",
    "render.render_dendrogram",
)

ROOT = "cli.run_cli"

# Span tags: evaluate_bipartition called by greedy_bisect with a one-row
# `left` is a seed candidate, with a larger one a growth candidate.
SEED, GROWTH = 1, 2


class Tracer:
    """Records spans and work counters of the traced functions."""

    def __init__(self):
        self.names: list[str] = list(TRACED)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_tag = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {
            "cells": 0, "pairs": 0, "bisect_candidates": 0,
            "partition_candidates": 0, "splits_accepted": 0,
            "greedy_gap_max": 0.0,
        }
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "infodiv" or name.startswith("infodiv."))]
        for qualname in TRACED:
            mod_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules["infodiv." + mod_name], attr)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        nid = self.name_ids[qualname]
        is_root = qualname == ROOT
        hook = _HOOKS.get(qualname)
        stack = self._stack
        names, parents, tags = self.span_name, self.span_parent, self.span_tag
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tags.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation -------------------------------------------------------

    def report(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive seconds and self seconds.

        Inclusive time counts only outermost spans of a name, so a function
        that calls itself is not counted twice. Tagged evaluate_bipartition
        spans are also reported as "seed" and "growth".
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        tag = np.frombuffer(self.span_tag, dtype=np.int8)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time

        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        outer = ~nested

        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        out = {n: {"calls": int(calls[i]), "incl": float(incl[i]),
                   "self": float(own[i])}
               for i, n in enumerate(self.names)}
        for label, value in (("seed", SEED), ("growth", GROWTH)):
            sel = tag == value
            out[label] = {"calls": int(sel.sum()), "incl": float(dur[sel].sum()),
                          "self": float(self_time[sel].sum())}
        return out

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return self.names[self.span_name[parent]] if parent >= 0 else None


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _on_parse_csv(tr, idx, args, kwargs, matrix):
    tr.counters["cells"] += matrix.n_rows * matrix.n_cols


def _on_similarity_matrix(tr, idx, args, kwargs, result):
    n = _arg(args, kwargs, 0, "matrix").n_rows
    tr.counters["pairs"] += n * (n - 1) // 2


def _on_exhaustive_bisect(tr, idx, args, kwargs, result):
    n = len(set(_arg(args, kwargs, 1, "subtree")))
    tr.counters["bisect_candidates"] += 2 ** (n - 1) - 1


def _on_exhaustive_partition(tr, idx, args, kwargs, report):
    tr.counters["partition_candidates"] += report.candidates_examined


def _on_verify_greedy(tr, idx, args, kwargs, report):
    tr.counters["greedy_gap_max"] = max(tr.counters["greedy_gap_max"],
                                        report.gap)


def _on_greedy_bisect(tr, idx, args, kwargs, split):
    tr.counters["splits_accepted"] += split is not None


def _on_evaluate_bipartition(tr, idx, args, kwargs, result):
    if tr.parent_name(idx) == "cluster.greedy_bisect":
        left = _arg(args, kwargs, 2, "left")
        tr.span_tag[idx] = SEED if len(left) == 1 else GROWTH


_HOOKS = {
    "io.parse_csv": _on_parse_csv,
    "similarity.similarity_matrix": _on_similarity_matrix,
    "oracle.exhaustive_bisect": _on_exhaustive_bisect,
    "oracle.exhaustive_partition": _on_exhaustive_partition,
    "oracle.verify_greedy": _on_verify_greedy,
    "cluster.greedy_bisect": _on_greedy_bisect,
    "cluster.evaluate_bipartition": _on_evaluate_bipartition,
}
