"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/validation error. Results go
to stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as div_io
from .cluster import ClusterOptions, divisive_cluster
from .entropy import Grouping, decompose
from .errors import InfodivError
from .matrix import probability_model
from .oracle import exhaustive_partition, verify_greedy
from .render import render_dendrogram
from .similarity import log_transform, similarity_matrix


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged, and building it is a measurable part of a small
    command's time."""
    p = _Parser(prog="infodiv",
                description="Information-theoretic divisive clustering of "
                            "labeled count matrices")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="divisive clustering of a CSV matrix")
    c.add_argument("matrix")
    c.add_argument("--mode", choices=["greedy", "exhaustive"],
                   default="greedy")
    c.add_argument("--stop", choices=["divisive", "full"], default="divisive")
    c.add_argument("--format", choices=["json", "newick", "dot", "text",
                                        "svg"], default="json")
    c.add_argument("--out")

    s = sub.add_parser("similarity", help="pairwise similarity CSV")
    s.add_argument("matrix")
    s.add_argument("--measure", choices=["pearson", "cosine"], required=True)
    s.add_argument("--log", action="store_true",
                   help="apply log2(1+x) before the measure")
    s.add_argument("--diagonal", choices=["include", "missing"],
                   default="include")
    s.add_argument("--out")

    e = sub.add_parser("entropy", help="entropy decomposition for a grouping")
    e.add_argument("matrix")
    e.add_argument("--groups", required=True,
                   help="JSON file mapping row label to group name")
    e.add_argument("--out")

    o = sub.add_parser("oracle", help="exhaustive H0 maximization")
    o.add_argument("matrix")
    o.add_argument("--max-groups", type=int, default=None)
    o.add_argument("--out")

    r = sub.add_parser("render", help="draw an exported dendrogram")
    r.add_argument("dendrogram", help="dendrogram JSON file")
    r.add_argument("--format", choices=["text", "svg"], default="text")
    r.add_argument("--out")
    return p


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_cluster(args) -> str:
    matrix = div_io.parse_csv(args.matrix)
    dend = divisive_cluster(matrix, ClusterOptions(stop_rule=args.stop),
                            method=args.mode)
    if args.format in ("json", "newick", "dot"):
        return div_io.export_dendrogram(dend, args.format)
    return render_dendrogram(dend, args.format)


def _cmd_similarity(args) -> str:
    matrix = div_io.parse_csv(args.matrix)
    if args.log:
        matrix = log_transform(matrix)
    sim = similarity_matrix(matrix, measure=args.measure,
                            diagonal_mode=args.diagonal)
    return div_io.similarity_csv(sim)


def _cmd_entropy(args) -> str:
    matrix = div_io.parse_csv(args.matrix)
    mapping = div_io.load_json(div_io.read_text(args.groups))
    if not isinstance(mapping, dict) or \
            not all(isinstance(name, str) for name in mapping.values()):
        raise InfodivError("grouping file must map row labels to group "
                           "names (strings)")
    missing = [lab for lab in matrix.row_labels if lab not in mapping]
    if missing:
        raise InfodivError(f"grouping file misses rows: {missing}")
    names = sorted(set(mapping[lab] for lab in matrix.row_labels))
    name_id = {name: g for g, name in enumerate(names)}
    grouping = Grouping(tuple(name_id[mapping[lab]]
                              for lab in matrix.row_labels))
    rep = decompose(probability_model(matrix), grouping)
    doc = {
        "h_n": rep.h_n, "h_m": rep.h_m, "h_joint": rep.h_joint,
        "h_cond": rep.h_cond, "h0": rep.h0, "h0_ratio": rep.h0_ratio,
        "groups": {name: {"p": rep.groups[g][0], "h": rep.groups[g][1]}
                   for name, g in name_id.items()},
    }
    return div_io.canonical_json(doc) + "\n"


def _cmd_oracle(args) -> str:
    matrix = div_io.parse_csv(args.matrix)
    max_groups = matrix.n_rows if args.max_groups is None else args.max_groups
    model = probability_model(matrix)
    part = exhaustive_partition(model, max_groups)
    bisect = verify_greedy(model)
    groups = [sorted(matrix.row_labels[i]
                     for i in part.best_grouping.members(g))
              for g in range(part.best_grouping.m)]
    doc = {
        "best_partition": {
            "groups": groups,
            "h0": part.best_h0,
            "candidates_examined": part.candidates_examined,
        },
        "root_bisection": {
            "exhaustive_h0": bisect.best_h0,
            "greedy_h0": bisect.greedy_h0,
            "gap": bisect.gap,
        },
    }
    return div_io.canonical_json(doc) + "\n"


def _cmd_render(args) -> str:
    dend = div_io.dendrogram_from_json(div_io.read_text(args.dendrogram))
    return render_dendrogram(dend, args.format)


_COMMANDS = {
    "cluster": _cmd_cluster,
    "similarity": _cmd_similarity,
    "entropy": _cmd_entropy,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
}


def run_cli(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        text = _COMMANDS[args.command](args)
    except (InfodivError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
