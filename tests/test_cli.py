import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from infodiv import InfodivError, build_matrix, cosine, \
    exhaustive_partition, format_number, parse_csv, verify_greedy, write_csv
from infodiv import cli
from infodiv.cli import run_cli
from infodiv.io import canonical_json

BLOCK_CSV = "x,w,x1,y,z\na,4,4,0,0\nb,4,4,0,0\nc,0,0,4,4\nd,0,0,4,4\n"


@pytest.fixture
def block_csv(tmp_path):
    p = tmp_path / "block.csv"
    p.write_text(BLOCK_CSV)
    return str(p)


def test_cluster_json_to_stdout(block_csv, capsys):
    assert run_cli(["cluster", block_csv]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["tree"]["split"]["global_delta"] == 1.0


def test_cluster_formats(block_csv, tmp_path, capsys):
    for fmt in ["newick", "dot", "text", "svg"]:
        out_file = tmp_path / f"out.{fmt}"
        assert run_cli(["cluster", block_csv, "--format", fmt,
                        "--out", str(out_file)]) == 0
        assert out_file.read_text()


def test_cluster_exhaustive_matches_greedy_here(block_csv, capsys):
    assert run_cli(["cluster", block_csv, "--mode", "exhaustive"]) == 0
    exhaustive = capsys.readouterr().out
    assert run_cli(["cluster", block_csv]) == 0
    greedy = capsys.readouterr().out
    assert exhaustive == greedy


def test_unknown_flag_exits_1(block_csv, capsys):
    assert run_cli(["cluster", block_csv, "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_command_exits_1(capsys):
    assert run_cli([]) == 1


def test_negative_cell_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x,a,b\nr1,1,-1\n")
    assert run_cli(["cluster", str(p)]) == 2
    assert "r1" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_cell_exits_2(tmp_path, capsys, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"x,a,b\nr1,1,2\nr2,{cell},1\nr3,2,2\n")
    assert run_cli(["cluster", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err and "'r2'" in captured.err


def test_missing_file_exits_2(capsys):
    assert run_cli(["cluster", "/nonexistent/file.csv"]) == 2


def test_similarity_csv(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("x,a,b\na,1,2\nb,2,1\n")
    assert run_cli(["similarity", str(p), "--measure", "cosine"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",a,b"
    assert "0.8" in out


def test_similarity_log_and_missing_flags(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("x,a,b,c,d\na,10,3,16,12\nb,3,10,15,8\nc,16,15,0,9\n"
                 "d,12,8,9,10\n")
    assert run_cli(["similarity", str(p), "--measure", "pearson",
                    "--log", "--diagonal", "missing"]) == 0
    assert capsys.readouterr().out


def test_similarity_log_of_cells_below_2_to_the_minus_53(tmp_path, capsys):
    # 1 + 1e-20 rounds to 1, yet the log of row a is positive, not zero.
    p = tmp_path / "m.csv"
    p.write_text("x,a,b\na,1e-20,1e-20\nb,1,2\n")
    assert run_cli(["similarity", str(p), "--measure", "cosine",
                    "--log"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    label, _, a_b = captured.out.splitlines()[1].split(",")
    assert (label, a_b) == \
        ("a", format_number(cosine([1, 1], [1, math.log2(3)])))


def test_entropy_command(block_csv, tmp_path, capsys):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps(
        {"a": "left", "b": "left", "c": "right", "d": "right"}))
    assert run_cli(["entropy", block_csv, "--groups", str(groups)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h0"] == 1.0
    assert doc["groups"]["left"]["p"] == 0.5


def test_entropy_command_missing_row_exits_2(block_csv, tmp_path, capsys):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"a": "left"}))
    assert run_cli(["entropy", block_csv, "--groups", str(groups)]) == 2


@pytest.mark.parametrize("groups", [
    '{"a": ["left"], "b": "left", "c": "right", "d": "right"}',
    '{"a": 1, "b": "left", "c": "right", "d": "right"}',
    '["a", "b", "c", "d"]',
    pytest.param("[" * 5000 + "]" * 5000, id="deeper-than-json.loads"),
])
def test_entropy_command_malformed_grouping_exits_2(block_csv, tmp_path,
                                                    capsys, groups):
    path = tmp_path / "groups.json"
    path.write_text(groups)
    assert run_cli(["entropy", block_csv, "--groups", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "group names" in captured.err


def test_oracle_command(block_csv, capsys):
    assert run_cli(["oracle", block_csv, "--max-groups", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_partition"]["h0"] == 1.0
    assert doc["root_bisection"]["gap"] == 0.0
    assert sorted(map(sorted, doc["best_partition"]["groups"])) == \
        [["a", "b"], ["c", "d"]]


def test_oracle_output_is_the_oracle_functions_on_one_model(
        block_csv, capsys, monkeypatch):
    built = []
    model_of = cli.probability_model
    monkeypatch.setattr(cli, "probability_model",
                        lambda m: built.append(m) or model_of(m))
    assert run_cli(["oracle", block_csv, "--max-groups", "2"]) == 0
    assert len(built) == 1
    matrix = parse_csv(block_csv)
    pm = model_of(matrix)
    part = exhaustive_partition(pm, 2)
    bisect = verify_greedy(pm)
    groups = [sorted(matrix.row_labels[i]
                     for i in part.best_grouping.members(g))
              for g in range(part.best_grouping.m)]
    doc = {
        "best_partition": {"groups": groups, "h0": part.best_h0,
                           "candidates_examined": part.candidates_examined},
        "root_bisection": {"exhaustive_h0": bisect.best_h0,
                           "greedy_h0": bisect.greedy_h0, "gap": bisect.gap},
    }
    assert capsys.readouterr().out == canonical_json(doc) + "\n"


def test_render_command(block_csv, tmp_path, capsys):
    dend = tmp_path / "dend.json"
    assert run_cli(["cluster", block_csv, "--out", str(dend)]) == 0
    assert run_cli(["render", str(dend), "--format", "text"]) == 0
    assert "a+b" in capsys.readouterr().out
    assert run_cli(["render", str(dend), "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_row_order_invariance(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,w,y,z\nr1,5,0,1\nr2,0,4,4\nr3,5,1,0\n")
    b.write_text("x,w,y,z\nr3,5,1,0\nr1,5,0,1\nr2,0,4,4\n")
    assert run_cli(["cluster", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert run_cli(["cluster", str(b)]) == 0
    assert capsys.readouterr().out == out_a


@pytest.mark.parametrize("max_groups", ["0", "-1", "5"])
def test_oracle_max_groups_out_of_range_exits_2(tmp_path, capsys,
                                                max_groups):
    p = tmp_path / "m.csv"
    p.write_text("x,a,b\nr1,1,2\nr2,2,1\nr3,3,3\n")
    assert run_cli(["oracle", str(p), "--max-groups", max_groups]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_groups must be in 1..3" in captured.err


def test_similarity_non_square_exits_2(block_csv, capsys):
    assert run_cli(["similarity", block_csv, "--measure", "cosine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "square" in captured.err


def test_similarity_non_square_error_comes_before_the_log(tmp_path, capsys):
    # Row a's cells are below 2^-53, which --log keeps positive; the only
    # error is the square-matrix one.
    p = tmp_path / "m.csv"
    p.write_text("x,a,b,c\na,1e-20,1e-20,1e-20\nb,1,2,3\n")
    assert run_cli(["similarity", str(p), "--measure", "cosine",
                    "--log"]) == 2
    assert capsys.readouterr().err == "error: similarity needs a square " \
        "matrix with matching row and column labels\n"


@pytest.mark.parametrize("doc, field", [
    ('{"labels":["a"],"tree":{}}', "tree: missing field 'members'"),
    ("[1,2]", "document: expected an object"),
    ('{"labels":["a"],"tree":{"members":["b"],"height":0.0}}',
     "tree.members: unknown label 'b'"),
    # Trees that draw a leaf twice unless rejected.
    ('{"labels":["a","b","c"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{},"children":[{"members":["a"],"height":1.0},'
     '{"members":["a"],"height":1.0}]}}',
     "tree.members: the root must hold every label"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{},"children":[{"members":["a"],"height":1.0},'
     '{"members":["a"],"height":1.0}]}}',
     "tree.children: their members must partition tree.members"),
    # Leaves drawn left of their parent's split unless rejected.
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{"h_aggregate":1,"h_left":0,"h_right":0,"local_h0":1,'
     '"global_delta":1,"divisive":true},'
     '"children":[{"members":["a"],"height":0.0},'
     '{"members":["b"],"height":0.0}]}}',
     "tree.children[0].height: expected tree.height + global_delta"),
])
def test_render_malformed_dendrogram_exits_2(tmp_path, capsys, doc, field):
    p = tmp_path / "dend.json"
    p.write_text(doc)
    assert run_cli(["render", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    # Each split peels off one row, so the tree is 1199 splits deep,
    # deeper than the 1000 frames of Python's default recursion limit.
    n = 1200
    matrix = build_matrix([f"r{i:04d}" for i in range(n)], ["a", "b"],
                          [[2 ** (i / 8), 1] for i in range(n)])
    p = tmp_path / "chain.csv"
    p.write_text(write_csv(matrix))
    for fmt in ["json", "newick", "dot", "text", "svg"]:
        out_file = tmp_path / f"out.{fmt}"
        assert run_cli(["cluster", str(p), "--stop", "full", "--format", fmt,
                        "--out", str(out_file)]) == 0
    newick = (tmp_path / "out.newick").read_text()
    assert max(itertools.accumulate(
        1 if c == "(" else -1 for c in newick if c in "()")) == n - 1
    # The JSON export is 2401 levels deep; render reads it back.
    for fmt in ["text", "svg"]:
        drawn = tmp_path / f"render.{fmt}"
        assert run_cli(["render", str(tmp_path / "out.json"), "--format", fmt,
                        "--out", str(drawn)]) == 0
        assert drawn.read_text() == (tmp_path / f"out.{fmt}").read_text()


def test_render_too_deeply_nested_json_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"labels":["a"],"tree":' + '{"children":[' * 3000 +
                 "]}" * 3000 + "}")
    assert run_cli(["render", str(p)]) == 2
    assert "tree: missing field 'members'" in capsys.readouterr().err


def test_field_over_the_csv_size_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "long.csv"
    p.write_text("x,a\nr1,1\nr2," + "1" * 140_000 + "\n")
    assert run_cli(["cluster", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: field larger than field limit" in captured.err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"x,a,b\nr\xff,1,2\nr2,2,1\n")
    assert run_cli(["cluster", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not utf-8 text (invalid start byte: 0xff)" in captured.err


@pytest.mark.parametrize("command", ["entropy", "render"])
def test_non_utf8_json_input_exits_2(block_csv, tmp_path, capsys, command):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"r1":"a","r2":"\xff","r3":"b"}')
    argv = ["entropy", block_csv, "--groups", str(p)] \
        if command == "entropy" else ["render", str(p)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: input is not utf-8 text (invalid start byte: 0xff)\n"


def test_one_parser_serves_every_call(block_csv, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,a,b\nr1,1,-1\n")
    calls = [["cluster", block_csv, "--bogus"], ["cluster", block_csv],
             ["cluster", str(bad)], ["oracle", block_csv, "--max-groups", "2"]]

    def run(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [1, 0, 2, 0]
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


# Column `a` sums past the largest float; every row sum stays finite.
HUGE_COLUMN_CSV = "x,a,b,c,d\n" + "".join(
    f"{r},1e308,{i + 1},{i + 2},{2 * i + 1}\n" for i, r in enumerate("abcd"))


@pytest.mark.parametrize("command", ["cluster", "oracle", "entropy"])
def test_grand_sum_past_the_float_range_exits_2(tmp_path, capsys, command):
    p = tmp_path / "huge.csv"
    p.write_text(HUGE_COLUMN_CSV)
    argv = [command, str(p)]
    if command == "entropy":
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "x", "b": "x", "c": "y", "d": "y"}')
        argv += ["--groups", str(groups)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: matrix grand sum overflows the float range\n"


COUNTS = [[3, 1, 0], [1, 3, 1], [3, 1, 0], [0, 2, 5], [1, 0, 4], [2, 2, 2]]


@pytest.mark.parametrize("argv", [
    ["cluster", "--stop", "full"],
    ["cluster", "--stop", "full", "--mode", "exhaustive"],
    ["oracle"], ["entropy"]])
def test_counts_near_the_float_maximum_stay_finite(tmp_path, capsys, argv):
    # The counts times 4e306: every cell and the grand sum, 1.24e308, are
    # finite, and pooled sums of them times an entropy would not be. Each
    # weight is divided by the grand sum first, so every command writes
    # what it writes for the counts themselves, to 1e-12, without a
    # RuntimeWarning.
    groups = tmp_path / "groups.json"
    groups.write_text('{"a": "x", "b": "y", "c": "x", "d": "z", "e": "z",'
                      ' "f": "y"}')
    numbers = []
    for scale in 1.0, 4e306:
        p = tmp_path / "m.csv"
        p.write_text("x,u,v,w\n" + "".join(
            f"{r},{','.join(repr(c * scale) for c in row)}\n"
            for r, row in zip("abcdef", COUNTS)))
        extra = ["--groups", str(groups)] if argv == ["entropy"] else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([argv[0], str(p), *argv[1:], *extra]) == 0
        out = capsys.readouterr().out
        numbers.append([float(x) for x in re.findall(r"-?\d+\.\d+", out)])
        assert "inf" not in out.lower() and "nan" not in out.lower()
    assert numbers[1] == pytest.approx(numbers[0], rel=0, abs=1e-12)


def test_similarity_accepts_a_grand_sum_past_the_float_range(tmp_path,
                                                             capsys):
    p = tmp_path / "huge.csv"
    p.write_text(HUGE_COLUMN_CSV)
    for measure in ["pearson", "cosine"]:
        assert run_cli(["similarity", str(p), "--measure", measure]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("diagonal", ["include", "missing"])
def test_pearson_centering_past_the_float_range_exits_2(tmp_path, capsys,
                                                        diagonal):
    # A float mean of row a's vectors would overflow; their exact forms
    # show them constant.
    p = tmp_path / "huge.csv"
    p.write_text("x,a,b,c,d\na,1e308,1e308,1e308,1e308\nb,1,2,3,4\n"
                 "c,2,1,1,5\nd,1,1,2,3\n")
    argv = ["similarity", str(p), "--diagonal", diagonal]
    assert run_cli(argv + ["--measure", "pearson"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: correlation undefined for a constant " \
        "vector (pair 'a', 'b')\n"
    assert run_cli(argv + ["--measure", "cosine"]) == 0


# One row or column, two, three, tied rows and constant rows.
TINY_CSVS = {
    "1x1": "x,a\na,1\n",
    "1x2": "x,a,b\na,1,2\n",
    "2x1": "x,a\na,1\nb,2\n",
    "2x2": "x,a,b\na,1,2\nb,2,1\n",
    "2x2-constant": "x,a,b\na,1,1\nb,4,4\n",
    "3x3": "x,a,b,c\na,5,2,0\nb,2,7,1\nc,0,1,4\n",
    "3x3-tied": "x,a,b,c\na,1,2,3\nb,1,2,3\nc,1,2,3\n",
    "3x3-constant": "x,a,b,c\na,2,2,2\nb,3,3,3\nc,1,1,1\n",
}


@pytest.mark.parametrize("name", sorted(TINY_CSVS))
def test_every_command_on_a_tiny_matrix_exits_0_or_2(tmp_path, capsys,
                                                     name):
    csv_text = TINY_CSVS[name]
    matrix = tmp_path / "m.csv"
    matrix.write_text(csv_text)
    rows = [line.split(",")[0] for line in csv_text.splitlines()[1:]]
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({r: f"g{k % 2}" for k, r in enumerate(rows)}))
    dend = tmp_path / "dend.json"
    m = str(matrix)
    argvs = [["cluster", m, "--mode", mode, "--stop", stop, "--format", fmt]
             for mode, stop, fmt in itertools.product(
                 ["greedy", "exhaustive"], ["divisive", "full"],
                 ["json", "newick", "dot", "text", "svg"])]
    argvs += [["similarity", m, "--measure", measure, "--diagonal", diagonal,
               *log] for measure, log, diagonal in itertools.product(
                   ["pearson", "cosine"], [[], ["--log"]],
                   ["include", "missing"])]
    argvs += [["oracle", m, *max_groups] for max_groups in
              [[], ["--max-groups", "1"], ["--max-groups", "2"]]]
    argvs += [["entropy", m, "--groups", str(groups)],
              ["cluster", m, "--out", str(dend)],
              ["render", str(dend)], ["render", str(dend), "--format", "svg"]]
    wrong = {}
    for argv in argvs:
        try:
            code = run_cli(argv)
        except Exception as exc:  # reported below, with its argv
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 2) or code == 2 and (
                not err.startswith("error: ") or err.count("\n") != 1):
            wrong[" ".join(argv[:1] + argv[2:])] = (code, err)
    assert wrong == {}


MISSING = ["--diagonal", "missing"]


@pytest.mark.parametrize("csv_text, argv, message", [
    (TINY_CSVS["2x2"], ["similarity", "--measure", "cosine", *MISSING],
     "cosine needs two equal-length vectors, length >= 1"),
    (TINY_CSVS["2x2"], ["similarity", "--measure", "pearson", *MISSING],
     "pearson needs two equal-length vectors, length >= 2"),
    (TINY_CSVS["3x3"], ["similarity", "--measure", "pearson", *MISSING],
     "pearson needs two equal-length vectors, length >= 2"),
    (TINY_CSVS["1x2"], ["oracle"], "cannot bisect fewer than 2 rows"),
], ids=["2x2-cosine-missing", "2x2-pearson-missing", "3x3-pearson-missing",
        "1-row-oracle"])
def test_too_small_a_matrix_exits_2(tmp_path, capsys, csv_text, argv,
                                    message):
    p = tmp_path / "m.csv"
    p.write_text(csv_text)
    assert run_cli([argv[0], str(p), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# Cells of every scale a count matrix can hold: zero, subnormals, the
# smallest normal, tiny and huge reals, and the largest finite magnitudes.
_FUZZ_CELLS = [0.0, 5e-324, 1e-310, 2e-308, 1e-300, 0.5, 1.0, 3.0, 1e300,
               1.7e308]


@st.composite
def accepted_matrices(draw):
    """A matrix of 2-6 rows that `build_matrix` accepts, of cells drawn
    from _FUZZ_CELLS, square with matching labels in half of them; and a
    grouping of its rows."""
    n = draw(st.integers(2, 6))
    k = n if draw(st.booleans()) else draw(st.integers(1, 6))
    values = draw(st.lists(st.lists(st.sampled_from(_FUZZ_CELLS),
                                    min_size=k, max_size=k),
                           min_size=n, max_size=n))
    rows = [f"r{i}" for i in range(n)]
    cols = rows if k == n else [f"c{j}" for j in range(k)]
    try:
        build_matrix(rows, cols, values)
    except InfodivError:
        reject()
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return rows, cols, values, {r: f"g{g}" for r, g in zip(rows, groups)}


@given(accepted_matrices())
@example((["a", "b", "c"], ["c1", "c2"],
          [[0.0, 5e-324], [5e-324, 5e-324], [1.0, 2.0]],
          {"a": "g0", "b": "g0", "c": "g1"}))
@example((["a", "b", "c", "d"], ["c0"],
          [[1e300], [5e-324], [5e-324], [5e-324]],
          {"a": "g0", "b": "g0", "c": "g0", "d": "g0"}))
@settings(max_examples=100, deadline=None)
def test_every_command_on_an_accepted_matrix_exits_0_or_2(case):
    # No traceback on valid input: each command either answers or names
    # what is undefined in one line. Rows whose totals lie below the grand
    # sum by more than the float range of a weight once made cluster and
    # oracle raise an AssertionError (first example), and the exhaustive
    # search of such a group a TypeError (second example).
    rows, cols, values, groups = case
    with tempfile.TemporaryDirectory() as tmp:
        m = os.path.join(tmp, "m.csv")
        with open(m, "w") as fh:
            fh.write(",".join(["x", *cols]) + "\n")
            for label, row in zip(rows, values):
                fh.write(",".join([label, *map(repr, row)]) + "\n")
        g = os.path.join(tmp, "groups.json")
        with open(g, "w") as fh:
            json.dump(groups, fh)
        argvs = [["cluster", m, "--mode", mode, "--stop", stop]
                 for mode, stop in itertools.product(
                     ["greedy", "exhaustive"], ["divisive", "full"])]
        argvs += [["oracle", m], ["entropy", m, "--groups", g]]
        argvs += [["similarity", m, "--measure", measure, "--diagonal",
                   diagonal, *log]
                  for measure, diagonal, log in itertools.product(
                      ["pearson", "cosine"], ["include", "missing"],
                      [[], ["--log"]])]
        wrong = {}
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = run_cli(argv)
                except Exception as exc:  # reported below, with its argv
                    code = repr(exc)
            err = err.getvalue()
            if code not in (0, 2) or code == 2 and (
                    not err.startswith("error: ") or err.count("\n") != 1):
                wrong[" ".join(argv[:1] + argv[2:])] = (code, err)
    assert wrong == {}
