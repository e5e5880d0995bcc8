import json

import pytest

from infodiv.cli import run_cli

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


def test_oracle_command(block_csv, capsys):
    assert run_cli(["oracle", block_csv, "--max-groups", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_partition"]["h0"] == 1.0
    assert doc["root_bisection"]["gap"] == 0.0
    assert sorted(map(sorted, doc["best_partition"]["groups"])) == \
        [["a", "b"], ["c", "d"]]


def test_render_command(block_csv, tmp_path, capsys):
    dend = tmp_path / "dend.json"
    assert run_cli(["cluster", block_csv, "--out", str(dend)]) == 0
    assert run_cli(["render", str(dend), "--format", "text"]) == 0
    assert "a+b" in capsys.readouterr().out
    assert run_cli(["render", str(dend), "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_thread_env_var_does_not_change_output(block_csv, capsys,
                                               monkeypatch):
    outputs = []
    for threads in ["1", "4"]:
        monkeypatch.setenv("INFODIV_THREADS", threads)
        assert run_cli(["cluster", block_csv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_bad_thread_env_var_exits_2(block_csv, capsys, monkeypatch):
    monkeypatch.setenv("INFODIV_THREADS", "lots")
    assert run_cli(["cluster", block_csv]) == 2


def test_row_order_invariance(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,w,y,z\nr1,5,0,1\nr2,0,4,4\nr3,5,1,0\n")
    b.write_text("x,w,y,z\nr3,5,1,0\nr1,5,0,1\nr2,0,4,4\n")
    assert run_cli(["cluster", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert run_cli(["cluster", str(b)]) == 0
    assert capsys.readouterr().out == out_a
