"""Self-tests of the benchmark: `python3 -m pytest perfbench`.

They run the benchmark itself for a few seconds per case (about five
minutes in all), so they are kept out of the repository's tier-1 suite
(pytest's testpaths is `tests`).
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

import corpus
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Appended to a copy of cli.py: every op then does its work twice.
TWICE = """

_run_cli_once = run_cli


def run_cli(argv) -> int:
    _run_cli_once(argv)
    return _run_cli_once(argv)
"""

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checkout(path, twice: bool):
    """What the benchmark runs in: BENCHMARK.json, perfbench/ and src/."""
    path.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, path / "perfbench", ignore=skip)
    shutil.copytree(os.path.join(ROOT, "src"), path / "src", ignore=skip)
    if twice:
        with open(path / "src" / "infodiv" / "cli.py", "a") as fh:
            fh.write(TWICE)
    return path


def _snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_corpus_is_byte_identical_for_a_seed(workload, tmp_path):
    ops_a = corpus.build_corpus(workload, 7, str(tmp_path / "a"))
    ops_b = corpus.build_corpus(workload, 7, str(tmp_path / "b"))
    corpus.build_corpus(workload, 8, str(tmp_path / "c"))
    a = _snapshot(tmp_path / "a")
    assert a == _snapshot(tmp_path / "b")
    assert a != _snapshot(tmp_path / "c")
    assert all(name.endswith((".csv", ".json")) for name in a)
    strip = [(o.item, o.kind, o.fmt, len(o.argv)) for o in ops_a]
    assert strip == [(o.item, o.kind, o.fmt, len(o.argv)) for o in ops_b]


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == corpus.WORKLOADS[w["name"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]


def test_end_to_end_metrics_are_emitted():
    res = result(bench("--workload", "similarity", "--seed", "3",
                       "--seconds", "3", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_work_counters_repeat_across_traced_runs():
    runs = [result(bench("--workload", "cluster-greedy", "--seed", "5",
                         "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    for res in runs:
        assert res["correct"]
        assert sorted(res["metrics"]) == sorted(names)
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    counters += ["io.bytes_out", "cluster.accept_ratio"]
    first, second = (r["metrics"] for r in runs)
    for name in counters:
        assert first[name]["value"] == second[name]["value"], name
    assert first["matrix.check_subset_calls"]["value"] > 0
    assert first["cluster.seed_candidates"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["cluster-greedy", "ingest"])
def test_known_slowdown_shows_at_its_size(workload, tmp_path):
    """Times are scaled by a calibration task run in the same process, so
    check that a program doing twice the work per op reads twice as slow,
    within the metric's bound: two pairs of runs, in alternating order."""
    trees = {"base": _checkout(tmp_path / "base", twice=False),
             "twice": _checkout(tmp_path / "twice", twice=True)}
    want = {"op_s.p50": 2.0, "op_s.tail": 2.0, "ops_per_s": 0.5}
    ratios = {m: [] for m in want}
    for order in (("base", "twice"), ("twice", "base")):
        got = {name: result(bench("--workload", workload, "--seed", "1",
                                  "--seconds", "10", "--trace", "0",
                                  cwd=trees[name]))["metrics"]
               for name in order}
        for m in ratios:
            ratios[m].append(got["twice"][m]["value"] /
                             got["base"][m]["value"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for m, ratio in want.items():
        got = statistics.median(ratios[m])
        assert abs(got / ratio - 1) <= bounds[m], (m, ratios[m])
