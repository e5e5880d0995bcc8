#!/usr/bin/env python3
"""Closed-loop benchmark of the infodiv command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, no threads: each `infodiv.cli.run_cli` call starts when the
previous one has returned. Every op reads a generated CSV file and writes
its result with --out; its output is checked after the timed interval.

--trace 0 prints the end-to-end metrics; --trace 1 runs the corpus once
more under span tracing (see spans.py) and prints the per-layer metrics.
The last stdout line is the JSON result; the line before it holds the
details (environment, tail percentile, error rate, output digests).
Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402  (sibling modules; HERE is on sys.path)
import corpus  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: times are seconds per op (inclusive span time, mean
# over the traced ops), counters are per-op means of an exact total.
PER_LAYER = {
    "cli.self_s": "s",
    "io.parse_csv_s": "s",
    "io.parse_csv.cells_per_s": "cells/s",
    "io.similarity_csv_s": "s",
    "io.bytes_out": "B",
    "io.export_s": "s",
    "matrix.build_matrix_s": "s",
    "matrix.probability_model_s": "s",
    "matrix.check_subset_calls": "count",
    "matrix.check_subset_s": "s",
    "matrix.pooled_profile_calls": "count",
    "matrix.pooled_profile_s": "s",
    "entropy.shannon_entropy_calls": "count",
    "entropy.shannon_entropy_s": "s",
    "entropy.decompose_calls": "count",
    "entropy.decompose_s": "s",
    "cluster.divisive_cluster_s": "s",
    "cluster.greedy_bisect_calls": "count",
    "cluster.greedy_bisect_s": "s",
    "cluster.splits_accepted": "count",
    "cluster.accept_ratio": "ratio",
    "cluster.candidates_scored": "count",
    "cluster.evaluate_bipartition_s": "s",
    "cluster.seed_candidates": "count",
    "cluster.seed_s": "s",
    "cluster.growth_candidates": "count",
    "cluster.growth_s": "s",
    "oracle.exhaustive_bisect_calls": "count",
    "oracle.exhaustive_bisect_s": "s",
    "oracle.bisect_candidates": "count",
    "oracle.exhaustive_partition_s": "s",
    "oracle.partition_candidates": "count",
    "oracle.candidates_per_s": "1/s",
    "oracle.verify_greedy_s": "s",
    "oracle.greedy_gap_max": "bits",
    "similarity.similarity_matrix_s": "s",
    "similarity.log_transform_s": "s",
    "similarity.pairs": "count",
    "similarity.pairs_per_s": "1/s",
    "render.render_dendrogram_s": "s",
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead": "ratio",
}

SETUP_SPAWNS = 9          # fresh interpreters timed for setup_s
# op_s.tail is the p90. In the 80 baseline runs it had 7-35 samples above
# it (ten or more in 74), where a p99 would have had at most 3. It is kept
# fixed rather than chosen per run, so that a slower program, which
# completes fewer ops, is still compared at the same percentile.
TAIL_PERCENTILE = 90

# On a shared 2-core VM the CPU speed drifts: the per-second median of a
# fixed 2.6 ms task moved by a quarter within 15 s, single timings spanned
# 1.3-4.9 ms, and CPU time read the same as wall time. Raw op times spread
# by 10-40% between runs. So a fixed calibration task is timed just before
# and just after every op (and every setup spawn), and each wall time is
# scaled by CAL_REF_S / (mean of the two): times are reported at the speed
# where the task takes CAL_REF_S. The raw values are printed in the details
# line. The self-test test_known_slowdown_shows_at_its_size checks that a
# program made twice as slow reads twice as slow after scaling.
CAL_REF_S = 2e-3


class Calibrator:
    """Times a fixed task shaped like the program's work: small numpy
    reductions called from Python, dict building, and random reads from a
    4 MB array. It tracked op times more closely than a pure-Python loop.
    The garbage collector is off while it runs, so that its time does not
    depend on how many objects the program left alive."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._profile = rng.random(40)
        self._big = np.arange(1 << 19, dtype=np.int64)
        self._idx = rng.integers(0, 1 << 19, size=20_000)

    def __call__(self) -> float:
        np, x = self._np, self._profile
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(300):
            p = x / x.sum()
            nz = p[p > 0]
            float(-(nz * np.log2(nz)).sum())
        self._big[self._idx].sum()
        self._big[self._idx[::-1]].sum()
        table = {}
        for i in range(5_000):
            table[i] = (i, str(i))
        elapsed = time.perf_counter() - t0
        if gc_was_on:
            gc.enable()
        return elapsed


def normalize(times: list[float], cals: list[float]) -> list[float]:
    """Scale each wall time to reference speed by its calibration."""
    return [t * CAL_REF_S / c for t, c in zip(times, cals)]


class Runner:
    """Runs ops of one corpus, checks their outputs and keeps the tally."""

    def __init__(self, ops, workdir: str, calibrate: Calibrator):
        import infodiv.cli

        self._cli = infodiv.cli   # run_cli is looked up per call: tracing
        self.ops = ops
        self.out_path = os.path.join(workdir, "out")
        self.labels = {op.item: checks.input_labels(op) for op in ops}
        self.expected: dict[str, bytes] = {}
        self.untrusted: dict[str, str] = {}   # item -> why no reference
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_out = 0
        self.calibrate = calibrate
        self.cals: list[float] = []   # calibration around each op

    def verify_references(self) -> None:
        """Compute the expected output of every item (untimed)."""
        for op in self.ops:
            data, why = checks.reference(op, self.labels[op.item])
            if why:
                self.untrusted[op.item] = why
            elif data is not None:
                self.expected[op.item] = data

    def run(self, op) -> float:
        """Run one op and check it; return its wall time.

        The mean of the calibrations just before and after the op is
        appended to `cals`. Failures are recorded.
        """
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        self.attempted += 1
        argv = [*op.argv, "--out", self.out_path]
        before = self.calibrate()
        t0 = time.perf_counter()
        try:
            why = None
            rc = self._cli.run_cli(argv)
        except Exception:  # a traceback is a failed op, not a dead run
            traceback.print_exc(file=sys.stderr)
            why = "raised"
        elapsed = time.perf_counter() - t0
        self.cals.append((before + self.calibrate()) / 2)
        if why is None:
            why = f"exit code {rc}" if rc != 0 else self._check(op)
        if why:
            self.failures.append(f"{op.item}: {why}")
        return elapsed

    def _check(self, op) -> str | None:
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        self.bytes_out += len(data)
        if op.item in self.untrusted:
            return self.untrusted[op.item]
        why = checks.check(op, data, self.labels[op.item])
        if why:
            return why
        want = self.expected.setdefault(op.item, data)
        return None if data == want else "output differs from the reference"

    def run_pass(self) -> list[float]:
        """One pass over the corpus; returns the ops' times scaled to
        reference speed."""
        self.cals = []
        return normalize([self.run(op) for op in self.ops], self.cals)

    def run_for(self, seconds: float) -> list[float]:
        """Cycle through the corpus until `seconds` have elapsed; returns
        the raw wall times, leaving their calibrations in `cals`.

        Only whole passes are kept (all ops if not even one pass fits), so
        that every item weighs the same in the percentiles: a partial last
        pass would shift the p50 and p90 between items from run to run.
        The ops of the partial pass are still checked and counted.
        """
        self.cals = []
        samples: list[float] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            samples.append(self.run(self.ops[len(samples) % len(self.ops)]))
        whole = len(samples) - len(samples) % len(self.ops) or len(samples)
        del self.cals[whole:]
        return samples[:whole]

    def digests(self) -> dict[str, str]:
        return {item: hashlib.sha256(data).hexdigest()
                for item, data in sorted(self.expected.items())}


def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE of `samples` by the nearest-rank rule, and the
    number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure_setup(calibrate: Calibrator) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing infodiv.cli, and the
    calibrations around them.

    The spawns run pinned to one CPU, the one the calibration runs on:
    unpinned, a child may land on the other core, whose speed the parent's
    calibration does not see (run-to-run spread 0.4 unpinned, 0.05 pinned,
    on a shared 2-core VM). Ops are not pinned.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import infodiv.cli"]
    cpus = os.sched_getaffinity(0)
    times, cals = [], []
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for k in range(SETUP_SPAWNS + 1):   # the first spawn warms caches
            before = calibrate()
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            elapsed = time.perf_counter() - t0
            if k:
                times.append(elapsed)
                cals.append((before + calibrate()) / 2)
    finally:
        os.sched_setaffinity(0, cpus)
    return times, cals


def start_peak_rss(ops, workdir: str) -> subprocess.Popen:
    """Start a fresh process that imports the program and runs one pass of
    `ops` through `run_cli` (peak_rss.py); it prints its peak resident
    memory in MiB. It runs alongside the untimed set-up of this process.

    The pass goes in item order, which is the same for every seed, not in
    the seeded shuffle: on `ingest` the shuffle moved the peak by up to 9%
    between seeds (heap fragmentation), item order by under 0.1%.
    """
    argv_file = os.path.join(workdir, "rss-argv.json")
    out = os.path.join(workdir, "rss-out")
    with open(argv_file, "w", encoding="utf-8") as fh:
        json.dump([[*op.argv, "--out", out]
                   for op in sorted(ops, key=lambda op: op.item)], fh)
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "peak_rss.py"), argv_file],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        stdout=subprocess.PIPE, text=True)


def finish_peak_rss(proc: subprocess.Popen) -> float:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"peak_rss.py exited with {proc.returncode}")
    return float(out)


def _blas_threads() -> int | None:
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "infodiv", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(infodiv_threads_inherited: bool) -> dict:
    import numpy
    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads()
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": blas,
        "blas_threads_le_nproc": blas is None or blas <= nproc,
        "INFODIV_THREADS": "unset",
        "INFODIV_THREADS_inherited": infodiv_threads_inherited,
        "machine": platform.machine(),
    }


def end_to_end(runner: Runner, seconds: float,
               rss_mb: float) -> tuple[dict, dict]:
    setup_raw, setup_cals = measure_setup(runner.calibrate)
    raw = runner.run_for(seconds)
    samples = normalize(raw, runner.cals)
    tail_value, above = tail(samples)
    values = {
        "setup_s": statistics.median(normalize(setup_raw, setup_cals)),
        "op_s.p50": statistics.median(samples),
        "op_s.tail": tail_value,
        "ops_per_s": len(samples) / math.fsum(samples),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "op_s.tail": {"percentile": TAIL_PERCENTILE, "samples": len(samples),
                      "samples_above": above},
        "raw": {"setup_s": statistics.median(setup_raw),
                "op_s.p50": statistics.median(raw),
                "op_s.tail": tail(raw)[0],
                "ops_per_s": len(raw) / math.fsum(raw)},
        "calibration_s": statistics.median(runner.cals),
        "setup_calibration_s": statistics.median(setup_cals),
    }
    return values, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until `seconds` have elapsed,
    so that drift and ordering weigh on both sides of the overhead alike."""
    from spans import Tracer

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    traced_cals: list[float] = []
    bytes_out = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain += runner.run_pass()
        bytes_before = runner.bytes_out
        tracer.install()
        try:
            traced += runner.run_pass()
        finally:
            tracer.uninstall()
        bytes_out += runner.bytes_out - bytes_before
        traced_cals += runner.cals
    rep = tracer.report()
    c = tracer.counters
    n = len(traced)
    # Span times are scaled to reference speed by the traced passes' median
    # calibration; per-op scaling is not worth attributing spans to ops.
    scale = CAL_REF_S / statistics.median(traced_cals)
    for entry in rep.values():
        entry["incl"] *= scale
        entry["self"] *= scale

    def t(name):   # inclusive seconds per op
        return rep[name]["incl"] / n

    def calls(name):
        return rep[name]["calls"] / n

    def rate(work, name):
        return work / rep[name]["incl"] if rep[name]["incl"] else 0.0

    oracle_s = rep["oracle.exhaustive_bisect"]["incl"] + \
        rep["oracle.exhaustive_partition"]["incl"]
    oracle_work = c["bisect_candidates"] + c["partition_candidates"]
    bisects = rep["cluster.greedy_bisect"]["calls"]
    traced_p50 = statistics.median(traced)
    plain_p50 = statistics.median(plain)
    values = {
        "cli.self_s": rep["cli.run_cli"]["self"] / n,
        "io.parse_csv_s": t("io.parse_csv"),
        "io.parse_csv.cells_per_s": rate(c["cells"], "io.parse_csv"),
        "io.similarity_csv_s": t("io.similarity_csv"),
        "io.bytes_out": bytes_out / n,
        "io.export_s": t("io.export_dendrogram"),
        "matrix.build_matrix_s": t("matrix.build_matrix"),
        "matrix.probability_model_s": t("matrix.probability_model"),
        "matrix.check_subset_calls": calls("matrix.check_subset"),
        "matrix.check_subset_s": t("matrix.check_subset"),
        "matrix.pooled_profile_calls": calls("matrix.pooled_profile"),
        "matrix.pooled_profile_s": t("matrix.pooled_profile"),
        "entropy.shannon_entropy_calls": calls("entropy.shannon_entropy"),
        "entropy.shannon_entropy_s": t("entropy.shannon_entropy"),
        "entropy.decompose_calls": calls("entropy.decompose"),
        "entropy.decompose_s": t("entropy.decompose"),
        "cluster.divisive_cluster_s": t("cluster.divisive_cluster"),
        "cluster.greedy_bisect_calls": calls("cluster.greedy_bisect"),
        "cluster.greedy_bisect_s": t("cluster.greedy_bisect"),
        "cluster.splits_accepted": c["splits_accepted"] / n,
        "cluster.accept_ratio": c["splits_accepted"] / bisects
        if bisects else 0.0,
        "cluster.candidates_scored": calls("cluster.evaluate_bipartition"),
        "cluster.evaluate_bipartition_s": t("cluster.evaluate_bipartition"),
        "cluster.seed_candidates": calls("seed"),
        "cluster.seed_s": t("seed"),
        "cluster.growth_candidates": calls("growth"),
        "cluster.growth_s": t("growth"),
        "oracle.exhaustive_bisect_calls": calls("oracle.exhaustive_bisect"),
        "oracle.exhaustive_bisect_s": t("oracle.exhaustive_bisect"),
        "oracle.bisect_candidates": c["bisect_candidates"] / n,
        "oracle.exhaustive_partition_s": t("oracle.exhaustive_partition"),
        "oracle.partition_candidates": c["partition_candidates"] / n,
        "oracle.candidates_per_s": oracle_work / oracle_s if oracle_s else 0.0,
        "oracle.verify_greedy_s": t("oracle.verify_greedy"),
        "oracle.greedy_gap_max": c["greedy_gap_max"],
        "similarity.similarity_matrix_s": t("similarity.similarity_matrix"),
        "similarity.log_transform_s": t("similarity.log_transform"),
        "similarity.pairs": c["pairs"] / n,
        "similarity.pairs_per_s": rate(c["pairs"],
                                       "similarity.similarity_matrix"),
        "render.render_dendrogram_s": t("render.render_dendrogram"),
        "trace.op_s.p50": traced_p50,
        "trace.untraced_op_s.p50": plain_p50,
        "trace.overhead": traced_p50 / plain_p50,
    }
    detail = {"traced_ops": n, "untraced_ops": len(plain),
              "spans": len(tracer.span_name)}
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "infodiv", "cli.py")):
        print(f"error: no infodiv sources under {SRC}", file=sys.stderr)
        return 2
    inherited = os.environ.pop("INFODIV_THREADS", None) is not None
    sys.path.insert(0, SRC)
    import infodiv.cli
    if not os.path.abspath(infodiv.cli.__file__).startswith(SRC + os.sep):
        print("error: infodiv was not imported from ./src", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    rss = None
    try:
        ops = corpus.build_corpus(args.workload, args.seed,
                                  os.path.join(workdir, "corpus"))
        rss = None if args.trace else start_peak_rss(ops, workdir)
        runner = Runner(ops, workdir, Calibrator())
        runner.verify_references()
        runner.run_pass()        # warm-up: lazy imports, references
        if args.trace:
            values, detail = per_layer(runner, args.seconds)
            units = PER_LAYER
        else:
            rss_mb = finish_peak_rss(rss)   # before anything is timed
            values, detail = end_to_end(runner, args.seconds, rss_mb)
            units = END_TO_END
    finally:
        if rss is not None and rss.poll() is None:
            rss.kill()
            rss.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:10],
        "outputs_sha256": runner.digests(),
        "environment": environment(inherited),
    })
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:.6g} {unit}")
    print(f"{'error_rate':32s} {detail['error_rate']:.6g} ratio")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
