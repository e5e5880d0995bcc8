#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the committed baseline.

    python3 perfbench/spread.py [--out FILE]

For every workload in BENCHMARK.json it makes, with --trace 0:
  - REPEATS runs at seed 1: the noise of the measurement, on which the
    bounds rest;
  - one run per seed in SEEDS: how a regression check sees the metric,
    since it draws another seed for each run.
Runs go round the workloads in turn, so drift of the machine weighs on all
of them alike. Then it makes one --trace 1 run per workload at seed 1.
For every end-to-end metric it reports, for each of the two sets, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound. With --out it writes all
of it, the per-layer report, the output digests and the environment record
as JSON. It takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REPEATS = 10
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({res.returncode}):\n"
                           f"{res.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def describe(runs: list[dict], bounds: dict) -> dict:
    """Scaled and raw statistics of one set of --trace 0 runs."""
    out = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "samples": [r["detail"]["op_s.tail"]["samples"] for r in runs],
        "samples_above_p90": [r["detail"]["op_s.tail"]["samples_above"]
                              for r in runs],
        "end_to_end": {},
        "raw_end_to_end": {
            name: summarize([r["detail"]["raw"][name] for r in runs])
            for name in runs[0]["detail"]["raw"]},
    }
    for name, bound in bounds.items():
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        stats["bound"] = bound
        out["end_to_end"][name] = stats
    return out


def show(label: str, entry: dict) -> None:
    print(f"  {label}: ops/run {entry['samples']} failed {entry['failed']}")
    for name, stats in entry["end_to_end"].items():
        bound = stats["bound"]
        flag = "" if stats["spread"] < bound / 3 else \
            "  (above bound/3)" if stats["spread"] <= bound else \
            "  (ABOVE BOUND)"
        raw = entry["raw_end_to_end"].get(name)
        raw = f"  (raw spread {raw['spread']:.3f})" if raw else ""
        print(f"    {name:14s} median {stats['median']:.6g} "
              f"spread {stats['spread']:.3f} bound {bound}{flag}{raw}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    repeats = {w: [] for w in workloads}
    for _ in range(REPEATS):
        for w in workloads:
            repeats[w].append(run_once(w, 1, seconds, 0))
    seeded = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            seeded[w].append(run_once(w, seed, seconds, 0))

    report = {"run_seconds": seconds, "repeats_at_seed_1": REPEATS,
              "seeds": list(SEEDS), "workloads": {}}
    for w in workloads:
        traced = run_once(w, 1, seconds, 1)
        entry = {
            "same_seed": describe(repeats[w], bounds),
            "across_seeds": describe(seeded[w], bounds),
            "outputs_sha256": {str(seed): r["detail"]["outputs_sha256"]
                               for seed, r in zip(SEEDS, seeded[w])},
            "per_layer_seed1": {k: v["value"]
                                for k, v in traced["metrics"].items()},
            "environment": seeded[w][0]["detail"]["environment"],
        }
        layer = entry["per_layer_seed1"]
        print(f"{w}:")
        show(f"seed 1 x {REPEATS}", entry["same_seed"])
        show(f"seeds {SEEDS[0]}..{SEEDS[-1]}", entry["across_seeds"])
        print(f"  trace overhead {layer['trace.overhead']:.3f}"
              f" ({layer['trace.op_s.p50']:.4g} s /"
              f" {layer['trace.untraced_op_s.p50']:.4g} s)")
        sys.stdout.flush()
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
