#!/usr/bin/env python3
"""Peak resident memory of one pass of a workload through the command line.

    PYTHONPATH=src python3 perfbench/peak_rss.py ARGV_LISTS.json

Reads a JSON file holding a list of `run_cli` argument lists and runs
each once, in order, in this fresh process, which imports nothing but the
program.
Prints the process's peak resident set size in MiB (VmHWM: getrusage's
ru_maxrss would also hold the parent's peak, which Linux carries over into
a child at exec). Exits 1 if an op returns non-zero. The benchmark's corpus, checks and calibration live in
the parent process, so none of their memory is counted here.
"""

import json
import sys

import infodiv.cli


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        argvs = json.load(fh)
    for argv in argvs:
        if infodiv.cli.run_cli(argv) != 0:
            print(f"error: {argv} failed", file=sys.stderr)
            return 1
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    print(hwm_kib / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
