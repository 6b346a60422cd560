#!/usr/bin/env python3
"""Diff the checked-in benchmark ledgers against another commit.

Usage: bench/compare.py REV

For every BENCH_*.json in the working tree, loads the same file as of
git revision REV (`git show REV:BENCH_<name>.json`) and prints, row by
row, the old and new CPU time and their ratio (new / old; below 1 is
faster), then the rows only one side has (`+` added, `-` dropped). A
row is a Google Benchmark entry keyed by its name; repeated iteration
rows of one name are told apart by their repetition index.

Exits 1 when a ledger is missing at REV or either side is not a
Google Benchmark JSON file, 2 on usage errors. The ratios are printed,
not judged: a ledger is a record, and the smoke guardrails in
bench/run_bench.sh are the gates.
"""

import glob
import json
import os
import statistics
import subprocess
import sys

TIME_UNITS_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def rows(text, what):
    """Maps row key -> CPU time in ns (None when the row has none)."""
    try:
        entries = json.loads(text)["benchmarks"]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"{what}: not a benchmark ledger ({error})")
    if not isinstance(entries, list):
        raise ValueError(f"{what}: 'benchmarks' is not a list")
    counts = {}
    for entry in entries:
        counts[entry.get("name")] = counts.get(entry.get("name"), 0) + 1
    result = {}
    for entry in entries:
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValueError(f"{what}: a row has no name")
        key = name
        if counts[name] > 1 and entry.get("run_type") == "iteration":
            key = f"{name}#{entry.get('repetition_index', 0)}"
        scale = TIME_UNITS_NS.get(entry.get("time_unit", "ns"))
        cpu = entry.get("cpu_time")
        result[key] = (cpu * scale
                       if isinstance(cpu, (int, float)) and scale else None)
    return result


def git_show(rev, path):
    completed = subprocess.run(["git", "show", f"{rev}:{path}"],
                               capture_output=True, text=True)
    if completed.returncode != 0:
        raise ValueError(f"{path}: missing at {rev}")
    return completed.stdout


def compare(path, rev):
    with open(path) as f:
        new = rows(f.read(), path)
    old = rows(git_show(rev, path), f"{rev}:{path}")
    ratios = []
    print(f"== {path} vs {rev}")
    for key in sorted(old.keys() & new.keys()):
        before, after = old[key], new[key]
        if before and after is not None:
            ratio = after / before
            ratios.append(ratio)
            print(f"  {key:<60} {before:>14.1f} {after:>14.1f}  x{ratio:.3f}")
        else:
            print(f"  {key:<60} {'(no time)':>14} {'(no time)':>14}")
    for key in sorted(new.keys() - old.keys()):
        print(f"  + {key}")
    for key in sorted(old.keys() - new.keys()):
        print(f"  - {key}")
    summary = (f"median x{statistics.median(ratios):.3f}" if ratios
               else "no timed rows in common")
    print(f"  {len(ratios)} rows compared, {summary}, "
          f"{len(new.keys() - old.keys())} added, "
          f"{len(old.keys() - new.keys())} dropped")


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    ledgers = sorted(glob.glob("BENCH_*.json"))
    if not ledgers:
        print("compare.py: no BENCH_*.json in the working tree",
              file=sys.stderr)
        return 1
    failed = False
    for path in ledgers:
        try:
            compare(path, argv[1])
        except (OSError, ValueError) as error:
            print(f"compare.py: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
