#!/usr/bin/env python3
"""kavbench runner: builds the benchmark, runs workloads, compares result sets.

Run from the repository root (or anywhere: paths resolve from this file).

  One run, the BENCHMARK.json command (the last stdout line is the result):
    python3 kavbench/kavbench.py --workload NAME --seed N --seconds S --trace 0|1

  Every workload, printed with units, written to a results file:
    python3 kavbench/kavbench.py run [--seeds 1-10] [--seconds S] [--smoke]
                                     [--trace] [--workload NAME ...] [--out F]

  Two result sets against the bounds in BENCHMARK.json:
    python3 kavbench/kavbench.py compare BASE.json NEW.json

The benchmark binary is built from this checkout's sources into $CARGO_TARGET_DIR
(default .bench_build). Scratch inputs live under <build>/work and are
removed after each run; chrome traces are kept under <build>/traces.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["audit_file", "decide_contended", "monitor_live", "store_mixed"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
WALL_DIAGNOSTICS = [("ops_per_s", "higher"), ("latency_ms_p50", "lower")]
WALL_BOUND = 0.25


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("kavbench: no kav sources next to kavbench/ "
                         f"(looked for {ROOT / 'src'})")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "kavbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return out / "kavbench"


def run_binary(binary, workload, seed, seconds, trace):
    """One benchmark process; returns its parsed result line."""
    work = build_dir() / "work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-seed{seed}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"kavbench: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=bool(trace))
    return result


def command_result(result, names):
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            raise SystemExit(f"kavbench: the run did not report {name}")
        metrics[name] = result["metrics"][name]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def stamp(seeds):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "git_rev": rev,
        "seeds": seeds,
        "kav_force_scalar": os.environ.get("KAV_FORCE_SCALAR", ""),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def cmd_run(args):
    spec = load_spec()
    binary = build()
    seeds = parse_seeds("1-1" if args.smoke else args.seeds)
    seconds = 1 if args.smoke else (args.seconds or spec["run_seconds"])
    workloads = args.workload or WORKLOADS
    runs = []
    failed = False
    for workload in workloads:
        for seed in seeds:
            for trace in ([False, True] if args.trace else [False]):
                log(f"== {workload} seed {seed}{' (traced)' if trace else ''}")
                result = run_binary(binary, workload, seed, seconds, trace)
                runs.append(result)
                if not result["correct"]:
                    failed = True
                    log(f"FAILED {workload} seed {seed}: "
                        f"{result['failed']}/{result['attempted']} checks: "
                        f"{result.get('failures')}")

    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        print(f"\n{workload}  ({len(plain)} runs; median [q1, q3], spread = "
              f"(q3 - q1) / median)")
        attempted = sum(r["attempted"] for r in plain)
        bad = sum(r["failed"] for r in plain)
        print(f"  {'fail_frac':34s} {bad / max(attempted, 1):14.6g} "
              f"({bad}/{attempted})")
        print_table(plain, e2e, "metrics")
        print_table(plain, sorted({k for r in plain for k in r["extra"]}),
                    "extra", "(diagnostic)")
        traced = [r for r in mine if r["trace"]]
        if traced:
            print(f"  per-layer ({len(traced)} traced runs):")
            print_table(traced, layers, "metrics")
            print_table(traced,
                        sorted({k for r in traced for k in r["extra"]}),
                        "extra", "(diagnostic)")

    out = Path(args.out) if args.out else (
        build_dir() / "results" /
        f"kavbench-{datetime.datetime.now():%Y%m%d-%H%M%S}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"stamp": stamp(seeds), "seconds": seconds, "runs": runs},
                  f, indent=1)
    print(f"\nwrote {out}")
    return 1 if failed else 0


def print_table(runs, names, field, note=""):
    for name in names:
        values = [r[field][name]["value"] for r in runs if name in r[field]]
        if not values:
            continue
        unit = next(r[field][name]["unit"] for r in runs if name in r[field])
        med, q1, q3 = spread(values)
        rel = (q3 - q1) / abs(med) if med else 0.0
        print(f"  {name:34s} {med:14.6g} {unit:6s} [{q1:.6g}, {q3:.6g}] "
              f"spread {rel:6.1%} {note}")


def verdict(base, new, better, bound):
    """A gain needs >= 90% pair wins and a median gap wider than the
    base's own quartile spread (or every new run beating every base run);
    a metric whose spread exceeds the bound is unresolved unless one side
    dominates."""
    sign = 1 if better == "higher" else -1
    b_med, b_q1, b_q3 = spread(base)
    n_med, n_q1, n_q3 = spread(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    worse_by = -sign * (n_med - b_med) / abs(b_med)
    wide = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med)) > bound
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    all_worse = max(sign * n for n in new) < min(sign * b for b in base)
    if (win_rate >= 0.9 and abs(n_med - b_med) > (b_q3 - b_q1)
            and sign * (n_med - b_med) > 0) or all_better:
        return "improved", win_rate
    if worse_by > bound and (not wide or all_worse):
        return "worse", win_rate
    if wide:
        return "unresolved", win_rate
    return "unchanged", win_rate


def cmd_compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for label, doc in (("base", base), ("new", new)):
        s = doc["stamp"]
        print(f"{label}: {s['git_rev'][:12]} {s['date']} nproc={s['nproc']} "
              f"seeds={s['seeds']} seconds={doc['seconds']} cpu={s['cpu']}")

    def series(doc, workload, traced, field, name):
        rows = sorted((r for r in doc["runs"] if r["workload"] == workload
                       and r["trace"] == traced and name in r[field]),
                      key=lambda r: r["seed"])
        return [r[field][name]["value"] for r in rows]

    worst = "unchanged"
    workloads = sorted({r["workload"] for r in base["runs"]} &
                       {r["workload"] for r in new["runs"]},
                       key=lambda w: WORKLOADS.index(w) if w in WORKLOADS else 99)
    for workload in workloads:
        steal = [statistics.median(series(doc, workload, False, "extra",
                                          "host.steal_share") or [0.0])
                 for doc in (base, new)]
        print(f"\n{workload}  (median host steal: base {steal[0]:.1%}, "
              f"new {steal[1]:.1%})")
        print(f"  {'metric':18s} {'base median [q1, q3]':>32s} "
              f"{'new median [q1, q3]':>32s} {'delta':>8s} {'wins':>5s} "
              f"{'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            b = series(base, workload, False, "metrics", m["name"])
            n = series(new, workload, False, "metrics", m["name"])
            if not b or not n:
                continue
            v, win_rate = verdict(b, n, m["better"], m["bound"])
            if v in ("worse", "unresolved") and worst != "worse":
                worst = v
            bm, bq1, bq3 = spread(b)
            nm, nq1, nq3 = spread(n)
            print(f"  {m['name']:18s} {bm:12.5g} [{bq1:.5g}, {bq3:.5g}]"
                  f"{'':>2s} {nm:12.5g} [{nq1:.5g}, {nq3:.5g}]"
                  f"{'':>2s} {(nm - bm) / abs(bm):+7.1%} {win_rate:5.0%} "
                  f"{m['bound']:6.0%}  {v}")
        # Wall-clock figures ride along ungated: host steal moves them
        # more than any bound could absorb (README.md, "Why CPU time").
        for name, better in WALL_DIAGNOSTICS:
            b = series(base, workload, False, "extra", name)
            n = series(new, workload, False, "extra", name)
            if b and n:
                v, win_rate = verdict(b, n, better, WALL_BOUND)
                bm, nm = statistics.median(b), statistics.median(n)
                print(f"  {name:18s} {bm:12.5g}{'':>21s} {nm:12.5g}"
                      f"{'':>21s} {(nm - bm) / abs(bm):+7.1%} "
                      f"{win_rate:5.0%} {'-':>6s}  ({v}; diagnostic)")
        deltas = []
        for m in spec["per_layer"]:
            b = series(base, workload, True, "metrics", m["name"])
            n = series(new, workload, True, "metrics", m["name"])
            if b and n:
                bm, nm = statistics.median(b), statistics.median(n)
                rel = (nm - bm) / abs(bm) if bm else 0.0
                deltas.append(f"    {m['name']:34s} {bm:12.5g} -> {nm:12.5g} "
                              f"{m['unit']:6s} {rel:+7.1%}")
        if deltas:
            print("  per-layer (traced runs, medians):")
            print("\n".join(deltas))
    print(f"\noverall: {worst}")
    return 1 if worst == "worse" else 0


def cmd_single(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    print(json.dumps(command_result(result, names)))
    return 0


def main(argv):
    if not argv or argv[0] not in ("run", "compare"):
        return cmd_single(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and write a results file")
    run.add_argument("--seeds", default="1",
                     help="seed list, e.g. 1 or 1-10 or 1,3,5 (default 1)")
    run.add_argument("--seconds", type=float, default=0,
                     help="timed seconds per run (default: BENCHMARK.json)")
    run.add_argument("--smoke", action="store_true",
                     help="1 s per workload, seed 1: a quick correctness pass")
    run.add_argument("--trace", action="store_true",
                     help="also one traced run per workload and seed")
    run.add_argument("--workload", action="append", choices=WORKLOADS)
    run.add_argument("--out", help="results file (default under the build dir)")
    compare = sub.add_parser("compare", help="compare two results files")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
