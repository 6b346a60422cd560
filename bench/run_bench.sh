#!/usr/bin/env bash
# Perf trajectory data points: runs the ingest, pipeline, engine,
# store, obs, streaming, and LBT-vs-FZF benchmarks and writes
# BENCH_ingest.json / BENCH_pipeline.json / BENCH_engine.json /
# BENCH_store.json / BENCH_obs.json / BENCH_streaming.json /
# BENCH_lbt_vs_fzf.json (Google Benchmark JSON: ops/s, peak_window,
# keys/s, scrape counters, ns per op) at the repo root so successive
# PRs can compare numbers.
#
# Usage: bench/run_bench.sh [--smoke] [build-dir]   (default: build)
#   --smoke: quick mode for CI -- a 200k-op workload and minimal
#            per-benchmark time, enough for a data point and to catch
#            crashes/regressions in the bench binaries themselves.
#            Writes the JSON files to <build-dir>/bench-smoke/ instead
#            of the repo root (the checked-in trajectory files stay
#            untouched) and runs the guardrails on those.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
  MODE=smoke
  shift
fi
BUILD_DIR="${1:-build}"

for bench in bench_ingest bench_pipeline bench_engine bench_store \
             bench_obs bench_streaming bench_lbt_vs_fzf; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "run_bench.sh: $BUILD_DIR/$bench not built" \
         "(Google Benchmark missing or KAV_BUILD_BENCH=OFF)" >&2
    exit 1
  fi
done

OUT_DIR=.
ARGS=(--benchmark_out_format=json)
if [[ "$MODE" == smoke ]]; then
  OUT_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$OUT_DIR"
  # System libbenchmark 1.7.x: min_time is a plain double (no 's').
  ARGS+=(--benchmark_min_time=0.01)
  export KAV_BENCH_OPS="${KAV_BENCH_OPS:-200000}"
fi

"$BUILD_DIR/bench_ingest"   "${ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_ingest.json"
"$BUILD_DIR/bench_pipeline" "${ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_pipeline.json"
ENGINE_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The observability guardrail below compares a pair expected to
  # differ by well under 2%, but individual smoke samples carry 4-7%
  # scheduler noise. Two countermeasures: random interleaving (so CPU
  # frequency / cache drift cannot bias one side of the pair -- the
  # repetitions of both benchmarks are shuffled together), and enough
  # repetitions for the min-estimator in the guardrail to converge.
  ENGINE_ARGS+=(--benchmark_repetitions=15
                --benchmark_enable_random_interleaving=true)
fi
"$BUILD_DIR/bench_engine"   "${ENGINE_ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_engine.json"
STORE_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The guardrails below compare sub-millisecond benchmarks; one 10ms
  # sample window on a busy box is too noisy, so take several
  # repetitions, interleaved so drift cannot bias one side of a pair:
  # the zero-copy pairs read the median, the store-width pair the min.
  STORE_ARGS+=(--benchmark_repetitions=9
               --benchmark_enable_random_interleaving=true)
fi
"$BUILD_DIR/bench_store"    "${STORE_ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_store.json"
OBS_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The scrape-vs-no-scrape guardrail below uses the min over
  # repetitions (same estimator rationale as the engine pair).
  OBS_ARGS+=(--benchmark_repetitions=5
             --benchmark_enable_random_interleaving=true)
fi
"$BUILD_DIR/bench_obs"      "${OBS_ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_obs.json"
STREAMING_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The window guardrail below uses the min over repetitions.
  STREAMING_ARGS+=(--benchmark_repetitions=5
                   --benchmark_enable_random_interleaving=true)
fi
"$BUILD_DIR/bench_streaming" "${STREAMING_ARGS[@]}" \
  --benchmark_out="$OUT_DIR/BENCH_streaming.json"
# The crossover ledger behind select_2av_algorithm's c threshold: the
# min over interleaved repetitions is each row's estimator, in both
# modes (the regret guardrail below reads it in smoke mode). At c >= 3
# auto and FZF do the same work, and on a shared box the min of five
# repetitions of that pair still drifted apart by up to 17%, so take
# nine.
"$BUILD_DIR/bench_lbt_vs_fzf" "${ARGS[@]}" --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="$OUT_DIR/BENCH_lbt_vs_fzf.json"

echo
echo "wrote BENCH_ingest.json, BENCH_pipeline.json, BENCH_engine.json," \
     "BENCH_store.json, BENCH_obs.json, BENCH_streaming.json, and" \
     "BENCH_lbt_vs_fzf.json to $OUT_DIR ($MODE mode)"

# Guardrail (smoke mode): the zero-copy decode+verify path must not be
# slower than the materializing reference it replaced. The median of
# the repetitions plus a 25% tolerance absorbs scheduler noise on
# small smoke workloads; an actual regression (the zero-copy path
# re-growing an Operation vector, a kernel falling off its vector
# path) shows up far above that.
if [[ "$MODE" == smoke ]]; then
  # The guardrails read the files this smoke run just wrote.
  cd "$OUT_DIR"
  python3 - <<'EOF'
import json, sys

with open("BENCH_store.json") as f:
    entries = json.load(f)["benchmarks"]
results = {}
for b in entries:
    # Prefer the _median aggregate over raw repetition samples.
    if b.get("aggregate_name", "median") == "median":
        results[b["name"].removesuffix("_median")] = b["real_time"]

pairs = [
    ("BM_LoadOneKey_ZeroCopy", "BM_LoadOneKey_Materializing"),
    ("BM_VerifyOneKey_ZeroCopy", "BM_VerifyOneKey_Materializing"),
    # v2.1 block-CRC verification must stay cheap on the zero-copy
    # path: the CRC-on run vs the same run with verification off. The
    # true overhead is single-digit percent (the trajectory JSON
    # records it); the CI bound only has to catch a broken dispatch
    # (e.g. the software CRC path pinned on SSE4.2 hardware).
    ("BM_LoadOneKey_ZeroCopy", "BM_LoadOneKey_ZeroCopyNoCrc"),
]
tolerance = 1.25
failed = False
for zero_copy, materializing in pairs:
    zc, mat = results[zero_copy], results[materializing]
    verdict = "ok" if zc <= mat * tolerance else "REGRESSION"
    print(f"{zero_copy}: {zc:.3f} vs {materializing}: {mat:.3f} -> {verdict}")
    failed |= verdict != "ok"
if failed:
    sys.exit("zero-copy path slower than materializing reference")
EOF

  # Store-width guardrail: a selective query must cost the same however
  # many other keys the store holds. bench_store's
  # BM_StoreSelectiveQuery runs one 4-key query on an 8-segment store
  # of ~1k keys and on one of ~16k keys (process CPU time, so the pool
  # workers' decode and decide count too; min over interleaved
  # repetitions). A query that lists every key of every segment costs
  # the wide store several times the narrow one (~8x measured); per-key
  # index lookups cost both the same.
  python3 - <<'EOF'
import json, sys

with open("BENCH_store.json") as f:
    entries = json.load(f)["benchmarks"]
results = {}
for b in entries:
    if "aggregate_name" in b:
        continue  # raw repetition samples only
    results[b["name"]] = min(results.get(b["name"], float("inf")),
                             b["cpu_time"])

narrow = results["BM_StoreSelectiveQuery/1024/process_time"]
wide = results["BM_StoreSelectiveQuery/16384/process_time"]
budget = narrow * 1.25
verdict = "ok" if wide <= budget else "WIDTH-BOUND"
print(f"selective query on a 16k-key store (min of reps): {wide:.1f}us vs "
      f"1k-key store: {narrow:.1f}us (budget {budget:.1f}us) -> {verdict}")
if verdict != "ok":
    sys.exit("selective query cost grows with the number of keys in the store")
EOF

  # Observability guardrail: the always-on metrics layer may cost at
  # most 2% on the selective-verify path (bench_engine's
  # selective_verify_metrics vs selective_verify_no_metrics pair --
  # the same engine with the registry enabled vs disabled, which is
  # what KAV_NO_METRICS toggles). Timing noise is one-sided additive
  # (preemption and cache pollution only ever slow a sample down), so
  # the MINIMUM over the interleaved repetitions is the low-variance
  # estimator of each side's true cost -- the median of this pair
  # still wobbles past 2% on a busy box when the real gap, by min, is
  # under 0.5%. The absolute floor absorbs the residual run-to-run
  # scatter of the min itself (~±0.45ms at the 14ms smoke workload:
  # the main thread blocks on pool handoff, so real_time carries
  # wakeup-latency noise the estimator cannot fully remove). The
  # regressions this guardrail exists to catch sit far above floor +
  # 2%: one clock read per operation costs ~4ms at 200k smoke ops,
  # one atomic RMW per operation ~1ms.
  python3 - <<'EOF'
import json, sys

with open("BENCH_engine.json") as f:
    entries = json.load(f)["benchmarks"]
results = {}
for b in entries:
    if "aggregate_name" in b:
        continue  # raw repetition samples only
    name = b["name"].removesuffix("/real_time")
    results[name] = min(results.get(name, float("inf")), b["real_time"])

enabled = results["selective_verify_metrics"]
disabled = results["selective_verify_no_metrics"]
tolerance = 1.02
floor_ms = 0.5  # run-to-run scatter of the min on a busy box
budget = disabled * tolerance + floor_ms
verdict = "ok" if enabled <= budget else "OVERHEAD"
print(f"selective_verify metrics (min of reps): {enabled:.3f}ms vs "
      f"no_metrics: {disabled:.3f}ms (budget {budget:.3f}ms) -> {verdict}")
if verdict != "ok":
    sys.exit("observability overhead above 2% on the selective-verify path")
EOF

  # Telemetry-server guardrail: a scraper hammering GET /metrics must
  # not block the monitor hot path (bench_obs's monitor_under_scrape/0
  # vs /2 -- the same monitor run with zero and two background
  # scrapers). The server ticks and renders on its own loop thread and
  # the monitor only touches sharded atomics, so the true cost is
  # within noise; the bound (min-of-reps, 25% + floor) only has to
  # catch a real serialization -- say a registry-wide lock taken per
  # scrape stalling the drain tasks, which shows up at 2x, not 1.25x.
  # On a 1-vCPU box even throttled scrapers time-share the core, so
  # the honest noise band of this pair is wider than the engine
  # pair's.
  python3 - <<'EOF'
import json, sys

with open("BENCH_obs.json") as f:
    entries = json.load(f)["benchmarks"]
results = {}
for b in entries:
    if "aggregate_name" in b:
        continue  # raw repetition samples only
    results[b["name"]] = min(results.get(b["name"], float("inf")),
                             b["real_time"])

baseline = results["monitor_under_scrape/0"]
scraped = results["monitor_under_scrape/2"]
budget = baseline * 1.25 + 5.0  # ms floor: scheduler scatter of the min
verdict = "ok" if scraped <= budget else "BLOCKED"
print(f"monitor under scrape (min of reps): {scraped:.3f}ms vs "
      f"baseline: {baseline:.3f}ms (budget {budget:.3f}ms) -> {verdict}")
if verdict != "ok":
    sys.exit("background /metrics scraping slows the monitor hot path")
EOF

  # Streaming-checker guardrail: the checker's cost per operation must
  # not grow with its window. bench_streaming's streaming_throughput_wide
  # runs one trace at a 1<<8 horizon (a window of ~50 operations) and a
  # 1<<14 horizon (~2000); both feed the same operations, so the time
  # ratio is the per-operation ratio. A checker that rescans its window
  # on every watermark advance sits at ~15x; an incremental one at
  # ~1.5x (the deeper heaps and hash tables of a larger window).
  python3 - <<'EOF'
import json, sys

with open("BENCH_streaming.json") as f:
    entries = json.load(f)["benchmarks"]
results, peaks = {}, {}
for b in entries:
    if "aggregate_name" in b:
        continue  # raw repetition samples only
    results[b["name"]] = min(results.get(b["name"], float("inf")),
                             b["real_time"])
    peaks[b["name"]] = b.get("peak_window", 0)

narrow = results["streaming_throughput_wide/500/256"]
wide_name = "streaming_throughput_wide/500/16384"
wide = results[wide_name]
if peaks[wide_name] < 256:
    sys.exit(f"{wide_name}: peak_window {peaks[wide_name]} < 256; "
             "the fixture no longer exercises a wide window")
budget = narrow * 2.0
verdict = "ok" if wide <= budget else "WINDOW-BOUND"
print(f"streaming checker, window {peaks[wide_name]:.0f} (min of reps): "
      f"{wide:.3f}ms vs narrow window: {narrow:.3f}ms "
      f"(budget {budget:.3f}ms) -> {verdict}")
if verdict != "ok":
    sys.exit("streaming checker cost per operation grows with its window")
EOF

  # Dispatch-regret guardrail: at every write concurrency c of the
  # LBT-vs-FZF sweep, auto dispatch may cost at most 1.25x the cheaper
  # of the two deciders (CPU time, min over interleaved repetitions;
  # all three rows pay the same precondition classification). A policy
  # that sends a c to the slower decider shows up at 1.5x or more: FZF
  # at c = 4 cost ~3.5x LBT before FZF's stages were flattened.
  python3 - <<'EOF'
import json, sys

with open("BENCH_lbt_vs_fzf.json") as f:
    entries = json.load(f)["benchmarks"]
results = {}
for b in entries:
    if "aggregate_name" in b:
        continue  # raw repetition samples only
    results[b["name"]] = min(results.get(b["name"], float("inf")),
                             b["cpu_time"])

failed = False
sweep = sorted(int(n.split("/")[1]) for n in results
               if n.startswith("head_to_head_auto/"))
if not sweep:
    sys.exit("BENCH_lbt_vs_fzf.json has no head_to_head_auto rows")
for c in sweep:
    lbt = results[f"head_to_head_lbt/{c}"]
    fzf = results[f"head_to_head_fzf/{c}"]
    auto = results[f"head_to_head_auto/{c}"]
    best = min(lbt, fzf)
    verdict = "ok" if auto <= best * 1.25 else "REGRET"
    print(f"c={c}: auto {auto / 1e6:.3f}ms vs lbt {lbt / 1e6:.3f}ms, "
          f"fzf {fzf / 1e6:.3f}ms (x{auto / best:.2f}) -> {verdict}")
    failed |= verdict != "ok"
if failed:
    sys.exit("auto dispatch costs more than 1.25x the cheaper decider")
EOF
fi
