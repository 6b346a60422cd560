#!/usr/bin/env bash
# Perf trajectory data points: runs the ingest, pipeline, engine,
# store, obs, streaming, LBT-vs-FZF and (full mode only) oracle
# benchmarks and writes BENCH_ingest.json / BENCH_pipeline.json /
# BENCH_engine.json / BENCH_store.json / BENCH_obs.json /
# BENCH_streaming.json / BENCH_lbt_vs_fzf.json / BENCH_oracle.json
# (Google Benchmark JSON: ops/s, peak_window, keys/s, scrape counters,
# ns per op, search nodes) at the repo root so successive changes can
# compare numbers (bench/compare.py REV diffs them against a commit).
#
# Usage: bench/run_bench.sh [--smoke] [build-dir]   (default: build)
#   --smoke: quick mode for CI -- a 200k-op workload and minimal
#            per-benchmark time, enough for a data point and to catch
#            crashes/regressions in the bench binaries themselves.
#            Writes the JSON files to <build-dir>/bench-smoke/ instead
#            of the repo root (the checked-in trajectory files stay
#            untouched) and runs the guardrails on those. Skips
#            bench_oracle: BENCH_oracle.json is a ledger with no gate.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
  MODE=smoke
  shift
fi
BUILD_DIR="${1:-build}"

for bench in bench_ingest bench_pipeline bench_engine bench_store \
             bench_obs bench_streaming bench_lbt_vs_fzf bench_oracle; do
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

INGEST_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The pool-width guardrail below reads the median over interleaved
  # repetitions of monitor_stream/1 and /4. One-thread samples are
  # bimodal on a shared VM (~300 or ~420 ns/op, by which vCPUs the two
  # threads land on); fifteen repetitions keep the median from flipping
  # between the modes.
  INGEST_ARGS+=(--benchmark_repetitions=15
                --benchmark_enable_random_interleaving=true)
fi
"$BUILD_DIR/bench_ingest"   "${INGEST_ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_ingest.json"
"$BUILD_DIR/bench_pipeline" "${ARGS[@]}" --benchmark_out="$OUT_DIR/BENCH_pipeline.json"
ENGINE_ARGS=("${ARGS[@]}")
if [[ "$MODE" == smoke ]]; then
  # The observability guardrail below compares a pair expected to
  # differ by well under 2%, but individual smoke samples carry 4-50%
  # scheduler noise. Two countermeasures: each repetition times the two
  # sides in a mirrored order (see the guardrail), and enough
  # repetitions -- one iteration of eight calls each -- for the median
  # of the pairs to settle. Random interleaving keeps drift from biasing
  # any benchmark of the binary.
  ENGINE_ARGS+=(--benchmark_repetitions=90
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
# The crossover ledger behind select_2av_algorithm's c threshold:
# head_to_head times auto, LBT and FZF back to back in every iteration
# and reports each one's ns/op plus their paired ratio, in both modes
# (the regret guardrail below reads the ratio in smoke mode). At c >= 3
# auto and FZF do the same work, so the ratio sits near 1 and only its
# scatter can trip the bound; nine repetitions give its median room.
"$BUILD_DIR/bench_lbt_vs_fzf" "${ARGS[@]}" --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="$OUT_DIR/BENCH_lbt_vs_fzf.json"
# The exact k >= 3 decider's cost ledger (search nodes and time against
# write concurrency, k and memoization): numbers for the frontier-state
# oracle to beat, no guardrail.
ORACLE_NOTE=""
if [[ "$MODE" == full ]]; then
  "$BUILD_DIR/bench_oracle" "${ARGS[@]}" \
    --benchmark_out="$OUT_DIR/BENCH_oracle.json"
  ORACLE_NOTE=", BENCH_oracle.json"
fi

echo
echo "wrote BENCH_ingest.json, BENCH_pipeline.json, BENCH_engine.json," \
     "BENCH_store.json, BENCH_obs.json, BENCH_streaming.json," \
     "BENCH_lbt_vs_fzf.json${ORACLE_NOTE} to $OUT_DIR ($MODE mode)"

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

  # Pool-width guardrail: monitoring on a wider pool may not cost much
  # more CPU per operation. bench_ingest's monitor_stream runs the same
  # 64-key stream through Engine::monitor on 1 and on 4 threads;
  # proc_cpu_ns_per_op charges every thread's CPU (getrusage) to the
  # operations, so work hidden on pool workers -- drain tasks woken per
  # operation, per-operation locks contended across partitions --
  # counts. Bound: 4 threads at most 1.5x one thread, comparing the
  # medians of interleaved repetitions (this pair's noise is two-sided:
  # a lucky run with fewer wakeups is as likely as an unlucky one).
  python3 - <<'EOF'
import json, statistics, sys

with open("BENCH_ingest.json") as f:
    entries = json.load(f)["benchmarks"]
samples = {}
for b in entries:
    if "aggregate_name" in b or not b["name"].startswith("monitor_stream/"):
        continue  # raw repetition samples only
    threads = b["name"].split("/")[1]
    samples.setdefault(threads, []).append(b["proc_cpu_ns_per_op"])

one = statistics.median(samples["1"])
four = statistics.median(samples["4"])
budget = one * 1.5
verdict = "ok" if four <= budget else "POOL-WIDTH"
print(f"monitor_stream process CPU per op (median of reps): 4 threads "
      f"{four:.0f}ns vs 1 thread {one:.0f}ns (x{four / one:.2f}, "
      f"budget {budget:.0f}ns) -> {verdict}")
if verdict != "ok":
    sys.exit("monitoring on 4 threads costs more than 1.5x one thread per op")
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
  # selective_verify_metrics_paired: the same engine with the registry
  # enabled vs disabled, which is what KAV_NO_METRICS toggles, timed in
  # the order A B B A B A A B within each iteration, with the side that
  # plays A flipping every iteration, so neither side owns a slot; each
  # call on a fresh engine, so both sides share one malloc arena).
  # Pairing is the estimator: on a shared host one ~25ms call can run
  # 50% slow, and such stretches hit both sides of a pair alike, so the
  # per-repetition excess (enabled - disabled x 1.02 - floor) carries
  # only the two-sided residual, and its median over the repetitions is
  # the test. The 0.5ms floor absorbs that residual's scatter; the
  # regressions this guardrail exists to catch sit above floor + 2%:
  # one clock read per operation adds ~10ms per call at 200k smoke ops,
  # one relaxed atomic add per operation ~2ms, and the gate fails on
  # both. (The min of each side over 15, 45 and 90 unpaired interleaved
  # repetitions failed about one smoke run in three, one in six and one
  # in six.)
  python3 - <<'EOF'
import json, statistics, sys

with open("BENCH_engine.json") as f:
    entries = json.load(f)["benchmarks"]
enabled, disabled, excess = [], [], []
tolerance = 1.02
floor_ms = 0.5  # scatter of one pair's residual on a busy box
for b in entries:
    if "aggregate_name" in b or not b["name"].startswith(
            "selective_verify_metrics_paired"):
        continue  # raw repetition samples only
    enabled.append(b["metrics_ms"])
    disabled.append(b["no_metrics_ms"])
    excess.append(b["metrics_ms"] - (b["no_metrics_ms"] * tolerance + floor_ms))

over = statistics.median(excess)
verdict = "ok" if over <= 0 else "OVERHEAD"
print(f"selective_verify metrics vs no_metrics, {len(excess)} paired reps: "
      f"medians {statistics.median(enabled):.3f}ms vs "
      f"{statistics.median(disabled):.3f}ms, median excess over budget "
      f"{over:+.3f}ms -> {verdict}")
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
  # of the two deciders (thread CPU time; all three pay the same
  # precondition classification). The estimator is the median over
  # repetitions of head_to_head's paired ratio auto / min(LBT, FZF),
  # each repetition timing the three back to back in a mirrored order.
  # A policy that sends a c to the slower decider shows up at 1.5x or
  # more: FZF at c = 4 cost ~3.5x LBT before FZF's stages were
  # flattened.
  python3 - <<'EOF'
import json, statistics, sys

with open("BENCH_lbt_vs_fzf.json") as f:
    entries = json.load(f)["benchmarks"]
reps = {}
for b in entries:
    if "aggregate_name" in b or not b["name"].startswith("head_to_head/"):
        continue  # raw repetition samples of the paired rows only
    reps.setdefault(int(b["name"].split("/")[1]), []).append(b)
if not reps:
    sys.exit("BENCH_lbt_vs_fzf.json has no head_to_head rows")

failed = False
for c in sorted(reps):
    regret = statistics.median(b["regret"] for b in reps[c])
    per_op = {d: statistics.median(b[f"{d}_ns_per_op"] for b in reps[c])
              for d in ("auto", "lbt", "fzf")}
    verdict = "ok" if regret <= 1.25 else "REGRET"
    print(f"c={c}: auto {per_op['auto']:.1f} vs lbt {per_op['lbt']:.1f}, "
          f"fzf {per_op['fzf']:.1f} ns/op (paired x{regret:.2f}, median "
          f"of {len(reps[c])}) -> {verdict}")
    failed |= verdict != "ok"
if failed:
    sys.exit("auto dispatch costs more than 1.25x the cheaper decider")
EOF
fi
