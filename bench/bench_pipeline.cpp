// Serial vs sharded-parallel keyed verification: the speedup the
// Section II-B locality argument buys once per-key shards run on the
// Engine's pool. `keyed_serial` times the serial reference
// verify_keyed_trace; `keyed_parallel` and `keyed_fail_fast` time one
// reused kav::Engine. Sweeps key counts and thread counts on the same
// deterministic multi-key workload, so the `keyed_serial` /
// `keyed_parallel` series are directly comparable; per-series counters
// report trace size and throughput.
//
// Start or extend the trajectory file with
//   ./bench_pipeline --benchmark_out=BENCH_pipeline.json
//                    --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"
#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "history/keyed_trace.h"
#include "util/rng.h"

namespace kav {
namespace {

// YES-by-construction shards: every key costs the decider real work
// (no early NO exits), so the sweep measures verification throughput,
// not counterexample luck.
KeyedTrace keyed_workload(int keys, int writes_per_key, std::uint64_t seed) {
  Rng rng(seed);
  KeyedTrace trace;
  for (int k = 0; k < keys; ++k) {
    gen::KAtomicConfig config;
    config.writes = writes_per_key;
    config.k = 2;
    config.min_reads_per_write = 1;
    config.max_reads_per_write = 3;
    const History shard = gen::generate_k_atomic(config, rng).history;
    const std::string key = "key" + std::to_string(k);
    for (const Operation& op : shard.operations()) trace.add(key, op);
  }
  return trace;
}

void keyed_serial(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const KeyedTrace trace = keyed_workload(keys, 24, 42);
  VerifyOptions options;
  options.k = 2;
  std::uint64_t keys_checked = 0;
  for (auto _ : state) {
    const Report report = verify_keyed_trace(trace, options);
    benchmark::DoNotOptimize(report);
    keys_checked += report.per_key.size();
  }
  state.counters["trace_ops"] = static_cast<double>(trace.size());
  state.counters["keys/s"] = benchmark::Counter(
      static_cast<double>(keys_checked), benchmark::Counter::kIsRate);
}
BENCHMARK(keyed_serial)->Arg(8)->Arg(64)->Arg(256)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void keyed_parallel(benchmark::State& state) {
  // Args: key count, thread count.
  const int keys = static_cast<int>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const KeyedTrace trace = keyed_workload(keys, 24, 42);
  EngineOptions options;
  options.verify.k = 2;
  options.threads = threads;
  // Pool constructed once outside the timed loop, as a long-lived
  // service would hold it. Each iteration splits the trace and
  // verifies, the same work the serial reference above performs.
  Engine engine(options);
  std::uint64_t keys_checked = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report report = engine.verify(trace);
    benchmark::DoNotOptimize(report);
    keys_checked += report.per_key.size();
  }
  cpu.report(state, trace.size() * state.iterations());
  state.counters["trace_ops"] = static_cast<double>(trace.size());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["keys/s"] = benchmark::Counter(
      static_cast<double>(keys_checked), benchmark::Counter::kIsRate);
}
BENCHMARK(keyed_parallel)
    ->Args({8, 1})->Args({8, 2})->Args({8, 4})
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})->Args({64, 8})
    ->Args({256, 1})->Args({256, 4})->Args({256, 8})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Fail-fast latency: one guaranteed violation planted among clean
// keys; how fast does the pipeline surface the first NO when the
// caller only needs pass/fail?
void keyed_fail_fast(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const bool fail_fast = state.range(1) != 0;
  KeyedTrace trace = keyed_workload(keys - 1, 24, 42);
  const History bad = gen::generate_forced_separation(2);
  for (const Operation& op : bad.operations()) trace.add("bad", op);
  EngineOptions options;
  options.verify.k = 2;
  options.threads = 4;
  options.fail_fast = fail_fast;
  Engine engine(options);
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report report = engine.verify(trace);
    benchmark::DoNotOptimize(report);
  }
  cpu.report(state, trace.size() * state.iterations());
}
BENCHMARK(keyed_fail_fast)->Args({64, 0})->Args({64, 1})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
