// Engine-session costs: what the kav::Engine front door pays per call.
//
//  * session reuse -- repeated verification of a many-key trace on one
//    Engine whose pool is spun up once, plus batch + monitor
//    interleaving on that one engine.
//  * source abstraction -- a virtual pull() per chunk vs the raw
//    MappedSegment::Cursor loop on the same .kavb file, and
//    Engine::verify end to end from a file source.
//  * observability overhead -- the selective-verify pair run_bench.sh
//    guards (see below).
//
// The workload defaults to 200,000 operations over 128 keys (smaller
// than bench_ingest: every iteration verifies, not just parses);
// KAV_BENCH_OPS overrides it. Scratch files live under TMPDIR.
//
// Start or extend the trajectory file with
//   ./bench_engine --benchmark_out=BENCH_engine.json
//                  --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kav.h"
#include "util/rng.h"

namespace kav {
namespace {

std::size_t bench_ops() {
  if (const char* env = std::getenv("KAV_BENCH_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed) / 5;
  }
  return 200'000;
}

// Many small, clean per-key shards: pool spin-up and scheduling are a
// visible fraction of the run, which is exactly what this bench
// isolates (bench_pipeline covers decider-bound scaling).
KeyedTrace make_trace(std::size_t ops, int keys) {
  Rng rng(2026);
  KeyedTrace trace;
  std::vector<TimePoint> clocks(static_cast<std::size_t>(keys), 0);
  std::vector<Value> next_value(static_cast<std::size_t>(keys), 1);
  int key = 0;
  while (trace.size() < ops) {
    auto k = static_cast<std::size_t>(key);
    const Value value = next_value[k]++;
    const TimePoint t = clocks[k];
    trace.add("key" + std::to_string(key), make_write(t, t + 4, value));
    if (trace.size() < ops) {
      trace.add("key" + std::to_string(key),
                make_read(t + 5, t + 8, value,
                          static_cast<ClientId>(rng.bounded(8))));
    }
    clocks[k] = t + 12;
    key = (key + 1) % keys;
  }
  return trace;
}

struct Fixture {
  KeyedTrace trace;
  KeyedHistories shards;
  std::string binary_path;

  Fixture() {
    trace = make_trace(bench_ops(), 128);
    shards = split_by_key(trace);
    binary_path = std::filesystem::temp_directory_path().string() +
                  "/kav_bench_engine.kavb";
    write_binary_trace_file(binary_path, trace);
  }
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

void ops_rate(benchmark::State& state, std::uint64_t ops_done) {
  state.counters["trace_ops"] = static_cast<double>(fixture().trace.size());
  state.counters["ops/s"] = benchmark::Counter(static_cast<double>(ops_done),
                                               benchmark::Counter::kIsRate);
}

// --- Pool amortization -----------------------------------------------------

// One Engine, pool reused across calls; shards pre-split, so each
// iteration is shard dispatch + decide + merge and nothing else.
void verify_reused_engine(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  EngineOptions options;
  options.threads = threads;
  Engine engine(options);
  std::uint64_t ops_done = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report report = engine.verify(fixture().shards);
    benchmark::DoNotOptimize(report);
    ops_done += fixture().trace.size();
  }
  cpu.report(state, ops_done);
  ops_rate(state, ops_done);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(verify_reused_engine)->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Mixed session: batch audit + online monitor replay per iteration on
// one engine -- the workload shape the shared pool exists for.
void batch_plus_monitor_one_engine(benchmark::State& state) {
  EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  options.streaming.staleness_horizon = 200;
  options.reorder_slack = 64;
  Engine engine(options);
  std::uint64_t ops_done = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report batch = engine.verify(fixture().shards);
    benchmark::DoNotOptimize(batch);
    const Report live = engine.monitor(fixture().trace);
    benchmark::DoNotOptimize(live);
    ops_done += 2 * fixture().trace.size();
  }
  cpu.report(state, ops_done);
  ops_rate(state, ops_done);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(batch_plus_monitor_one_engine)->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Source abstraction overhead -------------------------------------------

// Baseline: the raw sequential cursor, records named by key-table id,
// no virtual dispatch.
void binary_raw_reader(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    const MappedSegment segment(fixture().binary_path);
    MappedSegment::Cursor cursor = segment.cursor();
    KeyId key_id = 0;
    Operation op;
    while (cursor.next(key_id, op)) {
      benchmark::DoNotOptimize(op);
      ++ops_done;
    }
  }
  ops_rate(state, ops_done);
}
BENCHMARK(binary_raw_reader)->UseRealTime()->Unit(benchmark::kMillisecond);

// The same records through the polymorphic TraceSource, read as the
// Engine reads it: one virtual pull() per chunk, each record renumbered
// into the source's id space on top of the baseline above.
void binary_trace_source(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    auto source = open_trace_source(fixture().binary_path);
    KeyedChunk chunk;
    while (source->pull(chunk, 1'024, std::chrono::milliseconds(0)) !=
           TraceSource::Pull::closed) {
      benchmark::DoNotOptimize(chunk.ops.data());
      ops_done += chunk.ops.size();
    }
  }
  ops_rate(state, ops_done);
}
BENCHMARK(binary_trace_source)->UseRealTime()->Unit(benchmark::kMillisecond);

// End to end from disk: Engine::verify over a file source (decode,
// split, decide).
void verify_from_file_engine(benchmark::State& state) {
  EngineOptions options;
  options.threads = 1;
  Engine engine(options);
  std::uint64_t ops_done = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    auto source = open_trace_source(fixture().binary_path);
    const Report report = engine.verify(*source);
    benchmark::DoNotOptimize(report);
    ops_done += fixture().trace.size();
  }
  cpu.report(state, ops_done);
  ops_rate(state, ops_done);
}
BENCHMARK(verify_from_file_engine)->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Observability overhead (the run_bench.sh guardrail pair) ---------------
//
// The always-on obs layer's whole bargain is "one relaxed atomic on hot
// paths, a bool load when disabled". This pair prices it on the most
// instrumented end-to-end path there is -- selective verification of
// every key of a 1M-op indexed segment (index-driven lazy decode +
// verify per shard: shard timers, decode timers, kav_verify_* counter
// folds, run lifecycle) -- once with the injected registry enabled and
// once with it disabled, which is byte-for-byte what KAV_NO_METRICS
// does at registry construction. bench/run_bench.sh --smoke fails CI
// when the enabled side exceeds the disabled side by more than 2% plus
// a 0.5 ms floor (median over repetitions of the paired excess).

std::size_t selective_ops() {
  if (const char* env = std::getenv("KAV_BENCH_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1'000'000;
}

struct SelectiveFixture {
  std::string path;
  std::vector<std::string> keys;

  SelectiveFixture() {
    const KeyedTrace trace = make_trace(selective_ops(), 8);
    for (int k = 0; k < 8; ++k) keys.push_back("key" + std::to_string(k));
    path = std::filesystem::temp_directory_path().string() +
           "/kav_bench_engine_selective.kavb";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SegmentWriter writer(out);
    writer.add(trace);
    writer.finish();
  }
};

const SelectiveFixture& selective_fixture() {
  static const SelectiveFixture instance;
  return instance;
}

// Both engines are timed inside one benchmark, so a slow stretch of a
// shared host lands on both sides of a pair instead of on whichever
// side ran through it. Each iteration runs them in a mirrored order, A
// B B A B A A B, so drift within the iteration cancels; which engine is
// A flips every iteration, across repetitions too (a smoke repetition
// is a single iteration), so each side holds every slot equally often.
// Reports each side's mean wall time per call over the repetition.
void selective_verify_metrics_paired(benchmark::State& state) {
  obs::MetricsRegistry enabled, disabled;
  disabled.set_enabled(false);
  RunOptions run;
  run.key_filter = selective_fixture().keys;
  // A fresh engine per call, built and torn down outside the timed
  // span. Its pool worker decodes and verifies in that thread's malloc
  // arena; two long-lived engines would each keep one arena, in a state
  // that depends on what the benchmarks run before them left there, and
  // a whole process could time one side up to ~5% slow. A new worker
  // takes over the arena the last one released, so both sides share.
  const auto timed_ms = [&run](obs::MetricsRegistry& registry) {
    EngineOptions options;
    options.threads = 1;  // timer noise, not scheduling, is the subject
    options.metrics = &registry;
    Engine engine(options);
    const auto start = std::chrono::steady_clock::now();
    auto source = open_trace_source(selective_fixture().path);
    benchmark::DoNotOptimize(engine.verify(*source, run));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double with_ms = 0;
  double without_ms = 0;
  static bool with_first = true;  // outlives the repetition
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    obs::MetricsRegistry* const a = with_first ? &enabled : &disabled;
    obs::MetricsRegistry* const b = with_first ? &disabled : &enabled;
    for (obs::MetricsRegistry* const registry : {a, b, b, a, b, a, a, b}) {
      const double ms = timed_ms(*registry);
      if (registry == &enabled) {
        with_ms += ms;
      } else {
        without_ms += ms;
      }
    }
    with_first = !with_first;
  }
  // Four calls per side per iteration.
  const auto calls = 4 * static_cast<double>(state.iterations());
  cpu.report(state, static_cast<std::uint64_t>(2 * calls) * selective_ops());
  state.counters["metrics_ms"] = with_ms / calls;
  state.counters["no_metrics_ms"] = without_ms / calls;
}
BENCHMARK(selective_verify_metrics_paired)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
