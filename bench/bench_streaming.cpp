// Streaming monitor costs: throughput and window occupancy versus the
// staleness horizon. The horizon is the monitor's memory/latency knob:
// small horizons settle chunks quickly (small windows) at the price of
// flagging very stale reads as horizon violations. The checker's cost
// per operation must not grow with the window: streaming_throughput_wide
// runs one trace at a 1<<8 and a 1<<14 horizon (windows of tens vs
// thousands of operations), and `bench/run_bench.sh --smoke` fails if
// the wide window costs more than 2x per operation.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/fzf.h"
#include "core/streaming.h"
#include "history/anomaly.h"
#include "quorum/sim.h"

namespace kav {
namespace {

History raw_trace(int ops_per_client) {
  quorum::QuorumConfig config;
  config.clients = 6;
  config.keys = 1;
  config.ops_per_client = ops_per_client;
  config.seed = 31;
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  return split_by_key(sim.trace).per_key.begin()->second;
}

// normalize() spaces the 2n events n + 2 ticks apart, so on this trace
// even a 1<<14 horizon spans only a few dozen operations.
History long_trace(int ops_per_client) {
  return normalize(raw_trace(ops_per_client));
}

void streaming_throughput(benchmark::State& state) {
  const History h = long_trace(static_cast<int>(state.range(0)));
  std::size_t peak = 0;
  for (auto _ : state) {
    StreamingOptions options;
    options.staleness_horizon = state.range(1);
    StreamingChecker checker(options);
    for (OpId id : h.by_start()) {
      checker.add(h.op(id));
      checker.advance_watermark(h.start(id));
    }
    const Verdict v = checker.finish();
    benchmark::DoNotOptimize(v);
    peak = checker.stats().peak_window;
  }
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["peak_window"] = static_cast<double>(peak);
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(h.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(streaming_throughput)
    ->Args({500, 1 << 8})    // tight horizon: small window
    ->Args({500, 1 << 14})   // loose horizon: larger window
    ->Args({500, 1 << 30})   // effectively batch at finish()
    ->Args({4000, 1 << 8})
    ->Args({4000, 1 << 14})
    ->Unit(benchmark::kMillisecond);

// The simulator's own clock: ~7 ticks per operation, so a 1<<14
// horizon keeps thousands of operations in the window. Starts can tie,
// so the watermark trails each start by one tick.
void streaming_throughput_wide(benchmark::State& state) {
  const History h = raw_trace(static_cast<int>(state.range(0)));
  std::size_t peak = 0;
  for (auto _ : state) {
    StreamingOptions options;
    options.staleness_horizon = state.range(1);
    StreamingChecker checker(options);
    for (OpId id : h.by_start()) {
      checker.add(h.op(id));
      checker.advance_watermark(h.start(id) - 1);
    }
    const Verdict v = checker.finish();
    benchmark::DoNotOptimize(v);
    peak = checker.stats().peak_window;
  }
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["peak_window"] = static_cast<double>(peak);
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(h.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(streaming_throughput_wide)
    ->Args({500, 1 << 8})
    ->Args({500, 1 << 14})
    ->Unit(benchmark::kMillisecond);

// Batch comparison point: one-shot FZF over the same trace.
void streaming_vs_batch_baseline(benchmark::State& state) {
  const History h = long_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const Verdict v = check_2atomicity_fzf(h);
    benchmark::DoNotOptimize(v);
  }
  state.counters["n"] = static_cast<double>(h.size());
}
BENCHMARK(streaming_vs_batch_baseline)->Arg(500)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
