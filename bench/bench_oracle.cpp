// Oracle scaling: the exact decider for k >= 3 is exponential in the
// worst case (consistent with the paper leaving poly k >= 3 open,
// Section VII, and k-WAV NP-complete, Theorem 5.1). Also the
// memoization ablation: dead-state caching collapses repeated subtrees.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/oracle.h"
#include "history/anomaly.h"

namespace kav {
namespace {

History concurrent_clump(int writes, int reads) {
  HistoryBuilder b;
  for (int i = 0; i < writes; ++i) {
    b.write(i, 100000 + i, i + 1);
  }
  for (int r = 0; r < reads; ++r) {
    const TimePoint start = 200000 + r * 10;
    b.read(start, start + 5, (r % std::max(1, writes / 2)) + 1);
  }
  return normalize(b.build());
}

void oracle_concurrency_explosion(benchmark::State& state) {
  const History h = concurrent_clump(static_cast<int>(state.range(0)), 4);
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const Verdict r = oracle_is_k_atomic(h, 3);
    benchmark::DoNotOptimize(r);
    nodes = r.stats.nodes;
  }
  state.counters["writes"] = static_cast<double>(state.range(0));
  state.counters["search_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(oracle_concurrency_explosion)->DenseRange(4, 14, 2)
    ->Unit(benchmark::kMicrosecond);

void oracle_memo_on(benchmark::State& state) {
  const History h = concurrent_clump(static_cast<int>(state.range(0)), 6);
  OracleOptions options;
  options.memoize = true;
  for (auto _ : state) {
    const Verdict r = oracle_is_k_atomic(h, 2, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(oracle_memo_on)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

void oracle_memo_off(benchmark::State& state) {
  const History h = concurrent_clump(static_cast<int>(state.range(0)), 6);
  OracleOptions options;
  options.memoize = false;
  options.node_limit = 500'000'000;
  for (auto _ : state) {
    const Verdict r = oracle_is_k_atomic(h, 2, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(oracle_memo_off)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

// Effect of k on the same instance: larger budgets relax pruning.
void oracle_k_effect(benchmark::State& state) {
  const History h = concurrent_clump(10, 6);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Verdict r = oracle_is_k_atomic(h, k);
    benchmark::DoNotOptimize(r);
  }
  state.counters["k"] = static_cast<double>(k);
}
BENCHMARK(oracle_k_effect)->DenseRange(1, 5, 1)->Unit(benchmark::kMicrosecond);

// Polynomial-vs-exponential contrast on the same inputs: LBT/FZF decide
// k = 2 in microseconds where the oracle pays a search.
void oracle_vs_poly_contrast(benchmark::State& state) {
  const History h = concurrent_clump(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    const Verdict r = oracle_is_k_atomic(h, 2);
    benchmark::DoNotOptimize(r);
  }
  state.counters["writes"] = static_cast<double>(state.range(0));
}
BENCHMARK(oracle_vs_poly_contrast)->Arg(8)->Arg(14)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
