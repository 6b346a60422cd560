// Experiment E9 (DESIGN.md): FZF's worst-case O(n log n) bound,
// Theorem 4.6. The inputs include exactly the workloads on which LBT
// degrades (high concurrency, c = Theta(n)); FZF must stay quasilinear
// on them, plus chunk-structure micro-benchmarks for Stage 1.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/fzf.h"
#include "history/anomaly.h"

namespace kav {
namespace {

FzfOptions timed_options() {
  FzfOptions options;
  options.check_preconditions = false;
  return options;
}

void fzf_practical_n(benchmark::State& state) {
  const History h =
      bench::practical_workload(static_cast<int>(state.range(0)), 1.0, 42);
  const FzfOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_fzf(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(fzf_practical_n)
    ->RangeMultiplier(2)
    ->Range(1 << 9, 1 << 15)
    ->Complexity(benchmark::oNLogN);

// The LBT-quadratic workload (c = Theta(n)): Theorem 4.6 predicts FZF
// stays quasilinear where Theorem 3.2's bound degrades to O(n^2).
void fzf_on_lbt_quadratic_workload(benchmark::State& state) {
  const History h =
      bench::quadratic_workload(static_cast<int>(state.range(0)), 13);
  const FzfOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_fzf(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(fzf_on_lbt_quadratic_workload)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 14)
    ->Complexity(benchmark::oNLogN);

// Stage 1 in isolation: zones plus the partition, over many small chunks.
void fzf_stage1_many_chunks(benchmark::State& state) {
  const History h =
      bench::practical_workload(static_cast<int>(state.range(0)), 0.3, 5);
  for (auto _ : state) {
    const ChunkPartition partition = partition_chunks(compute_zones(h));
    benchmark::DoNotOptimize(partition);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
}
BENCHMARK(fzf_stage1_many_chunks)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Complexity(benchmark::oNLogN);

// One giant chunk (every forward zone chained): stresses Stage 2's
// per-chunk work and the viability subroutine.
void fzf_single_giant_chunk(benchmark::State& state) {
  const int writes = static_cast<int>(state.range(0));
  // A rolling chain: every cluster's forward zone overlaps the next.
  HistoryBuilder b;
  for (int i = 0; i < writes; ++i) {
    const TimePoint base = static_cast<TimePoint>(i) * 100;
    b.write(base, base + 10, i + 1);
    b.read(base + 150, base + 170, i + 1);  // zone [base+10, base+150]
  }
  const History h = normalize(b.build());
  const FzfOptions options = timed_options();
  for (auto _ : state) {
    const Verdict v = check_2atomicity_fzf(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
  const Verdict v = check_2atomicity_fzf(h, options);
  state.counters["chunks"] = static_cast<double>(v.stats.chunks);
}
BENCHMARK(fzf_single_giant_chunk)
    ->RangeMultiplier(2)
    ->Range(1 << 8, 1 << 13)
    ->Complexity(benchmark::oNLogN);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
