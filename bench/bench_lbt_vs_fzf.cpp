// Experiment E9 (crossover): LBT vs FZF head to head, and what auto
// dispatch picks. The paper's prediction: on practical (low-c) inputs
// the two are comparable, with the simpler LBT often ahead; as c grows,
// LBT's O(c n) term bites and FZF's O(n log n) wins -- the crossover is
// the reason FZF exists, and select_2av_algorithm's c threshold is read
// off this sweep (BENCH_lbt_vs_fzf.json, written by bench/run_bench.sh).
//
// Every row runs verify_k_atomicity on a normalized history with the
// decider forced (lbt, fzf) or chosen per history (auto), so all three
// pay the same precondition classification and differ only in the
// decider and, for auto, the ZoneProfile it reads. run_bench.sh --smoke
// fails when auto costs more than 1.25x the cheaper decider at any c.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "core/verify.h"
#include "history/anomaly.h"

namespace kav {
namespace {

const History& workload_for(int c) {
  // n held at roughly 16k operations across the sweep.
  static std::map<int, History> cache;
  auto it = cache.find(c);
  if (it == cache.end()) {
    const int groups = std::max(1, 16384 / (2 * c + 1));
    History h = bench::adversarial_workload(groups, c, 99);
    if (!is_normalized(h)) h = normalize(h);
    it = cache.emplace(c, std::move(h)).first;
  }
  return it->second;
}

void decide(benchmark::State& state, const History& h, Algorithm algorithm) {
  VerifyOptions options;
  options.k = 2;
  options.normalize = false;
  options.algorithm = algorithm;
  for (auto _ : state) {
    const Verdict v = verify_k_atomicity(h, options);
    benchmark::DoNotOptimize(v);
  }
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// The c sweep. 3 is the smallest c generate_high_concurrency builds.
void crossover_args(benchmark::internal::Benchmark* b) {
  for (int c : {3, 4, 6, 8, 16, 32, 64, 128, 256, 512}) b->Arg(c);
}

void head_to_head_lbt(benchmark::State& state) {
  decide(state, workload_for(static_cast<int>(state.range(0))),
         Algorithm::lbt);
}
BENCHMARK(head_to_head_lbt)->Apply(crossover_args);

void head_to_head_fzf(benchmark::State& state) {
  decide(state, workload_for(static_cast<int>(state.range(0))),
         Algorithm::fzf);
}
BENCHMARK(head_to_head_fzf)->Apply(crossover_args);

void head_to_head_auto(benchmark::State& state) {
  decide(state, workload_for(static_cast<int>(state.range(0))),
         Algorithm::auto_select);
}
BENCHMARK(head_to_head_auto)->Apply(crossover_args);

// Practical low-c side of the story (c <= 2): simplicity pays.
const History& practical_for(int writes) {
  static std::map<int, History> cache;
  auto it = cache.find(writes);
  if (it == cache.end()) {
    History h = bench::practical_workload(writes, 0.8, 17);
    if (!is_normalized(h)) h = normalize(h);
    it = cache.emplace(writes, std::move(h)).first;
  }
  return it->second;
}

void practical_lbt(benchmark::State& state) {
  decide(state, practical_for(static_cast<int>(state.range(0))),
         Algorithm::lbt);
}
BENCHMARK(practical_lbt)->Arg(1 << 12)->Arg(1 << 14);

void practical_fzf(benchmark::State& state) {
  decide(state, practical_for(static_cast<int>(state.range(0))),
         Algorithm::fzf);
}
BENCHMARK(practical_fzf)->Arg(1 << 12)->Arg(1 << 14);

void practical_auto(benchmark::State& state) {
  decide(state, practical_for(static_cast<int>(state.range(0))),
         Algorithm::auto_select);
}
BENCHMARK(practical_auto)->Arg(1 << 12)->Arg(1 << 14);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
