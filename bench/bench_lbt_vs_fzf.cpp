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
// fails when auto costs more than 1.25x the cheaper decider at any c
// (head_to_head's paired `regret`, median over repetitions).
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <array>
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

double thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// The three deciders head to head at one c, timed back to back inside
// each iteration so a slow stretch of a shared host lands on all three
// instead of on whichever row ran through it. Each iteration runs them
// in a mirrored order, A B C C B A, so drift within the iteration
// cancels; which decider is A rotates every iteration, across
// repetitions too (a smoke repetition may be a single iteration). Each
// call is timed in this thread's CPU time (the deciders are serial).
// Reports per-decider ns/op over the repetition, and `regret`, auto's
// cost over the cheaper of LBT and FZF: run_bench.sh --smoke gates on
// its median over repetitions.
void head_to_head(benchmark::State& state) {
  const History& h = workload_for(static_cast<int>(state.range(0)));
  constexpr std::array<Algorithm, 3> kDeciders = {
      Algorithm::auto_select, Algorithm::lbt, Algorithm::fzf};
  std::array<double, 3> ns = {0, 0, 0};  // per kDeciders entry
  static std::size_t first = 0;          // outlives the repetition
  VerifyOptions options;
  options.k = 2;
  options.normalize = false;
  for (auto _ : state) {
    const std::size_t a = first, b = (first + 1) % 3, c = (first + 2) % 3;
    for (const std::size_t d : {a, b, c, c, b, a}) {
      options.algorithm = kDeciders[d];
      const double start = thread_cpu_ns();
      const Verdict v = verify_k_atomicity(h, options);
      ns[d] += thread_cpu_ns() - start;
      benchmark::DoNotOptimize(v);
    }
    first = (first + 1) % 3;
  }
  // Two calls per decider per iteration.
  const double ops = 2 * static_cast<double>(state.iterations()) *
                     static_cast<double>(h.size());
  state.counters["auto_ns_per_op"] = ns[0] / ops;
  state.counters["lbt_ns_per_op"] = ns[1] / ops;
  state.counters["fzf_ns_per_op"] = ns[2] / ops;
  state.counters["regret"] = ns[0] / std::min(ns[1], ns[2]);
  state.counters["n"] = static_cast<double>(h.size());
  state.counters["c"] = static_cast<double>(h.max_concurrent_writes());
}
BENCHMARK(head_to_head)->Apply(crossover_args);

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
