// Shared workload builders for the benchmark binaries. Everything is
// seeded deterministically so series are reproducible run to run.
#ifndef KAV_BENCH_BENCH_COMMON_H
#define KAV_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "gen/generators.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav::bench {

// "Practical" workload for Theorem 3.2's quasilinear-in-practice claim:
// k-atomic by construction with a bounded concurrency level.
inline History practical_workload(int writes, double spread,
                                  std::uint64_t seed) {
  Rng rng(seed);
  gen::KAtomicConfig config;
  config.writes = writes;
  config.k = 2;
  config.min_reads_per_write = 1;
  config.max_reads_per_write = 3;
  config.spread = spread;
  return gen::generate_k_atomic(config, rng).history;
}

// LBT-adversarial workload: clumps of `concurrent` pairwise-concurrent
// writes whose decoy reads make Theta(c) epoch candidates each fail
// after Theta(c) consumed operations -- the O(c * n) term of
// Theorem 3.2 made visible. Total size ~= groups * (2 * concurrent + 1).
inline History adversarial_workload(int groups, int concurrent,
                                    std::uint64_t seed) {
  Rng rng(seed);
  return gen::generate_high_concurrency(groups, concurrent, rng);
}

// CPU time of the whole process -- every thread, pool workers included
// -- in nanoseconds (getrusage: user + system).
inline double process_cpu_ns() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 +
           static_cast<double>(tv.tv_usec) * 1e3;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

// The proc_cpu_ns_per_op counter: process CPU per operation over a
// benchmark's timed loop. Google Benchmark's cpu_time is the main
// thread's alone, so the work a run hands to pool workers -- and any
// cost that grows with pool width -- never shows there. Construct right
// before the loop; call report() right after it.
class ProcessCpu {
 public:
  ProcessCpu() : start_ns_(process_cpu_ns()) {}

  void report(benchmark::State& state, std::uint64_t ops) const {
    state.counters["proc_cpu_ns_per_op"] =
        ops == 0 ? 0.0
                 : (process_cpu_ns() - start_ns_) / static_cast<double>(ops);
  }

 private:
  double start_ns_;
};

// Times `a` and `b` back to back in every iteration, in the mirrored
// order a, b, b, a: a stretch of scheduler or frequency noise lands on
// both sides of one iteration alike, so the per-repetition ratio
// `<a_name>_ratio` (a / b, summed over the repetition's iterations)
// carries the difference between the two and little of the noise.
// Also reports each side's mean time as `<name>_ms`, and
// `items_per_call` items per timed call.
template <typename A, typename B>
void time_paired(benchmark::State& state, const std::string& a_name, A&& a,
                 const std::string& b_name, B&& b,
                 std::size_t items_per_call) {
  double a_ns = 0;
  double b_ns = 0;
  const auto timed = [](auto& fn, double& ns) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
  };
  for (auto _ : state) {
    timed(a, a_ns);
    timed(b, b_ns);
    timed(b, b_ns);
    timed(a, a_ns);
  }
  const double runs = 2.0 * static_cast<double>(state.iterations());
  state.counters[a_name + "_ms"] = a_ns / runs / 1e6;
  state.counters[b_name + "_ms"] = b_ns / runs / 1e6;
  state.counters[a_name + "_ratio"] = b_ns > 0 ? a_ns / b_ns : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(items_per_call) * 4 *
                          state.iterations());
}

}  // namespace kav::bench

#endif  // KAV_BENCH_BENCH_COMMON_H
