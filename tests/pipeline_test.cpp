// Tests for the parallel sharded verification pipeline: the thread
// pool's contract (drain-on-shutdown, exception propagation, rejection
// after shutdown), determinism of the sharded verifier across thread
// counts (the Engine's report must be bit-identical to the serial
// reference), fail-fast cancellation, per-shard budgets, and stats
// aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "history/keyed_trace.h"
#include "obs/metrics.h"
#include "pipeline/sharded_verifier.h"
#include "pipeline/thread_pool.h"
#include "util/rng.h"

namespace kav {
namespace {

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskAndReturnsResults) {
  pipeline::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i, &ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsDefaultsToAtLeastOne) {
  pipeline::ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  pipeline::ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool must survive a throwing task: later work still runs.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  pipeline::ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    pipeline::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      // Discard the futures: completion must be guaranteed by shutdown
      // (the destructor), not by anyone waiting.
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  pipeline::ThreadPool pool(3);
  std::atomic<int> ran{0};
  auto outer = pool.submit([&] {
    std::vector<std::future<void>> inner;
    for (int i = 0; i < 8; ++i) {
      inner.push_back(pool.submit(
          [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
    }
    for (auto& f : inner) f.get();
  });
  outer.get();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, UnevenLoadCompletesEverywhere) {
  // One queue gets all the heavy tasks (round-robin spreads them, but
  // the load is skewed by cost); stealing must still finish them all.
  pipeline::ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    const long spin = (i % 4 == 0) ? 200000 : 100;
    futures.push_back(pool.submit([spin, &total] {
      long acc = 0;
      for (long j = 0; j < spin; ++j) acc += j;
      total.fetch_add(acc == -1 ? 0 : 1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 64);
}

// --- ShardedVerifier ----------------------------------------------------

KeyedTrace multi_key_trace(int keys, int ops_per_key, std::uint64_t seed) {
  Rng rng(seed);
  KeyedTrace trace;
  for (int k = 0; k < keys; ++k) {
    gen::RandomMixConfig config;
    config.operations = ops_per_key;
    const History h = gen::generate_random_mix(config, rng);
    const std::string key = "key" + std::to_string(k);
    for (const Operation& op : h.operations()) trace.add(key, op);
  }
  return trace;
}

void expect_reports_identical(const Report& a, const Report& b) {
  ASSERT_EQ(a.per_key.size(), b.per_key.size());
  auto ita = a.per_key.begin();
  auto itb = b.per_key.begin();
  for (; ita != a.per_key.end(); ++ita, ++itb) {
    SCOPED_TRACE("key " + ita->first);
    ASSERT_EQ(ita->first, itb->first);
    const Verdict& va = ita->second.verdict;
    const Verdict& vb = itb->second.verdict;
    EXPECT_EQ(va.outcome, vb.outcome);
    EXPECT_EQ(va.witness, vb.witness);
    EXPECT_EQ(va.reason, vb.reason);
    EXPECT_EQ(va.conflict, vb.conflict);
    EXPECT_TRUE(va.stats == vb.stats);
  }
}

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

TEST(ShardedVerifier, IdenticalToSerialAcrossThreadCounts) {
  const KeyedTrace trace = multi_key_trace(12, 24, 91);
  VerifyOptions options;
  options.k = 2;
  const Report serial = verify_keyed_trace(trace, options);
  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions engine_opts = engine_options(threads);
    engine_opts.verify = options;
    Engine engine(engine_opts);
    expect_reports_identical(serial, engine.verify(trace));
  }
}

TEST(ShardedVerifier, EmptyTrace) {
  Engine engine;
  const Report report = engine.verify(KeyedTrace{});
  EXPECT_TRUE(report.per_key.empty());
  EXPECT_TRUE(report.all_yes());  // vacuously
  EXPECT_TRUE(report.verify_totals == VerifyStats{});
}

TEST(ShardedVerifier, SingleKeyMatchesSingleRegisterFacade) {
  KeyedTrace trace;
  trace.add("solo", make_write(0, 10, 1));
  trace.add("solo", make_write(20, 30, 2));
  trace.add("solo", make_read(40, 50, 1));
  EngineOptions options = engine_options(2);
  options.verify.k = 2;
  Engine engine(options);
  const Report report = engine.verify(trace);
  ASSERT_EQ(report.per_key.size(), 1u);
  const Verdict direct = verify_k_atomicity(
      split_by_key(trace).per_key.at("solo"), options.verify);
  EXPECT_EQ(report.per_key.at("solo").verdict.outcome, direct.outcome);
  EXPECT_EQ(report.per_key.at("solo").verdict.witness, direct.witness);
}

TEST(ShardedVerifier, TotalStatsAggregatesPerKeyCounters) {
  const KeyedTrace trace = multi_key_trace(6, 20, 17);
  Engine engine(engine_options(4));
  const Report report = engine.verify(trace);
  VerifyStats manual;
  for (const auto& [key, result] : report.per_key) {
    const VerifyStats& stats = result.verdict.stats;
    manual.epochs += stats.epochs;
    manual.candidates_tried += stats.candidates_tried;
    manual.steps += stats.steps;
    manual.chunks += stats.chunks;
    manual.dangling += stats.dangling;
    manual.orders_tested += stats.orders_tested;
    manual.nodes += stats.nodes;
  }
  EXPECT_TRUE(report.verify_totals == manual);
  // The aggregate effort must also match the serial path's.
  EXPECT_TRUE(report.verify_totals == verify_keyed_trace(trace).verify_totals);
}

KeyedTrace one_bad_key_trace(int good_keys) {
  KeyedTrace trace;
  // Key "a" sorts first: forced separation 2 means minimal k = 3, so
  // it answers NO at k = 2.
  const History bad = gen::generate_forced_separation(2);
  for (const Operation& op : bad.operations()) trace.add("a", op);
  for (int i = 0; i < good_keys; ++i) {
    const std::string key = "b" + std::to_string(i);
    trace.add(key, make_write(0, 10, 1));
    trace.add(key, make_read(12, 20, 1));
  }
  return trace;
}

TEST(ShardedVerifier, FailFastSkipsShardsAfterNo) {
  const KeyedTrace trace = one_bad_key_trace(6);
  // One worker executes shards strictly in submission (key) order, so
  // the NO on "a" lands before any "b*" shard starts: the skip set is
  // deterministic here.
  EngineOptions options = engine_options(1);
  options.verify.k = 2;
  options.fail_fast = true;
  Engine engine(options);
  const Report report = engine.verify(trace);
  EXPECT_TRUE(report.per_key.at("a").verdict.no());
  EXPECT_EQ(report.count(Outcome::no), 1u);
  EXPECT_EQ(report.count(Outcome::undecided), 6u);
  // Fail-fast skips are not a caller-initiated stop.
  EXPECT_FALSE(report.cancelled);
  for (const auto& [key, result] : report.per_key) {
    if (key == "a") continue;
    EXPECT_EQ(result.verdict.outcome, Outcome::undecided);
    EXPECT_EQ(result.verdict.reason, kSkipFailFastReason);
  }
}

TEST(ShardedVerifier, FailFastOffDecidesEveryShard) {
  const KeyedTrace trace = one_bad_key_trace(6);
  EngineOptions options = engine_options(4);
  options.verify.k = 2;
  Engine engine(options);
  const Report report = engine.verify(trace);
  EXPECT_EQ(report.count(Outcome::no), 1u);
  EXPECT_EQ(report.count(Outcome::yes), 6u);
  EXPECT_EQ(report.count(Outcome::undecided), 0u);
}

TEST(ShardedVerifier, FailFastDoesNotPoisonLaterCalls) {
  EngineOptions options = engine_options(1);
  options.verify.k = 2;
  options.fail_fast = true;
  Engine engine(options);
  const Report first = engine.verify(one_bad_key_trace(3));
  EXPECT_EQ(first.count(Outcome::undecided), 3u);
  // A clean trace on the same engine must verify fully: the
  // cancellation flag is per call, and the pool is reused.
  const Report second = engine.verify(multi_key_trace(4, 10, 5));
  EXPECT_EQ(second.count(Outcome::undecided), 0u);
}

TEST(ShardedVerifier, PerCallOptionsReuseOnePool) {
  const KeyedTrace trace = multi_key_trace(5, 16, 33);
  const KeyedHistories shards = split_by_key(trace);
  Engine engine(engine_options(2));  // constructed with k = 2
  RunOptions run;
  run.verify = VerifyOptions{};
  run.verify->k = 1;
  expect_reports_identical(verify_keyed_trace(trace, *run.verify),
                           engine.verify(shards, run));
  run.verify->k = 2;
  expect_reports_identical(verify_keyed_trace(trace, *run.verify),
                           engine.verify(shards, run));
}

TEST(ShardedVerifier, ShardOpBudgetSkipsOversizedShards) {
  KeyedTrace trace;
  trace.add("small", make_write(0, 10, 1));
  trace.add("small", make_read(12, 20, 1));
  for (int i = 0; i < 5; ++i) {
    trace.add("large", make_write(i * 100, i * 100 + 10, i + 1));
  }
  EngineOptions options = engine_options(2);
  options.shard_op_budget = 3;
  Engine engine(options);
  const Report report = engine.verify(trace);
  EXPECT_TRUE(report.per_key.at("small").verdict.yes());
  EXPECT_EQ(report.per_key.at("large").verdict.outcome, Outcome::undecided);
  EXPECT_NE(report.per_key.at("large").verdict.reason.find("budget"),
            std::string::npos);
}

// A shard of at least 64Ki ops: a batch's largest such shard runs on
// the thread that called verify_shards, the rest on the pool.
History large_history(int extra_groups, Rng& rng) {
  return gen::generate_high_concurrency(65'536 / 9 + extra_groups, 4, rng);
}

TEST(ShardedVerifier, LargestLargeShardRunsOnTheCallingThread) {
  Rng rng(23);
  KeyedHistories shards;
  shards.per_key.emplace("big", large_history(1, rng));
  shards.per_key.emplace("bigger", large_history(50, rng));
  for (int i = 0; i < 6; ++i) {
    gen::RandomMixConfig config;
    config.operations = 20;
    shards.per_key.emplace("small" + std::to_string(i),
                           gen::generate_random_mix(config, rng));
  }
  Engine engine(engine_options(2));
  // on_key is serialized by the verifier.
  std::map<std::string, std::thread::id> ran_on;
  RunOptions run;
  run.on_key = [&ran_on](const std::string& key, const Verdict&) {
    ran_on[key] = std::this_thread::get_id();
  };
  const Report report = engine.verify(shards, run);
  ASSERT_EQ(report.per_key.size(), shards.per_key.size());
  for (const auto& [key, history] : shards.per_key) {
    SCOPED_TRACE("key " + key);
    const Verdict direct = verify_k_atomicity(history, VerifyOptions{});
    const Verdict& pooled = report.per_key.at(key).verdict;
    EXPECT_EQ(pooled.outcome, direct.outcome);
    EXPECT_EQ(pooled.witness, direct.witness);
    EXPECT_EQ(pooled.reason, direct.reason);
    EXPECT_TRUE(pooled.stats == direct.stats);
    ASSERT_EQ(ran_on.count(key), 1u);
    if (key == "bigger") {
      EXPECT_EQ(ran_on.at(key), std::this_thread::get_id());
    } else {
      EXPECT_NE(ran_on.at(key), std::this_thread::get_id());
    }
  }
}

TEST(ShardedVerifier, ThrowingLoaderOnTheCallingThreadWaitsForThePool) {
  pipeline::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  ShardedVerifier verifier(pool, registry, EngineOptions{});
  Rng rng(29);
  std::vector<History> small;
  for (int i = 0; i < 4; ++i) {
    gen::RandomMixConfig config;
    config.operations = 20;
    small.push_back(gen::generate_random_mix(config, rng));
  }
  std::vector<ShardSpec> specs;
  ShardSpec big;
  big.key = "big";
  big.op_count = std::size_t{1} << 16;
  big.load = []() -> History { throw std::runtime_error("corrupt block"); };
  specs.push_back(std::move(big));
  for (std::size_t i = 0; i < small.size(); ++i) {
    ShardSpec spec;
    spec.key = "small" + std::to_string(i);
    spec.op_count = small[i].size();
    spec.pinned = &small[i];
    specs.push_back(std::move(spec));
  }
  std::atomic<int> landed{0};
  RunControl run;
  run.on_key = [&landed](const std::string&, const Verdict&) { ++landed; };
  EXPECT_THROW(verifier.verify_shards(specs, VerifyOptions{}, run),
               std::runtime_error);
  // Every pool shard finished before the loader's exception left.
  EXPECT_EQ(landed.load(), 4);
}

TEST(AutoDispatchPolicy, ExercisesBothDeciders) {
  // The ZoneProfile policy must be a real policy, not a constant: low
  // write concurrency routes to LBT, high concurrency and doomed
  // chunks (>= 3 backward clusters, Lemma 4.3) route to FZF. A
  // regression to "always FZF" (the pre-pipeline behavior) or "always
  // LBT" fails here deterministically.
  ZoneProfile serial_writes;
  serial_writes.max_concurrent_writes = 1;
  EXPECT_EQ(select_2av_algorithm(serial_writes), Algorithm::lbt);

  ZoneProfile concurrent_writes;
  concurrent_writes.max_concurrent_writes = 5;
  EXPECT_EQ(select_2av_algorithm(concurrent_writes), Algorithm::fzf);

  ZoneProfile doomed_chunk;
  doomed_chunk.max_concurrent_writes = 1;  // would pick LBT...
  doomed_chunk.max_backward_per_chunk = 3;  // ...but FZF localizes the NO
  EXPECT_EQ(select_2av_algorithm(doomed_chunk), Algorithm::fzf);
}

TEST(AutoDispatchPolicy, PinsTheMeasuredCrossover) {
  // bench_lbt_vs_fzf (BENCH_lbt_vs_fzf.json) puts the LBT/FZF crossover
  // between c = 2 and c = 3: LBT up to T = 2, FZF from T + 1. A chunk
  // with >= 3 backward clusters goes to FZF at any c (Lemma 4.3).
  ZoneProfile at_threshold;
  at_threshold.max_concurrent_writes = 2;
  EXPECT_EQ(select_2av_algorithm(at_threshold), Algorithm::lbt);

  ZoneProfile above_threshold;
  above_threshold.max_concurrent_writes = 3;
  EXPECT_EQ(select_2av_algorithm(above_threshold), Algorithm::fzf);

  for (const std::size_t c : {0, 1, 2, 3, 4, 256}) {
    ZoneProfile doomed;
    doomed.max_concurrent_writes = c;
    doomed.max_backward_per_chunk = 3;
    EXPECT_EQ(select_2av_algorithm(doomed), Algorithm::fzf) << "c = " << c;
    doomed.max_backward_per_chunk = 2;
    EXPECT_EQ(select_2av_algorithm(doomed),
              c <= 2 ? Algorithm::lbt : Algorithm::fzf)
        << "c = " << c;
  }
}

TEST(KeyedHistories, ShardHelpers) {
  const KeyedTrace trace = one_bad_key_trace(2);
  const KeyedHistories shards = split_by_key(trace);
  std::vector<std::string> keys;
  std::size_t largest = 0;
  for (const auto& [key, history] : shards.per_key) {
    keys.push_back(key);
    largest = std::max(largest, history.size());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b0", "b1"}));
  EXPECT_EQ(shards.total_ops(), trace.size());
  EXPECT_EQ(largest, 4u);  // "a": 3 writes + 1 read
}

}  // namespace
}  // namespace kav
