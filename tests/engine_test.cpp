// Tests for the kav::Engine session API: options precedence (per-call
// VerifyOptions overrides), pool sharing (one Engine running batch and
// monitor work creates exactly one ThreadPool -- the created_count
// hook), cancellation and timeout semantics, TraceSource equivalence
// (memory == text file == binary file == push), the unified Report /
// one-formatter summary contract, and the pipeline components used
// directly on a caller's pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chunk_feed.h"
#include "gen/generators.h"
#include "kav.h"
#include "util/rng.h"

namespace kav {
namespace {

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

void expect_verdicts_equal(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.conflict, b.conflict);
  EXPECT_TRUE(a.stats == b.stats);
}

void expect_reports_equal(const Report& a, const Report& b) {
  ASSERT_EQ(a.per_key.size(), b.per_key.size());
  auto ita = a.per_key.begin();
  auto itb = b.per_key.begin();
  for (; ita != a.per_key.end(); ++ita, ++itb) {
    SCOPED_TRACE("key " + ita->first);
    ASSERT_EQ(ita->first, itb->first);
    expect_verdicts_equal(ita->second.verdict, itb->second.verdict);
  }
}

// --- Pool sharing ---------------------------------------------------------

TEST(Engine, BatchAndMonitorShareExactlyOnePool) {
  const KeyedTrace trace = multi_key_trace(4, 16, 7);
  const std::uint64_t pools_before = pipeline::ThreadPool::created_count();
  {
    EngineOptions options;
    options.threads = 2;
    Engine engine(options);
    engine.verify(trace);
    engine.monitor(trace);
    engine.verify(trace);
    engine.monitor(trace);
    EXPECT_EQ(engine.thread_count(), 2u);
  }
  EXPECT_EQ(pipeline::ThreadPool::created_count(), pools_before + 1);
}

TEST(Engine, PoolIsExposedForSideWork) {
  Engine engine;
  EXPECT_EQ(engine.pool().submit([] { return 41 + 1; }).get(), 42);
}

// --- Options precedence ---------------------------------------------------

TEST(Engine, PerCallVerifyOptionsOverrideEngineOptions) {
  // Staged history: 2-atomic but not atomic, so k decides the verdict.
  KeyedTrace trace;
  trace.add("r", make_write(0, 10, 1));
  trace.add("r", make_write(20, 30, 2));
  trace.add("r", make_read(40, 50, 1));
  trace.add("r", make_read(60, 70, 2));

  EngineOptions options;
  options.verify.k = 1;  // constructor default: strict atomicity
  Engine engine(options);

  EXPECT_FALSE(engine.verify(trace).per_key.at("r").verdict.yes());

  RunOptions run;
  VerifyOptions verify;
  verify.k = 2;
  run.verify = verify;  // per-call override wins
  EXPECT_TRUE(engine.verify(trace, run).per_key.at("r").verdict.yes());
  // And the override is per call, not sticky.
  EXPECT_FALSE(engine.verify(trace).per_key.at("r").verdict.yes());
}

TEST(Engine, FailFastFromEngineOptionsSkipsShards) {
  EngineOptions options;
  options.threads = 1;  // deterministic: key order == execution order
  options.fail_fast = true;
  Engine engine(options);
  const Report report = engine.verify(one_bad_key_trace(4));
  EXPECT_EQ(report.count(Outcome::no), 1u);
  EXPECT_EQ(report.count(Outcome::undecided), 4u);
  // Fail-fast skips are a latency feature, not a cancellation: the
  // report is not marked cancelled.
  EXPECT_FALSE(report.cancelled);
}

TEST(Engine, MalformedOperationThrowsEvenWhereFailFastSkipsItsKey) {
  // Key "a" answers NO and runs first on one thread; key "z", which
  // fail_fast then skips without building its History, holds an
  // operation with start >= finish. The streamed sources reject it
  // while they are read, before any key is decided.
  EngineOptions options;
  options.threads = 1;
  options.fail_fast = true;
  Engine engine(options);
  KeyedTrace trace = one_bad_key_trace(2);
  trace.add("z", make_write(0, 10, 1));
  trace.add("z", make_read(20, 20, 1));
  MemoryTraceSource memory(&trace);
  EXPECT_THROW(engine.verify(memory), std::invalid_argument);
  PushTraceSource push;
  for (const KeyedOperation& kop : trace.ops) push.push(kop);
  push.close();
  EXPECT_THROW(engine.verify(push), std::invalid_argument);
  EXPECT_THROW(engine.verify(trace), std::invalid_argument);
  // The engine stays usable.
  EXPECT_EQ(engine.verify(one_bad_key_trace(2)).count(Outcome::no), 1u);
}

// --- Cancellation and deadlines -------------------------------------------

TEST(Engine, PreCancelledTokenSkipsEveryShard) {
  Engine engine;
  RunOptions run;
  run.cancel.cancel();
  const Report report = engine.verify(multi_key_trace(3, 12, 21), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.count(Outcome::undecided), 3u);
  for (const auto& [key, result] : report.per_key) {
    EXPECT_EQ(result.verdict.reason, kSkipCancelledReason) << key;
  }
  EXPECT_EQ(report.stop_reason, kSkipCancelledReason);
  EXPECT_NE(report.summary().find("cancelled"), std::string::npos);
}

TEST(Engine, CancelFromAShardLoaderSkipsTheRest) {
  // One worker runs the shards in submission (key) order, so the first
  // shard's loader cancels the run before any other shard starts.
  const KeyedHistories shards = split_by_key(multi_key_trace(5, 10, 33));
  pipeline::ThreadPool pool(1);
  obs::MetricsRegistry registry;
  ShardedVerifier verifier(pool, registry, /*fail_fast=*/false);
  CancelToken cancel;
  std::atomic<int> loaded{0};
  std::vector<ShardSpec> specs;
  for (const auto& [key, history] : shards.per_key) {
    ShardSpec spec;
    spec.key = key;
    spec.op_count = history.size();
    spec.load = [&history, &cancel, &loaded] {
      loaded.fetch_add(1);
      cancel.cancel();
      return history;
    };
    specs.push_back(std::move(spec));
  }
  const Report report =
      verifier.verify_shards(specs, VerifyOptions{}, cancel, std::nullopt);
  EXPECT_EQ(loaded.load(), 1);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.stop_reason, kSkipCancelledReason);
  const std::string& first = shards.per_key.begin()->first;
  expect_verdicts_equal(
      report.per_key.at(first).verdict,
      verify_k_atomicity(shards.per_key.begin()->second, VerifyOptions{}));
  for (const auto& [key, result] : report.per_key) {
    if (key == first) continue;
    EXPECT_EQ(result.verdict.reason, kSkipCancelledReason) << key;
  }
  EXPECT_EQ(report.count(Outcome::undecided), 4u);
}

TEST(Engine, ExpiredDeadlineSkipsEveryShard) {
  // The push source is never closed: reading it stops at the timeout,
  // and the three keys it named are then past the same cutoff.
  Engine engine;
  PushTraceSource source;
  for (int k = 0; k < 3; ++k) {
    const std::string key = "key" + std::to_string(k);
    source.push(key, make_write(0, 10, 1));
    source.push(key, make_read(12, 20, 1));
  }
  RunOptions run;
  run.timeout = std::chrono::milliseconds(1);
  const Report report = engine.verify(source, run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("deadline"), std::string::npos);
  EXPECT_EQ(report.per_key.size(), 3u);
  EXPECT_EQ(report.count(Outcome::undecided), 3u);
  for (const auto& [key, result] : report.per_key) {
    EXPECT_EQ(result.verdict.reason, kSkipDeadlineReason) << key;
  }
}

TEST(Engine, CancelledMonitorStillReportsThePrefixSoundly) {
  // Engine::monitor pulls chunks of at most queue_capacity operations
  // and checks the token between chunks.
  EngineOptions options;
  options.queue_capacity = 8;
  Engine engine(options);
  RunOptions run;
  run.cancel.cancel();  // fires after the first ingested chunk
  const Report report = engine.monitor(multi_key_trace(2, 20, 17), run);
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("cancelled"), std::string::npos);
  // Exactly one chunk was admitted before the token was observed.
  EXPECT_EQ(report.monitor_totals.operations_ingested, 8u);
}

// --- TraceSource equivalence ----------------------------------------------

class EngineSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = multi_key_trace(5, 14, 77);
    // Per-test names: ctest -j runs this fixture's tests as concurrent
    // processes, and one's TearDown must not delete another's input.
    const std::string stem =
        ::testing::TempDir() + "engine_source_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    text_path_ = stem + ".txt";
    binary_path_ = stem + ".kavb";
    write_trace_file(text_path_, trace_);
    write_binary_trace_file(binary_path_, trace_);
  }

  void TearDown() override {
    std::remove(text_path_.c_str());
    std::remove(binary_path_.c_str());
  }

  KeyedTrace trace_;
  std::string text_path_;
  std::string binary_path_;
};

TEST_F(EngineSourceTest, MemoryTextAndBinarySourcesVerifyIdentically) {
  Engine engine;
  const Report from_trace = engine.verify(trace_);

  MemoryTraceSource memory(trace_);
  auto text = open_trace_source(text_path_);
  auto binary = open_trace_source(binary_path_);
  EXPECT_NE(text->describe().find("text:"), std::string::npos);
  EXPECT_NE(binary->describe().find("binary:"), std::string::npos);

  expect_reports_equal(from_trace, engine.verify(memory));
  expect_reports_equal(from_trace, engine.verify(*text));
  expect_reports_equal(from_trace, engine.verify(*binary));
}

TEST_F(EngineSourceTest, KeyFilteredMemoryAndBinaryFileReportsMatch) {
  // An in-memory trace is read through a MemoryTraceSource, so under a
  // key_filter it goes the way a .kavb file goes: the same Report, and
  // a dropped key is never checked, malformed or not.
  Engine engine;
  RunOptions run;
  run.key_filter = {"key1", "key3", "absent"};
  auto binary = open_trace_source(binary_path_);
  const Report from_file = engine.verify(*binary, run);
  const auto expect_same = [&](const Report& got) {
    expect_reports_equal(from_file, got);
    EXPECT_EQ(got.verify_totals, from_file.verify_totals);
    EXPECT_EQ(got.selected, from_file.selected);
    EXPECT_EQ(got.keys_selected, from_file.keys_selected);
    EXPECT_EQ(got.keys_available, from_file.keys_available);
    EXPECT_EQ(got.missing_keys, from_file.missing_keys);
    EXPECT_EQ(got.cancelled, from_file.cancelled);
    EXPECT_EQ(got.summary(), from_file.summary());
  };
  ASSERT_EQ(from_file.per_key.size(), 2u);
  EXPECT_EQ(from_file.missing_keys, std::vector<std::string>{"absent"});
  expect_same(engine.verify(trace_, run));

  KeyedTrace with_malformed = trace_;
  with_malformed.add("key0", make_read(30, 30, 1));  // start == finish
  const Report got = engine.verify(with_malformed, run);
  expect_reports_equal(from_file, got);
  EXPECT_EQ(got.missing_keys, from_file.missing_keys);
  EXPECT_THROW(engine.verify(with_malformed), std::invalid_argument);
}

TEST_F(EngineSourceTest, MonitorAgreesAcrossFileFormats) {
  Engine engine;
  const Report from_trace = engine.monitor(trace_);
  auto text = open_trace_source(text_path_);
  auto binary = open_trace_source(binary_path_);
  const Report from_text = engine.monitor(*text);
  const Report from_binary = engine.monitor(*binary);
  ASSERT_EQ(from_trace.per_key.size(), from_text.per_key.size());
  ASSERT_EQ(from_trace.per_key.size(), from_binary.per_key.size());
  for (const auto& [key, result] : from_trace.per_key) {
    SCOPED_TRACE("key " + key);
    EXPECT_EQ(result.verdict.outcome,
              from_text.per_key.at(key).verdict.outcome);
    EXPECT_EQ(result.verdict.outcome,
              from_binary.per_key.at(key).verdict.outcome);
    EXPECT_EQ(result.findings.size(),
              from_text.per_key.at(key).findings.size());
    EXPECT_EQ(result.findings.size(),
              from_binary.per_key.at(key).findings.size());
  }
}

TEST(EngineSource, PushSourceStreamsFromAProducerThread) {
  const KeyedTrace trace = multi_key_trace(3, 12, 55);
  Engine engine;
  const Report batch = engine.monitor(trace);

  PushTraceSource push(8);  // tiny capacity: exercises backpressure
  std::thread producer([&] {
    for (const KeyedOperation& kop : trace.ops) push.push(kop);
    push.close();
  });
  const Report live = engine.monitor(push);
  producer.join();

  ASSERT_EQ(live.per_key.size(), batch.per_key.size());
  for (const auto& [key, result] : batch.per_key) {
    SCOPED_TRACE("key " + key);
    EXPECT_EQ(live.per_key.at(key).verdict.outcome, result.verdict.outcome);
  }
  EXPECT_EQ(live.monitor_totals.operations_ingested, trace.size());
}

TEST(EngineSource, CancelUnblocksMonitorOnAnIdlePushSource) {
  // The producer never calls close(): without bounded pulls
  // (TraceSource::pull's wait) the monitor would block on the source
  // forever and the CancelToken could never be honored.
  Engine engine;
  PushTraceSource push;
  push.push("k", make_write(0, 5, 1));
  RunOptions run;
  CancelToken token = run.cancel;  // copies share the flag
  std::thread canceller([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    token.cancel();
  });
  const Report report = engine.monitor(push, run);
  canceller.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("cancelled"), std::string::npos);
  EXPECT_EQ(report.monitor_totals.operations_ingested, 1u);
}

TEST(EngineSource, PushSourceRejectsPushAfterClose) {
  PushTraceSource push;
  push.push("k", make_write(0, 5, 1));
  push.close();
  push.close();  // idempotent
  EXPECT_THROW(push.push("k", make_write(6, 9, 1)), std::logic_error);
  KeyedOperation kop;
  EXPECT_TRUE(push.next(kop));  // the queued op drains...
  EXPECT_EQ(kop.key, "k");
  EXPECT_FALSE(push.next(kop));  // ...then the stream ends
}

// The consumer swaps the whole queue out at once, so capacity 1 is the
// hardest case for the handoff: every push after the first waits for a
// swap.
TEST(EngineSource, PushSourceKeepsEachProducersOrderAtCapacityOne) {
  PushTraceSource push(1);
  constexpr int kPerProducer = 2'000;
  auto produce = [&push](const std::string& key) {
    for (int i = 0; i < kPerProducer; ++i) {
      push.push(key, make_write(i, i + 1, i));
    }
  };
  std::thread a(produce, "a");
  std::thread b(produce, "b");
  std::thread closer([&] {
    a.join();
    b.join();
    push.close();
  });
  std::map<std::string, Value> next_value;
  KeyedOperation kop;
  int pulled = 0;
  while (push.next(kop)) {
    EXPECT_EQ(kop.op.value, next_value[kop.key]++) << kop.key;
    ++pulled;
  }
  closer.join();
  EXPECT_EQ(pulled, 2 * kPerProducer);  // neither producer stranded
  EXPECT_EQ(next_value["a"], kPerProducer);
  EXPECT_EQ(next_value["b"], kPerProducer);
}

TEST(EngineSource, PushBlockedAtCapacityResumesAfterOnePull) {
  PushTraceSource push(1);
  push.push("k", make_write(0, 5, 1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    push.push("k", make_write(6, 9, 2));  // full: blocks
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  KeyedOperation kop;
  ASSERT_TRUE(push.next(kop));  // one pull frees the queue
  EXPECT_EQ(kop.op.value, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(push.next(kop));
  EXPECT_EQ(kop.op.value, 2);
}

TEST(EngineSource, CloseThrowsInAProducerBlockedAtCapacity) {
  PushTraceSource push(1);
  push.push("k", make_write(0, 5, 1));
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      push.push("k", make_write(6, 9, 2));  // full: blocks until close()
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  push.close();
  producer.join();
  EXPECT_TRUE(threw.load());
  KeyedOperation kop;
  EXPECT_TRUE(push.next(kop));  // the queued op still drains
  EXPECT_EQ(kop.op.value, 1);
  EXPECT_FALSE(push.next(kop));
}

TEST(EngineSource, PushSourceDescribeCountsQueuedAndTakenItems) {
  PushTraceSource push(8);
  for (Value v = 1; v <= 3; ++v) push.push("k", make_write(v, v + 1, v));
  KeyedOperation kop;
  ASSERT_TRUE(push.next(kop));  // takes all three, hands out one
  push.push("k", make_write(10, 11, 4));
  EXPECT_EQ(push.describe(), "push(3 queued)");  // 2 taken + 1 queued
  push.close();
  EXPECT_EQ(push.describe(), "push(3 queued, closed)");
  int rest = 0;
  while (push.next(kop)) ++rest;
  EXPECT_EQ(rest, 3);
  EXPECT_EQ(push.describe(), "push(0 queued, closed)");
}

// A read that precedes its dictating write is a chunk normalize()
// rejects. Engine::monitor must report it as one hard_anomaly finding
// (the key is NO; the batch path calls it invalid) instead of throwing
// away the whole report.
TEST(EngineMonitor, ReadPrecedingItsWriteIsAFindingNotAThrow) {
  KeyedTrace trace;
  trace.add("k", make_read(1, 5, 7));
  trace.add("k", make_write(10, 20, 7));
  trace.add("ok", make_write(0, 4, 1));
  trace.add("ok", make_read(6, 8, 1));
  EngineOptions options;
  options.streaming.staleness_horizon = 100;
  options.reorder_slack = 10;
  Engine engine(options);

  const Report monitored = engine.monitor(trace);
  const KeyResult& k = monitored.per_key.at("k");
  EXPECT_TRUE(k.verdict.no());
  ASSERT_EQ(k.findings.size(), 1u);
  EXPECT_EQ(k.findings[0].kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(k.findings[0].detail.find("read(v=7) [1, 5)"), std::string::npos)
      << k.findings[0].detail;
  EXPECT_NE(k.findings[0].detail.find("write(v=7) [10, 20)"),
            std::string::npos)
      << k.findings[0].detail;
  EXPECT_TRUE(monitored.per_key.at("ok").verdict.yes());

  const Report batch = engine.verify(trace);
  EXPECT_EQ(batch.per_key.at("k").verdict.outcome,
            Outcome::precondition_failed);
}

// A long stream on one key where the bad chunk is decided mid-stream:
// exactly one finding, however many drains follow.
TEST(EngineMonitor, ReadPrecedingItsWriteMidStreamIsReportedOnce) {
  KeyedTrace trace;
  trace.add("k", make_read(1, 5, 7));
  trace.add("k", make_write(10, 20, 7));
  for (TimePoint t = 100; t < 20'000; t += 10) {
    const auto value = static_cast<Value>(t);
    trace.add("k", make_write(t, t + 3, value));
    trace.add("k", make_read(t + 4, t + 8, value));
  }
  EngineOptions options;
  options.streaming.staleness_horizon = 100;
  options.reorder_slack = 10;
  options.queue_capacity = 16;  // many small drains
  Engine engine(options);
  std::atomic<int> live{0};
  RunOptions run;
  run.on_finding = [&live](const std::string&, const StreamingViolation&) {
    ++live;
  };
  const Report report = engine.monitor(trace, run);
  const KeyResult& k = report.per_key.at("k");
  ASSERT_EQ(k.findings.size(), 1u);
  EXPECT_EQ(k.findings[0].kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_EQ(live.load(), 1);
  EXPECT_LT(k.findings[0].when, kTimeMax);  // decided before finish()
}

// --- Unified Report -------------------------------------------------------

TEST(EngineReport, OneFormatterAcrossBatchAndMonitor) {
  const KeyedTrace trace = one_bad_key_trace(3);
  Engine engine;
  const std::string batch = engine.verify(trace).summary();
  const std::string monitor = engine.monitor(trace).summary();

  // Same grep-able shape everywhere; the Engine's batch line and the
  // serial reference's agree exactly.
  EXPECT_EQ(batch, verify_keyed_trace(trace).summary());
  for (const std::string& line : {batch, monitor}) {
    EXPECT_NE(line.find("/4 keys atomic within bound"), std::string::npos)
        << line;
    EXPECT_NE(line.find("1 NO"), std::string::npos) << line;
  }
}

TEST(EngineReport, BatchFillsVerifyTotalsMonitorFillsMonitorTotals) {
  const KeyedTrace trace = multi_key_trace(3, 16, 41);
  Engine engine;
  const Report batch = engine.verify(trace);
  EXPECT_EQ(batch.mode, Report::Mode::batch);
  EXPECT_TRUE(batch.verify_totals == verify_keyed_trace(trace).verify_totals);
  EXPECT_EQ(batch.monitor_totals.operations_ingested, 0u);

  const Report live = engine.monitor(trace);
  EXPECT_EQ(live.mode, Report::Mode::monitor);
  EXPECT_EQ(live.monitor_totals.operations_ingested, trace.size());
  EXPECT_EQ(live.monitor_totals.keys, 3u);
}

TEST(EngineReport, DescribeRendersEveryOutcome) {
  EXPECT_EQ(describe(Verdict::make_yes({0, 1, 2})),
            "YES (witness over 3 ops)");
  EXPECT_EQ(describe(Verdict::make_no("because")), "NO: because");
  EXPECT_EQ(describe(Verdict::make_undecided("later")), "UNDECIDED: later");
  EXPECT_EQ(describe(Verdict::make_precondition_failed("bad input")),
            "PRECONDITION-FAILED: bad input");
}

TEST(EngineReport, MonitorFindingsFlowThroughOnFinding) {
  const KeyedTrace trace = one_bad_key_trace(2);
  Engine engine;
  RunOptions run;
  std::vector<std::string> live_keys;
  run.on_finding = [&](const std::string& key, const StreamingViolation&) {
    live_keys.push_back(key);
  };
  const Report report = engine.monitor(trace, run);
  std::size_t total_findings = 0;
  for (const auto& [key, result] : report.per_key) {
    total_findings += result.findings.size();
  }
  EXPECT_EQ(live_keys.size(), total_findings);
  EXPECT_GE(total_findings, 1u);
  for (const std::string& key : live_keys) EXPECT_EQ(key, "a");
}

// --- Components on a caller's pool (what the Engine wires up) ------------

TEST(BorrowedPool, ShardedVerifierRunsOnACallerPool) {
  const KeyedTrace trace = multi_key_trace(4, 12, 13);
  const KeyedHistories shards = split_by_key(trace);
  std::vector<ShardSpec> specs;
  for (const auto& [key, history] : shards.per_key) {
    ShardSpec spec;
    spec.key = key;
    spec.op_count = history.size();
    spec.pinned = &history;
    specs.push_back(std::move(spec));
  }
  pipeline::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  const std::uint64_t pools_before = pipeline::ThreadPool::created_count();
  ShardedVerifier verifier(pool, registry, /*fail_fast=*/false);
  const Report parallel =
      verifier.verify_shards(specs, {}, CancelToken{}, std::nullopt);
  EXPECT_EQ(pipeline::ThreadPool::created_count(), pools_before);
  const Report serial = verify_keyed_trace(trace);
  expect_reports_equal(parallel, serial);
  EXPECT_TRUE(parallel.verify_totals == serial.verify_totals);
}

// --- Observability (src/obs/ wired through the engine) --------------------

// Distinct value of series `name` summed over its label sets.
std::uint64_t series_total(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name == name) total += static_cast<std::uint64_t>(m.value);
  }
  return total;
}

TEST(EngineObs, InjectedRegistryCountsRunLifecycle) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  EXPECT_EQ(&engine.metrics(), &registry);

  const KeyedTrace trace = multi_key_trace(3, 12, 55);
  engine.verify(trace);
  engine.verify(trace);
  engine.monitor(trace);

  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_engine_runs_started_total"), 3u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 3u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_cancelled_total"), 0u);
  // 3 keys per run, batch and monitor alike.
  EXPECT_EQ(series_total(snap, "kav_engine_keys_verified_total"), 9u);
  EXPECT_EQ(series_total(snap, "kav_engine_verdicts_total"), 9u);
  // The pool the engine owns reports into the same registry.
  EXPECT_GT(series_total(snap, "kav_pool_tasks_completed_total"), 0u);
  EXPECT_EQ(series_total(snap, "kav_pool_threads"), 2u);
  // A second engine on the default (global) registry shares nothing
  // with this one: the injected registry's totals stay put.
  Engine other;
  other.verify(trace);
  EXPECT_EQ(series_total(engine.snapshot(), "kav_engine_runs_started_total"),
            3u);
}

TEST(EngineObs, CancelledRunCountsAsCancelled) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.metrics = &registry;
  Engine engine(options);
  RunOptions run;
  run.cancel.cancel();  // pre-cancelled: every shard skips
  engine.verify(multi_key_trace(2, 8, 3), run);
  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_engine_runs_cancelled_total"), 1u);
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 0u);
  // The skipped shards are visible too, with their reason.
  EXPECT_EQ(series_total(snap, "kav_engine_shards_skipped_total"), 2u);
}

TEST(EngineObs, SnapshotIsCoherentDuringALiveRun) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);

  const KeyedTrace trace = multi_key_trace(4, 40, 91);
  PushTraceSource push(8);  // tiny capacity: the run stays live a while
  std::thread producer([&] {
    for (const KeyedOperation& kop : trace.ops) push.push(kop);
    push.close();
  });

  // Scrape continuously while the monitor run is in flight: counters
  // must be monotone between snapshots and the lifecycle invariant
  // started >= completed + cancelled must hold at every instant.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last_ingested = 0;
    while (!done.load()) {
      const obs::RegistrySnapshot snap = engine.snapshot();
      const std::uint64_t ingested =
          series_total(snap, "kav_monitor_ops_ingested_total");
      EXPECT_GE(ingested, last_ingested);
      last_ingested = ingested;
      EXPECT_GE(series_total(snap, "kav_engine_runs_started_total"),
                series_total(snap, "kav_engine_runs_completed_total") +
                    series_total(snap, "kav_engine_runs_cancelled_total"));
    }
  });

  const Report report = engine.monitor(push);
  producer.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
  const obs::RegistrySnapshot snap = engine.snapshot();
  EXPECT_EQ(series_total(snap, "kav_monitor_ops_ingested_total"),
            trace.size());
  EXPECT_EQ(series_total(snap, "kav_engine_runs_completed_total"), 1u);
}

TEST(EngineObs, CatalogSpansEveryLayerWithAtLeast25Metrics) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);

  // Exercise every instrumented layer once: batch verify (pipeline +
  // verify counters), monitor (ingest), and a store round trip
  // (append, a selective query's bloom-backed lookups, maintenance,
  // fsck).
  const KeyedTrace trace = multi_key_trace(3, 12, 19);
  engine.verify(trace);
  engine.monitor(trace);
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "kav_engine_obs_catalog";
  std::filesystem::remove_all(dir);
  {
    auto store = engine.open_store(dir.string());
    store->append(trace);
    RunOptions selective;
    selective.key_filter = {"key0", "no-such-key"};
    engine.verify(*store->open_source(), selective);
    store->run_maintenance();
    store->fsck();
  }
  std::filesystem::remove_all(dir);

  std::set<std::string> names;
  const obs::RegistrySnapshot snap = engine.snapshot();
  for (const obs::MetricSnapshot& m : snap.metrics) names.insert(m.name);
  // The tentpole's acceptance floor: one scrape exposes the whole
  // stack. Every layer prefix must be present, and the catalog must
  // hold at least 25 distinct metric names.
  EXPECT_GE(names.size(), 25u) << [&] {
    std::string all;
    for (const std::string& n : names) all += n + "\n";
    return all;
  }();
  for (const char* prefix :
       {"kav_engine_", "kav_pool_", "kav_verify_", "kav_monitor_",
        "kav_store_"}) {
    EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                            [prefix](const std::string& n) {
                              return n.rfind(prefix, 0) == 0;
                            }))
        << "no metric with prefix " << prefix;
  }
}

// The kav_store_bloom_* counters count the lookups of real query
// traffic: a selective Engine::verify over a store's source probes
// every segment's bloom filter once per lookup -- one stat per
// requested key, then one load per key the store holds.
TEST(EngineObs, StoreQueriesCountBloomProbes) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "kav_engine_obs_bloom";
  std::filesystem::remove_all(dir);
  {
    auto store = engine.open_store(dir.string());
    constexpr std::uint64_t kSegments = 3;  // too few for a fold
    for (std::uint64_t s = 0; s < kSegments; ++s) {
      const TimePoint t = static_cast<TimePoint>(100 * s);
      KeyedTrace part;
      part.add("shared", make_write(t, t + 10, static_cast<Value>(s + 1)));
      part.add("shared", make_read(t + 20, t + 30, static_cast<Value>(s + 1)));
      part.add("only" + std::to_string(s), make_write(t, t + 5, 1));
      store->append(part);
    }
    store->disable_background_compaction();  // waits for a pass in flight
    ASSERT_EQ(store->segment_count(), kSegments);

    const auto totals = [&engine] {
      const obs::RegistrySnapshot snap = engine.snapshot();
      return std::array<std::uint64_t, 3>{
          series_total(snap, "kav_store_bloom_checks_total"),
          series_total(snap, "kav_store_bloom_skips_total"),
          series_total(snap, "kav_store_bloom_false_positives_total")};
    };
    const auto before = totals();
    RunOptions run;
    run.key_filter = {"shared", "absent"};
    const Report report = engine.verify(*store->open_source(), run);
    EXPECT_EQ(report.keys_selected, 1u);
    EXPECT_EQ(report.missing_keys, std::vector<std::string>{"absent"});
    EXPECT_EQ(report.keys_available, kSegments + 1);
    EXPECT_TRUE(report.all_yes());
    const auto after = totals();

    // Three lookups: stat("shared"), stat("absent"), load("shared").
    EXPECT_EQ(after[0] - before[0], 3 * kSegments);
    // Every segment holds "shared", so every skip and false positive
    // is "absent" being ruled out, once per segment.
    EXPECT_GE(after[1] - before[1], 1u);
    EXPECT_EQ((after[1] - before[1]) + (after[2] - before[2]), kSegments);

    // A source opened from a bare segment file counts nothing.
    auto file = open_trace_source(store->segments().front().path.string());
    (void)engine.verify(*file, run);
    EXPECT_EQ(totals(), after);
  }
  std::filesystem::remove_all(dir);
}

TEST(BorrowedPool, MonitorQuiescesWithoutShuttingTheSharedPoolDown) {
  pipeline::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  {
    KeyedStreamingMonitor monitor(pool, registry, EngineOptions{});
    KeyedTrace trace;
    for (int i = 0; i < 50; ++i) {
      trace.add("k", make_write(i * 10, i * 10 + 5, i));
    }
    testing_util::ChunkFeeder(monitor).ingest(trace, 16);
    const Report report = monitor.finish();
    EXPECT_EQ(report.mode, Report::Mode::monitor);
    EXPECT_EQ(report.monitor_totals.operations_ingested, 50u);
  }  // destructor quiesces in-flight drains, must NOT shut the pool down
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

}  // namespace
}  // namespace kav
