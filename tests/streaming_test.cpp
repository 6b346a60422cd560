// Tests for the streaming 2-AV monitor: agreement with batch FZF on
// whole traces, incremental eviction (bounded window), horizon
// violation detection, and watermark semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/fzf.h"
#include "core/streaming.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "quorum/sim.h"
#include "util/rng.h"

namespace kav {
namespace {

// Feeds a history in finish order, advancing the watermark to each
// operation's start (valid: later ops in finish order may still start
// earlier, so the watermark trails the minimum unseen start).
Verdict stream_history(const History& history, TimePoint horizon,
                       StreamingStats* stats_out = nullptr,
                       std::size_t* peak_window = nullptr) {
  StreamingOptions options;
  options.staleness_horizon = horizon;
  StreamingChecker checker(options);
  std::vector<OpId> order(history.by_start().begin(),
                          history.by_start().end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    checker.add(history.op(order[i]));
    // All future ops start after this op's start (start order).
    checker.advance_watermark(history.op(order[i]).start);
  }
  const Verdict verdict = checker.finish();
  if (stats_out != nullptr) *stats_out = checker.stats();
  if (peak_window != nullptr) *peak_window = checker.stats().peak_window;
  return verdict;
}

TEST(Streaming, EmptyStreamIsYes) {
  StreamingChecker checker;
  EXPECT_TRUE(checker.finish().yes());
}

TEST(Streaming, AgreesWithBatchOnKAtomicWorkloads) {
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    gen::KAtomicConfig config;
    config.writes = 30;
    config.k = 2;
    const History h = gen::generate_k_atomic(config, rng).history;
    const Verdict batch = check_2atomicity_fzf(h);
    const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
    ASSERT_TRUE(batch.yes());
    EXPECT_TRUE(streamed.yes()) << "trial " << t << ": " << streamed.reason;
  }
}

TEST(Streaming, AgreesWithBatchOnRandomMixes) {
  Rng rng(17);
  int yes = 0, no = 0;
  for (int t = 0; t < 150; ++t) {
    gen::RandomMixConfig config;
    config.operations = 12;
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    const bool batch_yes = check_2atomicity_fzf(h).yes();
    const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
    ASSERT_EQ(streamed.yes(), batch_yes) << "trial " << t;
    ++(batch_yes ? yes : no);
  }
  EXPECT_GT(yes, 10);
  EXPECT_GT(no, 10);  // both verdicts exercised
}

TEST(Streaming, DetectsForcedSeparationMidStream) {
  const History h = gen::generate_forced_separation(2, 4);
  StreamingOptions options;
  options.staleness_horizon = 500;
  StreamingChecker checker(options);
  bool detected_before_finish = false;
  for (OpId id : h.by_start()) {
    checker.add(h.op(id));
    checker.advance_watermark(h.op(id).start);
    if (!checker.violations().empty()) detected_before_finish = true;
  }
  EXPECT_TRUE(checker.finish().no());
  // With a tight horizon the violation surfaces before the trace ends.
  EXPECT_TRUE(detected_before_finish);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::not_2atomic);
}

TEST(Streaming, EvictsSettledPrefixes) {
  // Long sequential workload with a tight horizon: the window must stay
  // tiny relative to the trace.
  const History h = gen::generate_forced_separation(0, 400);  // 800 ops
  StreamingStats stats;
  std::size_t peak = 0;
  const Verdict v = stream_history(h, /*horizon=*/2000, &stats, &peak);
  EXPECT_TRUE(v.yes()) << v.reason;
  EXPECT_EQ(stats.operations_ingested, h.size());
  EXPECT_EQ(stats.operations_evicted, h.size());
  EXPECT_LT(peak, h.size() / 10) << "window did not stay bounded";
  EXPECT_GT(stats.chunks_verified, 100u);
}

TEST(Streaming, HorizonViolationReported) {
  // A read of a value whose write settled long ago.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_write(0, 10, 1));
  checker.add(make_read(20, 30, 1));
  checker.advance_watermark(10'000);  // the cluster settles and evicts
  EXPECT_TRUE(checker.violations().empty());
  checker.add(make_read(10'050, 10'060, 1));  // way past the horizon
  const Verdict v = checker.finish();
  EXPECT_TRUE(v.no());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().back().kind,
            StreamingViolation::Kind::horizon_exceeded);
}

// Every write value is remembered after eviction, the extreme ones
// included, so a stale read is told apart from a read without a write.
TEST(Streaming, HorizonViolationsForExtremeAndManyValues) {
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  const Value lowest = std::numeric_limits<Value>::min();
  checker.add(make_write(0, 10, lowest));
  for (Value v = 1; v <= 1'000; ++v) {
    checker.add(make_write(10 * v, 10 * v + 5, v));
  }
  checker.advance_watermark(1'000'000);  // everything settles and evicts
  ASSERT_EQ(checker.window_size(), 0u);
  checker.add(make_read(1'000'010, 1'000'020, lowest));
  checker.add(make_read(1'000'011, 1'000'021, 500));
  checker.add(make_read(1'000'012, 1'000'022, 5'000));  // never written
  checker.finish();
  ASSERT_EQ(checker.violations().size(), 3u);
  EXPECT_EQ(checker.violations()[0].kind,
            StreamingViolation::Kind::horizon_exceeded);
  EXPECT_EQ(checker.violations()[1].kind,
            StreamingViolation::Kind::horizon_exceeded);
  EXPECT_EQ(checker.violations()[2].kind,
            StreamingViolation::Kind::hard_anomaly);
}

TEST(Streaming, OrphanReadIsHardAnomaly) {
  StreamingChecker checker;
  checker.add(make_read(0, 10, 99));
  const Verdict v = checker.finish();
  EXPECT_TRUE(v.no());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::hard_anomaly);
}

TEST(Streaming, DuplicateWriteValueFlagged) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 7));
  checker.add(make_write(20, 30, 7));
  checker.finish();
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::hard_anomaly);
}

// A read [1, 5) of value 7 whose write is [10, 20): the read precedes
// its dictating write, a hard anomaly. normalize() rejects such a
// chunk, so the checker must report it before normalizing -- one
// finding naming both operations -- and still evict the chunk.
TEST(Streaming, ReadPrecedingItsWriteIsOneHardAnomaly) {
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_read(1, 5, 7));
  checker.add(make_write(10, 20, 7));
  checker.advance_watermark(500);  // settles and decides the chunk
  ASSERT_EQ(checker.violations().size(), 1u);
  const StreamingViolation& finding = checker.violations().front();
  EXPECT_EQ(finding.kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(finding.detail.find(describe(make_read(1, 5, 7))),
            std::string::npos)
      << finding.detail;
  EXPECT_NE(finding.detail.find(describe(make_write(10, 20, 7))),
            std::string::npos)
      << finding.detail;
  EXPECT_EQ(checker.window_size(), 0u);  // evicted, not retried
  checker.advance_watermark(1'000);
  EXPECT_EQ(checker.violations().size(), 1u);
  EXPECT_TRUE(checker.finish().no());
  EXPECT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.stats().operations_evicted, 2u);
}

TEST(Streaming, ReadPrecedingItsWriteInsideALargerChunk) {
  // Cluster 1: write [0, 30) read by [40, 50): forward zone [30, 40].
  // Cluster 2: read [31, 33) precedes its write [35, 60): zone [33, 35],
  // inside the first -- one chunk of two forward clusters.
  StreamingOptions options;
  options.staleness_horizon = 100;
  StreamingChecker checker(options);
  checker.add(make_write(0, 30, 1));
  checker.add(make_read(31, 33, 2));
  checker.add(make_write(35, 60, 2));
  checker.add(make_read(40, 50, 1));
  EXPECT_TRUE(checker.finish().no());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().kind,
            StreamingViolation::Kind::hard_anomaly);
  EXPECT_EQ(checker.stats().chunks_verified, 1u);
}

TEST(Streaming, AddRejectsMalformedIntervals) {
  StreamingChecker checker;
  EXPECT_THROW(checker.add(make_write(10, 10, 1)), std::invalid_argument);
  EXPECT_EQ(checker.stats().operations_ingested, 0u);
  EXPECT_TRUE(checker.finish().yes());
}

TEST(Streaming, QuorumTraceEndToEnd) {
  quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.keys = 1;
  config.clients = 4;
  config.ops_per_client = 40;
  config.seed = 11;
  const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(sim.trace);
  const History h = normalize(split.per_key.begin()->second);
  const bool batch_yes = check_2atomicity_fzf(h).yes();
  const Verdict streamed = stream_history(h, /*horizon=*/1 << 20);
  EXPECT_EQ(streamed.yes(), batch_yes);
}

TEST(Streaming, WatermarkMonotonicityIsForgiving) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.advance_watermark(100);
  checker.advance_watermark(50);  // regression ignored, not fatal
  checker.add(make_read(102, 110, 1));
  EXPECT_TRUE(checker.finish().yes());
}

TEST(Streaming, AddAfterFinishThrows) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.finish();
  EXPECT_THROW(checker.add(make_write(20, 30, 2)), std::logic_error);
}

TEST(Streaming, StatsCountFlushes) {
  StreamingChecker checker;
  checker.add(make_write(0, 10, 1));
  checker.advance_watermark(5);
  checker.advance_watermark(6);
  checker.finish();
  EXPECT_GE(checker.stats().flushes, 3u);
  EXPECT_EQ(checker.stats().operations_ingested, 1u);
}

}  // namespace
}  // namespace kav
