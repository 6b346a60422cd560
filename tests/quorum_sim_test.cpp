// Tests for the sloppy-quorum simulator: determinism, trace
// well-formedness, the staleness behaviour the paper predicts for
// non-strict quorums (Section I), and config validation.
#include <gtest/gtest.h>

#include "core/minimal_k.h"
#include "core/verify.h"
#include "history/anomaly.h"
#include "quorum/sim.h"

namespace kav {
namespace {

using quorum::QuorumConfig;
using quorum::SimResult;
using quorum::run_sloppy_quorum_sim;

TEST(QuorumSim, DeterministicPerSeed) {
  QuorumConfig config;
  config.ops_per_client = 20;
  const SimResult a = run_sloppy_quorum_sim(config);
  const SimResult b = run_sloppy_quorum_sim(config);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.ops[i].key, b.trace.ops[i].key);
    EXPECT_EQ(a.trace.ops[i].op, b.trace.ops[i].op);
  }
  EXPECT_EQ(a.stats.messages, b.stats.messages);

  config.seed = 99;
  const SimResult c = run_sloppy_quorum_sim(config);
  EXPECT_NE(a.stats.messages, c.stats.messages);
}

TEST(QuorumSim, TraceAccounting) {
  QuorumConfig config;
  config.clients = 3;
  config.ops_per_client = 15;
  config.keys = 2;
  const SimResult result = run_sloppy_quorum_sim(config);
  // keys bootstrap writes + clients * ops.
  EXPECT_EQ(result.trace.size(),
            static_cast<std::size_t>(config.keys +
                                     config.clients * config.ops_per_client));
  EXPECT_EQ(result.stats.reads + result.stats.writes,
            static_cast<std::uint64_t>(config.clients *
                                       config.ops_per_client));
  EXPECT_GT(result.stats.messages, 0u);
}

TEST(QuorumSim, TracesAreAnomalyFreePerKey) {
  QuorumConfig config;
  config.clients = 4;
  config.ops_per_client = 25;
  config.keys = 3;
  const SimResult result = run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(result.trace);
  ASSERT_EQ(split.per_key.size(), 3u);
  for (const auto& [key, history] : split.per_key) {
    const AnomalyReport report = find_anomalies(history);
    EXPECT_TRUE(report.repairable())
        << key << ": " << (report.empty()
                               ? ""
                               : describe(report.anomalies.front(), history));
  }
}

TEST(QuorumSim, StrictQuorumsAreAtomicInPractice) {
  // R + W > N with first-responder quorums and LWW versioning: every
  // read sees the freshest completed write, so per-key histories are
  // 1-atomic (checked exactly, not statistically, for this seed set).
  for (std::uint64_t seed : {1ull, 7ull, 21ull}) {
    QuorumConfig config;
    config.replicas = 3;
    config.write_quorum = 2;
    config.read_quorum = 2;
    config.ops_per_client = 30;
    config.seed = seed;
    const SimResult result = run_sloppy_quorum_sim(config);
    VerifyOptions k1;
    k1.k = 1;
    const Report report = verify_keyed_trace(result.trace, k1);
    EXPECT_TRUE(report.all_yes()) << "seed " << seed << ": "
                                  << report.summary();
  }
}

TEST(QuorumSim, SloppyQuorumsProduceStaleness) {
  // R + W <= N with fixed random subsets and slow anti-entropy: reads
  // miss recent writes; across seeds we must observe staleness.
  std::uint64_t total_stale = 0;
  int non_atomic_keys = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuorumConfig config;
    config.replicas = 5;
    config.write_quorum = 1;
    config.read_quorum = 1;
    config.first_responders = false;
    config.anti_entropy_interval = 2000;
    config.clients = 4;
    config.ops_per_client = 30;
    config.seed = seed;
    const SimResult result = run_sloppy_quorum_sim(config);
    total_stale += result.stats.stale_reads;
    VerifyOptions k1;
    k1.k = 1;
    const Report report = verify_keyed_trace(result.trace, k1);
    non_atomic_keys += static_cast<int>(report.count(Outcome::no));
  }
  EXPECT_GT(total_stale, 0u);
  EXPECT_GT(non_atomic_keys, 0);
}

TEST(QuorumSim, MinimalKBoundedOnSmallSloppyTraces) {
  // Small traces let the exact minimal-k machinery run: staleness
  // exists but is bounded (the paper's k-atomicity motivation).
  QuorumConfig config;
  config.replicas = 4;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.first_responders = false;
  config.clients = 2;
  config.ops_per_client = 12;
  config.keys = 1;
  config.anti_entropy_interval = 300;
  config.seed = 13;
  const SimResult result = run_sloppy_quorum_sim(config);
  const KeyedHistories split = split_by_key(result.trace);
  for (const auto& [key, history] : split.per_key) {
    const MinimalKResult r = minimal_k(normalize(history));
    EXPECT_GE(r.k, 1);
    EXPECT_LE(r.k, static_cast<int>(history.write_count()));
  }
}

TEST(QuorumSim, ClockSkewCanBreakTimestamps) {
  // With heavy skew, recorded traces may contain hard anomalies (a
  // read that "precedes" its dictating write): detection must flag
  // them rather than verify garbage.
  int flagged = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    QuorumConfig config;
    config.clock_skew_max = 500;
    config.clients = 4;
    config.ops_per_client = 20;
    config.seed = seed;
    const SimResult result = run_sloppy_quorum_sim(config);
    const KeyedHistories split = split_by_key(result.trace);
    for (const auto& [key, history] : split.per_key) {
      if (!find_anomalies(history).repairable()) ++flagged;
    }
  }
  EXPECT_GT(flagged, 0);
}

TEST(QuorumSim, AntiEntropyReducesStaleness) {
  QuorumConfig slow;
  slow.replicas = 5;
  slow.write_quorum = 1;
  slow.read_quorum = 1;
  slow.first_responders = false;
  slow.clients = 4;
  slow.ops_per_client = 40;
  slow.anti_entropy_interval = 5000;
  slow.seed = 3;
  QuorumConfig fast = slow;
  fast.anti_entropy_interval = 10;
  std::uint64_t stale_slow = 0, stale_fast = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    slow.seed = seed;
    fast.seed = seed;
    stale_slow += run_sloppy_quorum_sim(slow).stats.stale_reads;
    stale_fast += run_sloppy_quorum_sim(fast).stats.stale_reads;
  }
  EXPECT_LT(stale_fast, stale_slow);
}

TEST(QuorumSim, ValidatesConfig) {
  QuorumConfig config;
  config.write_quorum = 4;  // > replicas
  EXPECT_THROW(run_sloppy_quorum_sim(config), std::invalid_argument);
  config = QuorumConfig{};
  config.read_fraction = 1.5;
  EXPECT_THROW(run_sloppy_quorum_sim(config), std::invalid_argument);
  config = QuorumConfig{};
  config.replicas = 0;
  EXPECT_THROW(run_sloppy_quorum_sim(config), std::invalid_argument);
}

TEST(QuorumSim, ZeroOpsStillBootstraps) {
  QuorumConfig config;
  config.ops_per_client = 0;
  const SimResult result = run_sloppy_quorum_sim(config);
  EXPECT_EQ(result.trace.size(), static_cast<std::size_t>(config.keys));
  EXPECT_EQ(result.stats.reads + result.stats.writes, 0u);
}

}  // namespace
}  // namespace kav
