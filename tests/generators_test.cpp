// Tests for the synthetic workload generators: determinism, anomaly
// freedom, ground-truth guarantees of each family, and the structural
// knobs (concurrency level c).
#include <gtest/gtest.h>

#include "core/fzf.h"
#include "core/oracle.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(Generators, KAtomicDeterministicPerSeed) {
  gen::KAtomicConfig config;
  Rng a(5), b(5), c(6);
  const auto ga = gen::generate_k_atomic(config, a);
  const auto gb = gen::generate_k_atomic(config, b);
  const auto gc = gen::generate_k_atomic(config, c);
  ASSERT_EQ(ga.history.size(), gb.history.size());
  for (OpId i = 0; i < ga.history.size(); ++i) {
    EXPECT_EQ(ga.history.op(i), gb.history.op(i));
  }
  EXPECT_EQ(ga.intended_order, gb.intended_order);
  // Different seed: almost surely different layout.
  bool any_diff = gc.history.size() != ga.history.size();
  for (OpId i = 0; !any_diff && i < ga.history.size(); ++i) {
    any_diff = !(ga.history.op(i) == gc.history.op(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, KAtomicIsNormalizedAndClean) {
  Rng rng(8);
  for (int t = 0; t < 20; ++t) {
    gen::KAtomicConfig config;
    config.writes = 12;
    config.k = 3;
    const auto g = gen::generate_k_atomic(config, rng);
    EXPECT_TRUE(is_normalized(g.history));
    EXPECT_TRUE(find_anomalies(g.history).empty());
  }
}

TEST(Generators, SpreadControlsConcurrency) {
  Rng rng(20);
  gen::KAtomicConfig tight;
  tight.writes = 60;
  tight.spread = 0.2;
  gen::KAtomicConfig wide = tight;
  wide.spread = 8.0;
  const auto narrow_history = gen::generate_k_atomic(tight, rng);
  const auto wide_history = gen::generate_k_atomic(wide, rng);
  EXPECT_LT(narrow_history.history.max_concurrent_writes(),
            wide_history.history.max_concurrent_writes());
}

TEST(Generators, ForcedSeparationStructure) {
  const History h = gen::generate_forced_separation(2, 3);
  EXPECT_EQ(h.size(), 12u);  // 3 blocks x (3 writes + 1 read)
  EXPECT_EQ(h.write_count(), 9u);
  EXPECT_TRUE(find_anomalies(h).empty());
  EXPECT_EQ(h.max_concurrent_writes(), 1u);  // all disjoint
}

TEST(Generators, PropertyPTripleZonesSharePoint) {
  const History h = gen::generate_property_p_triple();
  const auto zones = compute_zones(h);
  ASSERT_EQ(zones.size(), 3u);
  for (const Zone& z : zones) EXPECT_TRUE(z.forward);
  // All three zones contain a common point: max low < min high.
  TimePoint max_low = zones[0].low(), min_high = zones[0].high();
  for (const Zone& z : zones) {
    max_low = std::max(max_low, z.low());
    min_high = std::min(min_high, z.high());
  }
  EXPECT_LT(max_low, min_high);
}

TEST(Generators, PropertyPFanOverlapStructure) {
  const History h = gen::generate_property_p_fan(4);
  const auto zones = compute_zones(h);
  ASSERT_EQ(zones.size(), 5u);
  // The long zone overlaps all others; the short ones are disjoint.
  int overlaps = 0;
  for (std::size_t i = 1; i < zones.size(); ++i) {
    overlaps += zones[0].interval().overlaps(zones[i].interval());
    for (std::size_t j = i + 1; j < zones.size(); ++j) {
      EXPECT_FALSE(zones[i].interval().overlaps(zones[j].interval()));
    }
  }
  EXPECT_EQ(overlaps, 4);
}

TEST(Generators, B3ChunkHasSingleChunkWithBBackwardClusters) {
  for (int b = 3; b <= 6; ++b) {
    const History h = gen::generate_b3_chunk(b);
    ChunkPartition cs;
    partition_chunks(compute_zones(h), cs);
    ASSERT_EQ(cs.chunk_count(), 1u) << "b=" << b;
    EXPECT_EQ(cs.backward(0).size(),
              static_cast<std::size_t>(b));
    EXPECT_TRUE(cs.dangling_writes.empty());
  }
}

TEST(Generators, RandomMixAlwaysCleanAndNormalized) {
  Rng rng(33);
  for (int t = 0; t < 100; ++t) {
    gen::RandomMixConfig config;
    config.operations = 14;
    const History h = gen::generate_random_mix(config, rng);
    EXPECT_EQ(h.size(), 14u);
    EXPECT_TRUE(is_normalized(h));
    EXPECT_TRUE(find_anomalies(h).empty()) << "trial " << t;
  }
}

TEST(Generators, RandomMixProducesBothVerdicts) {
  Rng rng(44);
  int yes = 0, no = 0;
  for (int t = 0; t < 120; ++t) {
    gen::RandomMixConfig config;
    config.operations = 10;
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    const Verdict r = oracle_is_k_atomic(h, 2);
    ASSERT_TRUE(r.decided());
    ++(r.yes() ? yes : no);
  }
  EXPECT_GT(yes, 10);
  EXPECT_GT(no, 10);
}

TEST(Generators, HighConcurrencyHasRequestedC) {
  Rng rng(1);
  const History h = gen::generate_high_concurrency(4, 8, rng);
  EXPECT_EQ(h.max_concurrent_writes(), 8u);
  EXPECT_TRUE(find_anomalies(h).empty());
  // 2-atomic by construction.
  EXPECT_TRUE(check_2atomicity_fzf(h).yes());
}

TEST(Generators, InvalidConfigsThrow) {
  Rng rng(2);
  gen::KAtomicConfig bad;
  bad.writes = 0;
  EXPECT_THROW(gen::generate_k_atomic(bad, rng), std::invalid_argument);
  EXPECT_THROW(gen::generate_forced_separation(-1), std::invalid_argument);
  EXPECT_THROW(gen::generate_property_p_fan(2), std::invalid_argument);
  EXPECT_THROW(gen::generate_b3_chunk(2), std::invalid_argument);
  EXPECT_THROW(gen::generate_high_concurrency(0, 5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace kav
