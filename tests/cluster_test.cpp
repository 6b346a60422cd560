// Tests for the Gibbons-Korach cluster/zone vocabulary (Section IV):
// forward/backward classification, endpoints, and ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "history/anomaly.h"
#include "history/cluster.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(Zone, ForwardZoneFromSeparatedReadAndWrite) {
  HistoryBuilder b;
  const OpId w = b.write(0, 10, 1);
  b.read(30, 40, 1);
  const Zone z = compute_zone(b.build(), w);
  // Z.f = min finish = 10 (write), Z.s_bar = max start = 30 (read).
  EXPECT_EQ(z.min_finish, 10);
  EXPECT_EQ(z.max_start, 30);
  EXPECT_TRUE(z.forward);
  EXPECT_EQ(z.low(), 10);
  EXPECT_EQ(z.high(), 30);
}

TEST(Zone, BackwardZoneFromOverlappingCluster) {
  HistoryBuilder b;
  const OpId w = b.write(0, 50, 1);
  b.read(10, 60, 1);
  const Zone z = compute_zone(b.build(), w);
  // min finish = 50, max start = 10: backward.
  EXPECT_EQ(z.min_finish, 50);
  EXPECT_EQ(z.max_start, 10);
  EXPECT_FALSE(z.forward);
  EXPECT_EQ(z.low(), 10);
  EXPECT_EQ(z.high(), 50);
}

TEST(Zone, WriteWithoutReadsIsBackward) {
  HistoryBuilder b;
  const OpId w = b.write(5, 15, 1);
  const Zone z = compute_zone(b.build(), w);
  EXPECT_FALSE(z.forward);
  EXPECT_EQ(z.low(), 5);
  EXPECT_EQ(z.high(), 15);
}

TEST(Zone, MultipleReadsTakeExtremes) {
  HistoryBuilder b;
  const OpId w = b.write(0, 10, 1);
  b.read(12, 20, 1);
  b.read(50, 70, 1);
  b.read(15, 90, 1);
  const Zone z = compute_zone(b.build(), w);
  EXPECT_EQ(z.min_finish, 10);  // write finishes first
  EXPECT_EQ(z.max_start, 50);   // latest read start
  EXPECT_TRUE(z.forward);
}

TEST(Zone, ReadFinishingBeforeWriteDrivesMinFinish) {
  // After normalization this cannot happen, but compute_zone is defined
  // on raw histories too: the earliest finish may come from a read.
  HistoryBuilder b;
  const OpId w = b.write(0, 100, 1);
  b.read(5, 50, 1);
  const Zone z = compute_zone(b.build(), w);
  EXPECT_EQ(z.min_finish, 50);
  EXPECT_EQ(z.max_start, 5);
  EXPECT_FALSE(z.forward);
}

TEST(Zones, SortedByLowEndpoint) {
  HistoryBuilder b;
  b.write(100, 110, 1);
  b.read(130, 140, 1);  // zone [110, 130]
  b.write(0, 10, 2);
  b.read(30, 40, 2);  // zone [10, 30]
  b.write(200, 260, 3);
  b.read(210, 270, 3);  // backward zone [210, 260]
  const std::vector<Zone> zones = compute_zones(b.build());
  ASSERT_EQ(zones.size(), 3u);
  EXPECT_EQ(zones[0].low(), 10);
  EXPECT_EQ(zones[1].low(), 110);
  EXPECT_EQ(zones[2].low(), 210);
  EXPECT_EQ(zones[2].write, 4u);
  EXPECT_FALSE(zones[2].forward);
}

TEST(Zones, IntervalAccessorMatchesEndpoints) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(30, 40, 1);
  const std::vector<Zone> zones = compute_zones(b.build());
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].interval(), (Interval{10, 30}));
}

TEST(Zones, OnePerWriteEvenWithoutReads) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.write(40, 50, 3);
  EXPECT_EQ(compute_zones(b.build()).size(), 3u);
}

TEST(Zones, MatchAnExplicitSortInAnyArrivalOrder) {
  // c = 256 clumps of pairwise-concurrent writes, their ops shuffled so
  // that the writes' start order is far from their zones' low order.
  Rng rng(0x20E5);
  const History clumps = gen::generate_high_concurrency(3, 256, rng);
  std::vector<Operation> ops = clumps.operations();
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::shuffle(ops.begin(), ops.end(), rng);
    const History history(ops);
    std::vector<Zone> expected;
    for (OpId id = 0; id < history.size(); ++id) {
      if (history.is_write(id)) expected.push_back(compute_zone(history, id));
    }
    std::sort(expected.begin(), expected.end(),
              [](const Zone& a, const Zone& b) {
                return std::pair(a.low(), a.write) < std::pair(b.low(), b.write);
              });
    const std::vector<Zone> zones = compute_zones(history);
    ASSERT_EQ(zones.size(), expected.size());
    for (std::size_t i = 0; i < zones.size(); ++i) {
      EXPECT_EQ(zones[i].write, expected[i].write) << "zone " << i;
      EXPECT_EQ(zones[i].min_finish, expected[i].min_finish) << "zone " << i;
      EXPECT_EQ(zones[i].max_start, expected[i].max_start) << "zone " << i;
      EXPECT_EQ(zones[i].forward, expected[i].forward) << "zone " << i;
    }
  }
}

// The zone structure is invariant under normalization in the cases that
// matter: forward zones stay forward with the same relative order.
TEST(Zones, StableUnderNormalization) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(30, 40, 1);
  b.write(15, 25, 2);
  b.read(50, 60, 2);
  const auto before = compute_zones(b.build());
  const auto after = compute_zones(normalize(b.build()));
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].write, after[i].write);
    EXPECT_EQ(before[i].forward, after[i].forward);
  }
}

}  // namespace
}  // namespace kav
