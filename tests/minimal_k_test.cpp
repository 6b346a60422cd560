// Tests for minimal-k computation (Section II-B's binary search over
// the decider ladder): exactness on small instances, agreement with
// verify_k_atomicity at the k it reports and the k below, and honest
// inexact bounds at scale.
#include <gtest/gtest.h>

#include <string>

#include "core/minimal_k.h"
#include "core/oracle.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(MinimalK, EmptyAndReadFreeHistories) {
  EXPECT_EQ(minimal_k(History{}).k, 1);
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  const MinimalKResult r = minimal_k(b.build());
  EXPECT_EQ(r.k, 1);
  EXPECT_TRUE(r.exact);
}

TEST(MinimalK, AtomicHistoryIsOne) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  const MinimalKResult r = minimal_k(b.build());
  EXPECT_EQ(r.k, 1);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.note, "Gibbons-Korach");
}

TEST(MinimalK, OneHopIsTwo) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  const MinimalKResult r = minimal_k(b.build());
  EXPECT_EQ(r.k, 2);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.note, "the ladder answers NO at k = 1");
}

TEST(MinimalK, ForcedSeparationLadder) {
  for (int s = 0; s <= 5; ++s) {
    const MinimalKResult r = minimal_k(gen::generate_forced_separation(s));
    EXPECT_EQ(r.k, s + 1) << "s=" << s;
    EXPECT_TRUE(r.exact) << "s=" << s;
  }
}

TEST(MinimalK, MatchesOracleOnRandomSweep) {
  Rng rng(1234);
  for (int t = 0; t < 150; ++t) {
    gen::RandomMixConfig config;
    config.operations = 10;
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    const MinimalKResult r = minimal_k(h);
    ASSERT_TRUE(r.exact) << "trial " << t << ": " << r.note;
    ASSERT_GE(r.k, 1);
    // Oracle agrees: k-atomic at r.k, not at r.k - 1.
    EXPECT_TRUE(oracle_is_k_atomic(h, r.k).yes()) << "trial " << t;
    if (r.k > 1) {
      EXPECT_TRUE(oracle_is_k_atomic(h, r.k - 1).no()) << "trial " << t;
    }
  }
}

TEST(MinimalK, LargeHistoryFallsBackToGreedyBound) {
  // 80 operations exceed the oracle limit; a forced separation of 3
  // needs k = 4, which greedy finds, reported as an upper bound.
  const History h = gen::generate_forced_separation(3, 16);  // 80 ops
  ASSERT_GT(h.size(), 64u);
  const MinimalKResult r = minimal_k(h);
  EXPECT_EQ(r.k, 4);
  EXPECT_FALSE(r.exact);
  EXPECT_NE(r.note.find("upper bound"), std::string::npos);
}

// minimal_k answers what verify_k_atomicity answers: YES at the k it
// reports, and exact iff k = 1 or verify answers NO at k - 1. The
// oracle decides every k up to kOracleMaxOps operations, so those
// histories are all exact; past it the W bound still holds.
MinimalKResult expect_agrees_with_verify(const History& h,
                                         const std::string& label) {
  const MinimalKResult r = minimal_k(h);
  EXPECT_GE(r.k, 1) << label;
  EXPECT_TRUE(verify_k_atomicity(h, {.k = r.k}).yes())
      << label << ": k = " << r.k << ", " << r.note;
  const bool no_below =
      r.k > 1 && verify_k_atomicity(h, {.k = r.k - 1}).no();
  EXPECT_EQ(r.exact, r.k == 1 || no_below) << label << ": " << r.note;
  if (h.size() <= kOracleMaxOps) {
    EXPECT_TRUE(r.exact) << label << ": k = " << r.k << ", " << r.note;
  }
  return r;
}

TEST(MinimalK, AgreesWithVerifyOnRandomMixesAndForcedSeparations) {
  Rng rng(7);
  for (int t = 0; t < 110; ++t) {
    gen::RandomMixConfig config;
    config.operations = 10 + t % 55;  // 10..64 ops
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    expect_agrees_with_verify(h, "mix " + std::to_string(t) + " (" +
                                     std::to_string(h.size()) + " ops)");
  }
  for (int s = 0; s <= 70; ++s) {
    const History h = gen::generate_forced_separation(s);
    const MinimalKResult r =
        expect_agrees_with_verify(h, "separation " + std::to_string(s));
    EXPECT_EQ(r.k, s + 1) << "s=" << s << ": " << r.note;
  }
}

TEST(MinimalK, GeneratedKAtomicWithinBudget) {
  Rng rng(99);
  for (int k = 1; k <= 3; ++k) {
    for (int t = 0; t < 20; ++t) {
      gen::KAtomicConfig config;
      config.writes = 6;
      config.k = k;
      const gen::GeneratedHistory g = gen::generate_k_atomic(config, rng);
      const MinimalKResult r = minimal_k(g.history);
      EXPECT_LE(r.k, k) << "k=" << k << " trial " << t;
      EXPECT_GE(r.k, 1);
    }
  }
}

TEST(MinimalK, AnomalousHistoryReportsZero) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 7);
  const MinimalKResult r = minimal_k(b.build());
  EXPECT_EQ(r.k, 0);
}

// Repairable anomalies are normalized away, as verify_k_atomicity does
// by default; k = 0 is for hard anomalies only.
TEST(MinimalK, RepairableHistoryIsNormalizedFirst) {
  HistoryBuilder tie;
  tie.write(0, 10, 1);
  tie.read(10, 20, 1);  // starts as its write finishes: one duplicate
  tie.write(30, 40, 2);
  tie.read(50, 60, 2);
  const MinimalKResult one = minimal_k(tie.build());
  EXPECT_EQ(one.k, 1) << one.note;
  EXPECT_TRUE(one.exact);

  HistoryBuilder outlives;
  outlives.write(0, 10, 1);
  outlives.write(20, 90, 2);  // outlives its dictated read
  outlives.read(30, 40, 2);
  outlives.read(50, 60, 1);   // one write stale
  const MinimalKResult two = minimal_k(outlives.build());
  EXPECT_EQ(two.k, 2) << two.note;
  EXPECT_TRUE(two.exact);
}

}  // namespace
}  // namespace kav
