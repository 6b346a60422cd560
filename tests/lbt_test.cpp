// Tests for LBT (Section III / Figure 2): decision correctness on
// hand-built histories, witness validity (against the independent
// validator), rollback after a candidate overruns its step budget, and
// the epoch/candidate bookkeeping.
#include <gtest/gtest.h>

#include "core/fzf.h"
#include "core/lbt.h"
#include "core/verify.h"
#include "core/witness.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav {
namespace {

void expect_yes_with_valid_witness(const History& h) {
  const Verdict v = check_2atomicity_lbt(h);
  ASSERT_TRUE(v.yes()) << v.reason;
  const WitnessCheck check = validate_witness(h, v.witness, 2);
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(Lbt, EmptyHistoryYes) {
  EXPECT_TRUE(check_2atomicity_lbt(History{}).yes());
}

TEST(Lbt, SingleClusterYes) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  b.read(14, 25, 1);
  expect_yes_with_valid_witness(b.build());
}

TEST(Lbt, OneStaleHopYes) {
  // w1 < w2 < r(w1): not 1-atomic but 2-atomic.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  expect_yes_with_valid_witness(b.build());
}

TEST(Lbt, TwoStaleHopsNo) {
  // w1 < w2 < w3 < r(w1): separation 2 forced, not 2-atomic.
  const History h = gen::generate_forced_separation(2);
  const Verdict v = check_2atomicity_lbt(h);
  EXPECT_TRUE(v.no());
  EXPECT_FALSE(v.reason.empty());
}

TEST(Lbt, WriteOnlyHistoryYes) {
  HistoryBuilder b;
  for (int i = 0; i < 8; ++i) b.write(i * 3, i * 3 + 40, i + 1);
  expect_yes_with_valid_witness(normalize(b.build()));
}

TEST(Lbt, InterleavedStaleReadsYes) {
  // Reads of w1 and w2 interleave after both writes: order
  // w1 w2 r(w1) r(w2) works with separation 1 and 0.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  b.read(42, 55, 2);
  expect_yes_with_valid_witness(b.build());
}

TEST(Lbt, ThreeDistinctStaleReadsNo) {
  // Reads of three different writes, all after all writes finish: some
  // read would need separation >= 2.
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.write(5, 105, 2);
  b.write(10, 110, 3);
  b.read(120, 130, 1);
  b.read(140, 150, 2);
  b.read(160, 170, 3);
  EXPECT_TRUE(check_2atomicity_lbt(normalize(b.build())).no());
}

TEST(Lbt, TwoDistinctStaleReadsOfConcurrentWritesYes) {
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.write(5, 105, 2);
  b.read(120, 130, 1);
  b.read(140, 150, 2);
  expect_yes_with_valid_witness(normalize(b.build()));
}

TEST(Lbt, PropertyPTripleNo) {
  EXPECT_TRUE(check_2atomicity_lbt(gen::generate_property_p_triple()).no());
}

TEST(Lbt, B3ChunkNo) {
  EXPECT_TRUE(check_2atomicity_lbt(gen::generate_b3_chunk(3)).no());
}

TEST(Lbt, BudgetOverrunRollsBackAndRetries) {
  // Sixteen serial writes, each followed by a read of its predecessor
  // that starts after it, form one forced w' chain: an epoch of 31
  // steps. A later write and its read make a first, 2-step epoch (LBT
  // works back to front), so the chain is the second epoch. Its first
  // attempt overruns the initial 16-step budget, is rolled back and
  // re-run with a doubled budget. The retry starts from the restored
  // state and the restored segment and read lists, so its witness must
  // still validate and the verdict must match FZF's.
  HistoryBuilder b;
  const int n = 16;
  for (int i = 0; i < n; ++i) b.write(i * 100, i * 100 + 50, i + 1);
  for (int i = 0; i + 1 < n; ++i) {
    b.read((i + 1) * 100 + 60, (i + 1) * 100 + 90, i + 1);
  }
  b.write(5000, 5050, n + 1);
  b.read(5060, 5090, n + 1);
  const History h = normalize(b.build());
  const Verdict v = check_2atomicity_lbt(h);
  EXPECT_GT(v.stats.candidates_tried, v.stats.epochs);
  EXPECT_EQ(v.outcome, check_2atomicity_fzf(h).outcome);
  ASSERT_TRUE(v.yes()) << v.reason;
  const WitnessCheck check = validate_witness(h, v.witness, 2);
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(Lbt, StatsReportEpochsAndCandidates) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  b.write(30, 40, 2);
  b.read(42, 50, 2);
  const Verdict v = check_2atomicity_lbt(b.build());
  ASSERT_TRUE(v.yes());
  EXPECT_GE(v.stats.epochs, 1u);
  EXPECT_GE(v.stats.candidates_tried, v.stats.epochs);
}

TEST(Lbt, RejectsAnomalousInput) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 9);
  VerifyOptions options;
  options.algorithm = Algorithm::lbt;
  EXPECT_EQ(verify_k_atomicity(b.build(), options).outcome,
            Outcome::precondition_failed);
}

TEST(Lbt, HighConcurrencyWorkloadYes) {
  Rng rng(5);
  const History h = gen::generate_high_concurrency(3, 6, rng);
  expect_yes_with_valid_witness(h);
}

TEST(Lbt, ReadConcurrentWithItsWriteYes) {
  HistoryBuilder b;
  b.write(0, 20, 1);
  b.read(10, 30, 1);  // overlaps its dictating write
  b.write(40, 50, 2);
  b.read(45, 60, 2);
  expect_yes_with_valid_witness(normalize(b.build()));
}

TEST(Lbt, LongAlternatingChainYes) {
  // w_i followed by r(w_i) placed after w_{i+1} starts: every read one
  // hop stale; classic rolling pattern, 2-atomic.
  HistoryBuilder b;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    b.write(i * 100, i * 100 + 50, i + 1);
  }
  for (int i = 0; i + 1 < n; ++i) {
    // read of w_i lands inside w_{i+1}'s successor gap
    b.read((i + 1) * 100 + 60, (i + 1) * 100 + 90, i + 1);
  }
  expect_yes_with_valid_witness(normalize(b.build()));
}

}  // namespace
}  // namespace kav
