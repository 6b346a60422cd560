// Tests for Section V: the weighted k-AV problem, the bin-packing
// substrate, and an executable check of Theorem 5.1's reduction --
// bin_packing_feasible(I) <=> kwav(reduce(I)) on exhaustive small and
// randomized instances.
#include <gtest/gtest.h>

#include "core/kwav.h"
#include "core/witness.h"
#include "history/anomaly.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(BinPacking, TrivialCases) {
  EXPECT_TRUE(bin_packing_feasible({{}, 10, 0}));
  EXPECT_TRUE(bin_packing_feasible({{5}, 5, 1}));
  EXPECT_FALSE(bin_packing_feasible({{6}, 5, 1}));
  EXPECT_FALSE(bin_packing_feasible({{1}, 5, 0}));
}

TEST(BinPacking, KnownInstances) {
  // 4+4+4 into two bins of 6: infeasible (12 <= 12 but 4+4 > 6).
  EXPECT_FALSE(bin_packing_feasible({{4, 4, 4}, 6, 2}));
  // 4+2, 4+2 into two bins of 6: feasible.
  EXPECT_TRUE(bin_packing_feasible({{4, 4, 2, 2}, 6, 2}));
  // Classic: {7,6,5,4,3,2,1} capacity 10, 3 bins: 28 total > 30? no,
  // 28 <= 30; 7+3, 6+4, 5+2+1... feasible.
  EXPECT_TRUE(bin_packing_feasible({{7, 6, 5, 4, 3, 2, 1}, 10, 3}));
  // Same items, 2 bins of 14: 28 = 28 exactly; 7+6+1, 5+4+3+2: feasible.
  EXPECT_TRUE(bin_packing_feasible({{7, 6, 5, 4, 3, 2, 1}, 14, 2}));
  // 3x5 into 2 bins of 9: infeasible.
  EXPECT_FALSE(bin_packing_feasible({{5, 5, 5}, 9, 2}));
}

TEST(BinPacking, RejectsNonPositiveSizes) {
  EXPECT_THROW(bin_packing_feasible({{0}, 5, 1}), std::invalid_argument);
}

TEST(FirstFitDecreasing, MatchesKnownBounds) {
  const std::vector<Weight> sizes{7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(first_fit_decreasing_bins(sizes, 10), 3);
  EXPECT_EQ(first_fit_decreasing_bins(sizes, 28), 1);
  EXPECT_EQ(first_fit_decreasing_bins({}, 10), 0);
  EXPECT_THROW(first_fit_decreasing_bins({{11}}, 10), std::invalid_argument);
}

TEST(FirstFitDecreasing, NeverBeatsExact) {
  Rng rng(55);
  for (int t = 0; t < 60; ++t) {
    const int n = 2 + static_cast<int>(rng.bounded(6));
    std::vector<Weight> sizes;
    for (int i = 0; i < n; ++i) sizes.push_back(1 + rng.uniform(0, 8));
    const Weight capacity = 10;
    const int ffd = first_fit_decreasing_bins(sizes, capacity);
    // FFD uses ffd bins: instance must be feasible with ffd bins and
    // infeasible with fewer only if exact agrees.
    EXPECT_TRUE(bin_packing_feasible({sizes, capacity, ffd}));
    if (ffd > 1) {
      // Exact may fit in fewer bins, but never more than FFD.
      int exact = ffd;
      while (exact > 1 &&
             bin_packing_feasible({sizes, capacity, exact - 1})) {
        --exact;
      }
      EXPECT_LE(exact, ffd);
    }
  }
}

TEST(KwavReduction, LayoutMatchesFigure5) {
  const BinPackingInstance instance{{3, 2}, 4, 2};
  const KwavReduction red = reduce_bin_packing_to_kwav(instance);
  // m = 2 bins: short writes w1..w3, short reads r1..r2, 2 long writes.
  EXPECT_EQ(red.short_writes.size(), 3u);
  EXPECT_EQ(red.short_reads.size(), 2u);
  EXPECT_EQ(red.long_writes.size(), 2u);
  EXPECT_EQ(red.k, 6);  // B + 2
  const History& h = red.instance.history;
  EXPECT_TRUE(find_anomalies(h).empty());

  // Short ops are totally ordered: w1 w2 r1 w3 r2.
  const Operation& w1 = h.op(red.short_writes[0]);
  const Operation& w2 = h.op(red.short_writes[1]);
  const Operation& r1 = h.op(red.short_reads[0]);
  const Operation& w3 = h.op(red.short_writes[2]);
  const Operation& r2 = h.op(red.short_reads[1]);
  EXPECT_TRUE(w1.precedes(w2));
  EXPECT_TRUE(w2.precedes(r1));
  EXPECT_TRUE(r1.precedes(w3));
  EXPECT_TRUE(w3.precedes(r2));

  // r(i) is dictated by w(i).
  EXPECT_EQ(h.dictating_write(red.short_reads[0]), red.short_writes[0]);
  EXPECT_EQ(h.dictating_write(red.short_reads[1]), red.short_writes[1]);

  // Long writes: forced after w1 and before w(m+1), weights = sizes.
  for (std::size_t j = 0; j < red.long_writes.size(); ++j) {
    const Operation& lw = h.op(red.long_writes[j]);
    EXPECT_TRUE(w1.precedes(lw));
    EXPECT_TRUE(lw.precedes(w3));
    EXPECT_EQ(red.instance.weights[red.long_writes[j]],
              instance.sizes[j]);
    EXPECT_TRUE(h.dictated_reads(red.long_writes[j]).empty());
  }
}

void expect_reduction_equivalence(const BinPackingInstance& instance) {
  const bool packing = bin_packing_feasible(instance);
  const KwavReduction red = reduce_bin_packing_to_kwav(instance);
  const Verdict kwav = check_weighted_k_atomicity(red.instance, red.k);
  ASSERT_TRUE(kwav.decided()) << "oracle exhausted budget";
  EXPECT_EQ(packing, kwav.yes())
      << "bin packing says " << packing << " on capacity "
      << instance.capacity << " bins " << instance.bins;
  if (kwav.yes()) {
    const WitnessCheck check = validate_weighted_witness(
        red.instance.history, kwav.witness, red.instance.weights, red.k);
    EXPECT_TRUE(check.ok()) << check.detail;
  }
}

TEST(KwavReduction, Theorem51OnKnownInstances) {
  expect_reduction_equivalence({{4, 4, 4}, 6, 2});        // infeasible
  expect_reduction_equivalence({{4, 4, 2, 2}, 6, 2});     // feasible
  expect_reduction_equivalence({{5, 5, 5}, 9, 2});        // infeasible
  expect_reduction_equivalence({{5, 4}, 9, 1});           // feasible
  expect_reduction_equivalence({{5, 5}, 9, 1});           // infeasible
  expect_reduction_equivalence({{1, 1, 1, 1}, 2, 2});     // feasible
  expect_reduction_equivalence({{2, 2, 2, 1}, 3, 2});     // infeasible
}

TEST(KwavReduction, Theorem51RandomizedEquivalence) {
  Rng rng(808);
  for (int t = 0; t < 40; ++t) {
    BinPackingInstance instance;
    const int n = 2 + static_cast<int>(rng.bounded(4));
    for (int i = 0; i < n; ++i) {
      instance.sizes.push_back(1 + rng.uniform(0, 5));
    }
    instance.capacity = 3 + rng.uniform(0, 5);
    instance.bins = 1 + static_cast<int>(rng.bounded(3));
    // Keep the oracle's search space small: skip degenerate giants.
    bool oversized = false;
    for (Weight s : instance.sizes) oversized |= s > instance.capacity;
    if (oversized) continue;
    expect_reduction_equivalence(instance);
  }
}

TEST(KwavReduction, SingleBinDegenerateCase) {
  // m = 1: sequence w1 w2 r1; all items must fit one bin.
  expect_reduction_equivalence({{2, 2}, 4, 1});  // feasible
  expect_reduction_equivalence({{3, 2}, 4, 1});  // infeasible
}

TEST(KwavReduction, RejectsBadInstances) {
  EXPECT_THROW(reduce_bin_packing_to_kwav({{1}, 3, 0}),
               std::invalid_argument);
  EXPECT_THROW(reduce_bin_packing_to_kwav({{0}, 3, 1}),
               std::invalid_argument);
}

TEST(Kwav, WeightedHistoryDirectUse) {
  // Important writes (weight 3) vs unimportant (weight 1), Section V's
  // motivating use: the read tolerates many unimportant writes but few
  // important ones.
  HistoryBuilder b;
  const OpId w1 = b.write(0, 10, 1);
  b.write(20, 30, 2);   // unimportant
  b.write(40, 50, 3);   // unimportant
  b.read(60, 70, 1);    // stale by two unimportant writes
  const History h = b.build();
  (void)w1;
  WeightedHistory light{h, {1, 1, 1, 0}};
  WeightedHistory heavy{h, {1, 3, 3, 0}};
  // Unimportant: separation weight 1+1+1 = 3.
  EXPECT_TRUE(check_weighted_k_atomicity(light, 3).yes());
  EXPECT_TRUE(check_weighted_k_atomicity(light, 2).no());
  // Important interveners: 1+3+3 = 7.
  EXPECT_TRUE(check_weighted_k_atomicity(heavy, 7).yes());
  EXPECT_TRUE(check_weighted_k_atomicity(heavy, 6).no());
}

// check_weighted_k_atomicity is the one front door for weighted
// histories: it refuses a hard anomaly and normalizes repairable ones
// (ids, and so weights, survive normalization).
TEST(Kwav, GateRefusesHardAnomaliesAndNormalizesRepairable) {
  HistoryBuilder hard;
  hard.write(0, 10, 1);
  hard.read(20, 30, 9);  // no dictating write
  const Verdict refused =
      check_weighted_k_atomicity({hard.build(), {1, 1}}, 3);
  EXPECT_EQ(refused.outcome, Outcome::precondition_failed);
  EXPECT_NE(refused.reason.find("hard anomalies"), std::string::npos)
      << refused.reason;

  HistoryBuilder tie;
  tie.write(0, 10, 1);
  tie.write(20, 30, 2);
  tie.read(40, 50, 1);  // separated from w1 by w2: weight 1 + 4
  tie.read(50, 60, 2);  // starts as the first read finishes: a tie
  const WeightedHistory tied{tie.build(), {1, 4, 0, 0}};
  ASSERT_FALSE(is_normalized(tied.history));
  EXPECT_TRUE(check_weighted_k_atomicity(tied, 5).yes());
  EXPECT_TRUE(check_weighted_k_atomicity(tied, 4).no());
}

}  // namespace
}  // namespace kav
