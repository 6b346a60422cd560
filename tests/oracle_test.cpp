// Tests for the exhaustive oracle: known small instances for every k,
// witness validity, memoization equivalence, node limits, and the
// weighted variant's semantics (Section V).
#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/verify.h"
#include "core/witness.h"
#include "history/anomaly.h"
#include "history/history.h"

namespace kav {
namespace {

History forced_separation(int separation) {
  HistoryBuilder b;
  for (int i = 0; i <= separation; ++i) {
    b.write(i * 100, i * 100 + 50, i + 1);
  }
  b.read((separation + 1) * 100, (separation + 1) * 100 + 50, 1);
  return b.build();
}

TEST(Oracle, EmptyHistoryYes) {
  const Verdict r = oracle_is_k_atomic(History{}, 1);
  EXPECT_TRUE(r.yes());
  EXPECT_TRUE(r.witness.empty());
}

TEST(Oracle, AtomicPairYesForAllK) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  const History h = b.build();
  for (int k = 1; k <= 3; ++k) {
    const Verdict r = oracle_is_k_atomic(h, k);
    ASSERT_TRUE(r.yes()) << "k=" << k;
    EXPECT_TRUE(validate_witness(h, r.witness, k).ok());
  }
}

TEST(Oracle, ForcedSeparationThresholds) {
  // separation s => minimal k is exactly s + 1.
  for (int s = 0; s <= 3; ++s) {
    const History h = forced_separation(s);
    for (int k = 1; k <= s + 2; ++k) {
      const Verdict r = oracle_is_k_atomic(h, k);
      ASSERT_TRUE(r.decided());
      EXPECT_EQ(r.yes(), k >= s + 1) << "s=" << s << " k=" << k;
      if (r.yes()) {
        EXPECT_TRUE(validate_witness(h, r.witness, k).ok());
      }
    }
  }
}

TEST(Oracle, MonotoneInK) {
  HistoryBuilder b;
  b.write(0, 30, 1);
  b.write(10, 40, 2);
  b.write(20, 50, 3);
  b.read(35, 60, 1);
  b.read(45, 70, 2);
  const History h = normalize(b.build());
  bool seen_yes = false;
  for (int k = 1; k <= 4; ++k) {
    const Verdict r = oracle_is_k_atomic(h, k);
    ASSERT_TRUE(r.decided());
    if (seen_yes) {
      EXPECT_TRUE(r.yes()) << "monotonicity broken at k=" << k;
    }
    seen_yes = seen_yes || r.yes();
  }
  EXPECT_TRUE(seen_yes);
}

TEST(Oracle, MemoizationDoesNotChangeVerdict) {
  HistoryBuilder b;
  b.write(0, 30, 1);
  b.write(5, 35, 2);
  b.write(10, 40, 3);
  b.read(32, 50, 1);
  b.read(37, 55, 2);
  b.read(42, 60, 3);
  const History h = normalize(b.build());
  for (int k = 1; k <= 3; ++k) {
    OracleOptions with, without;
    without.memoize = false;
    const Verdict a = oracle_is_k_atomic(h, k, with);
    const Verdict b2 = oracle_is_k_atomic(h, k, without);
    ASSERT_TRUE(a.decided());
    ASSERT_TRUE(b2.decided());
    EXPECT_EQ(a.yes(), b2.yes()) << "k=" << k;
  }
}

TEST(Oracle, NodeLimitReportsUndecided) {
  HistoryBuilder b;
  for (int i = 0; i < 12; ++i) {
    b.write(i, 1000 + i, i + 1);  // 12 concurrent writes: 12! orders
  }
  b.read(1200, 1300, 1);
  OracleOptions options;
  options.node_limit = 5;
  const Verdict r = oracle_is_k_atomic(normalize(b.build()), 1, options);
  EXPECT_EQ(r.outcome, Outcome::undecided);
  EXPECT_FALSE(r.decided());
  EXPECT_EQ(r.stats.nodes, options.node_limit + 1);
}

TEST(Oracle, RejectsOversizedHistory) {
  HistoryBuilder b;
  for (int i = 0; i < 65; ++i) b.write(i * 10, i * 10 + 5, i + 1);
  const Verdict r = oracle_is_k_atomic(b.build(), 1);
  EXPECT_EQ(r.outcome, Outcome::precondition_failed);
}

TEST(Oracle, RejectsBadK) {
  EXPECT_EQ(oracle_is_k_atomic(History{}, 0).outcome,
            Outcome::precondition_failed);
}

// The oracle trusts its input; the gate in front of it refuses a hard
// anomaly.
TEST(Oracle, RejectsAnomalies) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 7);
  VerifyOptions options;
  options.algorithm = Algorithm::oracle;
  EXPECT_EQ(verify_k_atomicity(b.build(), options).outcome,
            Outcome::precondition_failed);
}

TEST(Oracle, ConcurrentWritesAllowAnyOrder) {
  // Three concurrent writes, read of any one of them is 1-atomic: the
  // dictating write can be ordered last.
  for (int target = 1; target <= 3; ++target) {
    HistoryBuilder b;
    b.write(0, 100, 1);
    b.write(5, 105, 2);
    b.write(10, 110, 3);
    b.read(120, 130, target);
    const Verdict r = oracle_is_k_atomic(normalize(b.build()), 1);
    EXPECT_TRUE(r.yes()) << "target=" << target;
  }
}

TEST(Oracle, TwoStaleSequentialReadsNeedK3) {
  // w1 w2 w3 sequential; reads of w1 and w2 after w3: the read of w1
  // has 2 intervening writes however ordered.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.write(40, 50, 3);
  b.read(60, 70, 1);
  b.read(80, 90, 2);
  const History h = b.build();
  EXPECT_TRUE(oracle_is_k_atomic(h, 2).no());
  EXPECT_TRUE(oracle_is_k_atomic(h, 3).yes());
}

// ---- weighted (k-WAV) ----

TEST(OracleWeighted, DictatingWriteWeightCounts) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  const History h = b.build();
  const std::vector<Weight> weights{4, 1};
  EXPECT_TRUE(oracle_is_k_atomic(h, 3, {}, weights).no());
  EXPECT_TRUE(oracle_is_k_atomic(h, 4, {}, weights).yes());
}

TEST(OracleWeighted, HeavyIntervenerForcedBetween) {
  // w1 < heavy < r(w1) in real time: separation weight = 1 + 10.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  const History h = b.build();
  const std::vector<Weight> weights{1, 10, 1};
  EXPECT_TRUE(oracle_is_k_atomic(h, 10, {}, weights).no());
  EXPECT_TRUE(oracle_is_k_atomic(h, 11, {}, weights).yes());
}

TEST(OracleWeighted, ConcurrentHeavyWriteCanBeDodged) {
  // The heavy write overlaps everything: order it before w1 or after
  // the read, so it never separates the pair.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(0, 60, 2);  // heavy, concurrent with all
  b.read(12, 20, 1);
  const History h = normalize(b.build());
  const std::vector<Weight> weights{1, 100, 1};
  EXPECT_TRUE(oracle_is_k_atomic(h, 1, {}, weights).yes());
}

TEST(OracleWeighted, AllWeightOneMatchesUnweighted) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.write(40, 50, 3);
  b.read(60, 70, 1);
  const History h = b.build();
  const std::vector<Weight> ones(h.size(), 1);
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(oracle_is_k_atomic(h, k).yes(),
              oracle_is_k_atomic(h, k, {}, ones).yes())
        << "k=" << k;
  }
}

TEST(OracleWeighted, RejectsNonPositiveWriteWeight) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  const std::vector<Weight> weights{0};
  EXPECT_EQ(oracle_is_k_atomic(b.build(), 2, {}, weights).outcome,
            Outcome::precondition_failed);
}

TEST(OracleWeighted, RejectsSizeMismatch) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  const std::vector<Weight> weights{1, 1};
  EXPECT_EQ(oracle_is_k_atomic(b.build(), 2, {}, weights).outcome,
            Outcome::precondition_failed);
}

}  // namespace
}  // namespace kav
