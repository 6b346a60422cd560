// Tests for the Gibbons-Korach 1-AV baseline: the two zone conditions
// (no overlapping forward zones; no backward zone inside a forward
// zone), witness construction, and classic atomic/non-atomic examples.
#include <gtest/gtest.h>

#include "core/gk.h"
#include "core/verify.h"
#include "core/witness.h"
#include "history/anomaly.h"
#include "history/history.h"

namespace kav {
namespace {

void expect_yes_with_valid_witness(const History& h) {
  const Verdict v = check_1atomicity_gk(h);
  ASSERT_TRUE(v.yes()) << v.reason;
  const WitnessCheck check = validate_witness(h, v.witness, 1);
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(Gk, EmptyHistoryIsAtomic) {
  EXPECT_TRUE(check_1atomicity_gk(History{}).yes());
}

TEST(Gk, SequentialReadsOfLatestWriteAreAtomic) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  b.write(22, 30, 2);
  b.read(32, 40, 2);
  b.read(42, 50, 2);
  expect_yes_with_valid_witness(b.build());
}

TEST(Gk, StaleReadAfterNewerWriteIsNotAtomic) {
  // w1 < w2 < r(w1): the read returns a stale value with no
  // concurrency excuse. In zone terms, w2's read-free cluster is a
  // backward zone [20, 30] contained in w1's forward zone [10, 40].
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  const Verdict v = check_1atomicity_gk(b.build());
  EXPECT_TRUE(v.no());
  EXPECT_NE(v.reason.find("backward zone contained"), std::string::npos);
}

TEST(Gk, OverlappingForwardZonesRejectedAsSuch) {
  // Two clusters whose forward zones overlap: w1's zone [10, 40]
  // and w2's zone [30, 60].
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(40, 50, 1);
  b.write(25, 30, 2);
  b.read(60, 70, 2);
  const Verdict v = check_1atomicity_gk(b.build());
  EXPECT_TRUE(v.no());
  EXPECT_NE(v.reason.find("forward zones overlap"), std::string::npos);
}

TEST(Gk, ConcurrentReadMayReturnOldValue) {
  // The read overlaps w2, so returning w1's value is atomic (commit
  // the read before w2).
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(15, 40, 1);
  expect_yes_with_valid_witness(b.build());
}

TEST(Gk, BackwardZoneInsideForwardZoneIsNotAtomic) {
  // Forward zone from w1's cluster spans [10, 60]; w2's cluster forms a
  // backward zone strictly inside it.
  HistoryBuilder b;
  b.write(0, 10, 1);   // w1
  b.read(60, 70, 1);   // r(w1): forward zone [10, 60]
  b.write(20, 45, 2);  // w2
  b.read(25, 50, 2);   // r(w2): backward zone [25, 45]
  const Verdict v = check_1atomicity_gk(b.build());
  EXPECT_TRUE(v.no());
  EXPECT_NE(v.reason.find("backward zone contained"), std::string::npos);
}

TEST(Gk, BackwardZoneOverlappingForwardZoneBoundaryIsAtomic) {
  // Same shape but the backward zone pokes out of the forward zone:
  // order the backward cluster before or after the forward one.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(60, 70, 1);   // forward zone [10, 60]
  b.write(20, 80, 2);  // w2 extends past the forward zone
  b.read(25, 85, 2);   // backward zone [25, 80], not contained
  expect_yes_with_valid_witness(b.build());
}

TEST(Gk, WriteOnlyHistoryIsAtomic) {
  HistoryBuilder b;
  for (int i = 0; i < 6; ++i) {
    b.write(i * 7, i * 7 + 30, i + 1);  // heavily overlapping writes
  }
  expect_yes_with_valid_witness(normalize(b.build()));
}

TEST(Gk, ConcurrentWritesWithInterleavedReadsAtomic) {
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.write(5, 95, 2);
  b.read(50, 105, 1);  // overlaps both writes
  expect_yes_with_valid_witness(normalize(b.build()));
}

TEST(Gk, TwoDisjointForwardZonesAtomic) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 1);  // zone [10, 20]
  b.write(40, 50, 2);
  b.read(60, 70, 2);  // zone [50, 60]
  expect_yes_with_valid_witness(b.build());
}

TEST(Gk, RejectsAnomalousInput) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 99);
  VerifyOptions options;
  options.k = 1;
  options.algorithm = Algorithm::gk;
  const Verdict v = verify_k_atomicity(b.build(), options);
  EXPECT_EQ(v.outcome, Outcome::precondition_failed);
}

TEST(Gk, ChainOfOverlappingForwardZonesRejected) {
  // Forward zones [10,30] and [20,40] overlap: some read must be two
  // writes stale.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(30, 45, 1);   // zone [10, 30]
  b.write(15, 20, 2);  // finishes at 20
  b.read(40, 55, 2);   // zone [20, 40]
  EXPECT_TRUE(check_1atomicity_gk(normalize(b.build())).no());
}

TEST(Gk, ManyReadsPerClusterAtomic) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  for (int i = 0; i < 5; ++i) {
    b.read(12 + 10 * i, 20 + 10 * i, 1);
  }
  b.write(100, 110, 2);
  for (int i = 0; i < 5; ++i) {
    b.read(112 + 10 * i, 120 + 10 * i, 2);
  }
  expect_yes_with_valid_witness(normalize(b.build()));
}

}  // namespace
}  // namespace kav
