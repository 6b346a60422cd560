// Tests for the verification facade: algorithm dispatch, automatic
// normalization, k-mismatch rejection, and multi-register locality
// (Section II-B).
#include <gtest/gtest.h>

#include "core/verify.h"
#include "core/witness.h"
#include "history/history.h"

namespace kav {
namespace {

History one_hop_history() {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.read(40, 50, 1);
  return b.build();  // 2-atomic, not 1-atomic
}

TEST(Verify, AutoSelectLadder) {
  const History h = one_hop_history();
  VerifyOptions options;
  options.k = 1;
  EXPECT_TRUE(verify_k_atomicity(h, options).no());
  options.k = 2;
  EXPECT_TRUE(verify_k_atomicity(h, options).yes());
  options.k = 3;
  EXPECT_TRUE(verify_k_atomicity(h, options).yes());
}

TEST(Verify, ExplicitAlgorithmsAgree) {
  const History h = one_hop_history();
  for (Algorithm algorithm : {Algorithm::lbt, Algorithm::lbt_naive,
                              Algorithm::fzf, Algorithm::greedy,
                              Algorithm::oracle}) {
    VerifyOptions options;
    options.k = 2;
    options.algorithm = algorithm;
    const Verdict v = verify_k_atomicity(h, options);
    EXPECT_TRUE(v.yes()) << to_string(algorithm) << ": " << v.reason;
    EXPECT_TRUE(validate_witness(h, v.witness, 2).ok());
  }
}

TEST(Verify, KMismatchRejected) {
  const History h = one_hop_history();
  VerifyOptions options;
  options.k = 3;
  options.algorithm = Algorithm::fzf;
  EXPECT_EQ(verify_k_atomicity(h, options).outcome,
            Outcome::precondition_failed);
  options.algorithm = Algorithm::gk;
  EXPECT_EQ(verify_k_atomicity(h, options).outcome,
            Outcome::precondition_failed);
}

TEST(Verify, BadKRejected) {
  VerifyOptions options;
  options.k = 0;
  EXPECT_EQ(verify_k_atomicity(History{}, options).outcome,
            Outcome::precondition_failed);
}

TEST(Verify, NormalizesRepairableInputByDefault) {
  HistoryBuilder b;
  b.write(0, 100, 1);  // outlives its read: repairable
  b.read(5, 50, 1);
  const History h = b.build();
  VerifyOptions options;
  options.k = 1;
  EXPECT_TRUE(verify_k_atomicity(h, options).yes());
  options.normalize = false;
  EXPECT_EQ(verify_k_atomicity(h, options).outcome,
            Outcome::precondition_failed);
}

TEST(Verify, HardAnomaliesAlwaysRejected) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 9);
  const Verdict v = verify_k_atomicity(b.build());
  EXPECT_EQ(v.outcome, Outcome::precondition_failed);
  EXPECT_NE(v.reason.find("hard anomalies"), std::string::npos);
}

TEST(Verify, AutoKThreeUsesOracleThenGreedy) {
  // Small history: oracle decides exactly (NO at k=3 impossible here,
  // so use a separation-3 chain: NO at 3, YES at 4).
  HistoryBuilder b;
  for (int i = 0; i < 4; ++i) b.write(i * 100, i * 100 + 50, i + 1);
  b.read(400, 450, 1);
  const History h = b.build();
  VerifyOptions options;
  options.k = 3;
  EXPECT_TRUE(verify_k_atomicity(h, options).no());
  options.k = 4;
  EXPECT_TRUE(verify_k_atomicity(h, options).yes());
}

TEST(VerifyKeyed, LocalitySplitsByKey) {
  KeyedTrace trace;
  // Key a: atomic. Key b: one-hop stale (2-atomic only).
  trace.add("a", make_write(0, 10, 1));
  trace.add("a", make_read(12, 20, 1));
  trace.add("b", make_write(0, 10, 1));
  trace.add("b", make_write(20, 30, 2));
  trace.add("b", make_read(40, 50, 1));
  VerifyOptions options;
  options.k = 1;
  const Report report = verify_keyed_trace(trace, options);
  ASSERT_EQ(report.per_key.size(), 2u);
  EXPECT_TRUE(report.per_key.at("a").verdict.yes());
  EXPECT_TRUE(report.per_key.at("b").verdict.no());
  EXPECT_FALSE(report.all_yes());
  EXPECT_EQ(report.count(Outcome::yes), 1u);
  EXPECT_EQ(report.count(Outcome::no), 1u);

  options.k = 2;
  const Report report2 = verify_keyed_trace(trace, options);
  EXPECT_TRUE(report2.all_yes());
}

TEST(VerifyKeyed, DuplicateValuesAcrossKeysAreFine) {
  // Value uniqueness is per register (Section II-C): the same value on
  // different keys must not be a duplicate-value anomaly.
  KeyedTrace trace;
  trace.add("x", make_write(0, 10, 42));
  trace.add("y", make_write(0, 10, 42));
  trace.add("x", make_read(12, 20, 42));
  trace.add("y", make_read(12, 20, 42));
  const Report report = verify_keyed_trace(trace);
  EXPECT_TRUE(report.all_yes()) << report.summary();
}

TEST(VerifyKeyed, SummaryMentionsCounts) {
  KeyedTrace trace;
  trace.add("a", make_write(0, 10, 1));
  trace.add("a", make_read(12, 20, 1));
  const Report report = verify_keyed_trace(trace);
  EXPECT_NE(report.summary().find("1/1"), std::string::npos);
}

}  // namespace
}  // namespace kav
