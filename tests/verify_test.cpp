// Tests for the verification facade: algorithm dispatch, automatic
// normalization, k-mismatch rejection, and multi-register locality
// (Section II-B).
#include <gtest/gtest.h>

#include <string>

#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "core/verify.h"
#include "core/witness.h"
#include "history/anomaly.h"
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

// The gate in front of every decider, over all seven Algorithm values:
// a hard anomaly and an unrepaired repairable history are refused with
// the gate's reason, and a repaired history gets exactly the verdict
// the algorithm's decider returns on normalize(h).
class VerifyGate : public testing::TestWithParam<Algorithm> {
 protected:
  static int k_for(Algorithm algorithm) {
    switch (algorithm) {
      case Algorithm::gk:
        return 1;
      case Algorithm::greedy:
      case Algorithm::oracle:
        return 3;
      default:
        return 2;
    }
  }

  static Verdict decide(const History& h, Algorithm algorithm, int k) {
    switch (algorithm) {
      case Algorithm::gk:
        return check_1atomicity_gk(h);
      case Algorithm::lbt:
        return check_2atomicity_lbt(h);
      case Algorithm::lbt_naive: {
        LbtOptions naive;
        naive.iterative_deepening = false;
        return check_2atomicity_lbt(h, naive);
      }
      case Algorithm::fzf:
        return check_2atomicity_fzf(h);
      case Algorithm::greedy:
        return check_k_atomicity_greedy(h, k);
      case Algorithm::oracle:
        return oracle_is_k_atomic(h, k);
      case Algorithm::auto_select:
        break;
    }
    VerifyOptions options;  // h is normalized: the gate passes it as is
    options.k = k;
    return verify_k_atomicity(h, options);
  }

  VerifyOptions options() const {
    VerifyOptions options;
    options.k = k_for(GetParam());
    options.algorithm = GetParam();
    return options;
  }
};

TEST_P(VerifyGate, HardAnomalyIsRefusedWithTheGatesReason) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 1);
  b.read(40, 50, 9);  // no dictating write
  const Verdict v = verify_k_atomicity(b.build(), options());
  EXPECT_EQ(v.outcome, Outcome::precondition_failed);
  EXPECT_EQ(v.reason.rfind("history has hard anomalies: ", 0), 0u)
      << v.reason;
}

TEST_P(VerifyGate, RepairableHistoryIsRefusedOrRepaired) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(10, 20, 1);  // starts as its write finishes: a duplicate
  b.write(15, 60, 2);  // outlives its dictated read
  b.read(30, 40, 2);
  b.read(70, 80, 1);  // one write stale
  const History h = b.build();
  VerifyOptions refuse = options();
  refuse.normalize = false;
  const Verdict refused = verify_k_atomicity(h, refuse);
  EXPECT_EQ(refused.outcome, Outcome::precondition_failed);
  EXPECT_EQ(refused.reason.rfind("history has repairable anomalies", 0), 0u)
      << refused.reason;

  const Verdict repaired = verify_k_atomicity(h, options());
  const Verdict expected =
      decide(normalize(h), GetParam(), k_for(GetParam()));
  EXPECT_EQ(repaired.outcome, expected.outcome) << repaired.reason;
  EXPECT_EQ(repaired.reason, expected.reason);
  EXPECT_EQ(repaired.witness, expected.witness);
  EXPECT_EQ(repaired.conflict, expected.conflict);
  EXPECT_EQ(repaired.stats, expected.stats);
  EXPECT_NE(repaired.outcome, Outcome::precondition_failed);
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgorithm, VerifyGate,
    testing::Values(Algorithm::auto_select, Algorithm::gk, Algorithm::lbt,
                    Algorithm::lbt_naive, Algorithm::fzf, Algorithm::greedy,
                    Algorithm::oracle),
    [](const testing::TestParamInfo<Algorithm>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

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
