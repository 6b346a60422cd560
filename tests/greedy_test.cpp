// Tests for the general-k greedy checker (the Section VII open-problem
// explorer): soundness (YES always carries a valid witness), k=2
// completeness (equivalent to LBT), deadline-queue behaviour, and
// honest UNDECIDED answers.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "core/verify.h"
#include "core/witness.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(Greedy, EmptyHistoryYes) {
  EXPECT_TRUE(check_k_atomicity_greedy(History{}, 3).yes());
}

TEST(Greedy, RejectsBadK) {
  EXPECT_EQ(check_k_atomicity_greedy(History{}, 0).outcome,
            Outcome::precondition_failed);
}

TEST(Greedy, NeverAnswersNo) {
  // Even on clearly non-k-atomic inputs, the greedy checker must answer
  // undecided (it is incomplete, so NO is not in its vocabulary).
  const History h = gen::generate_forced_separation(3);
  const Verdict v = check_k_atomicity_greedy(h, 2);
  EXPECT_EQ(v.outcome, Outcome::undecided);
}

TEST(Greedy, FindsChainWitnessesAcrossK) {
  // forced separation s is (s+1)-atomic; greedy must find the witness.
  for (int s = 0; s <= 5; ++s) {
    const History h = gen::generate_forced_separation(s);
    const Verdict v = check_k_atomicity_greedy(h, s + 1);
    ASSERT_TRUE(v.yes()) << "s=" << s;
    EXPECT_TRUE(validate_witness(h, v.witness, s + 1).ok());
    // And with extra slack too.
    EXPECT_TRUE(check_k_atomicity_greedy(h, s + 3).yes());
  }
}

TEST(Greedy, MultipleDeadlinesInterleaved) {
  // Two writes become pending at the same step with different slacks:
  // w1 < w2 < w3 all sequential, reads of w1 and w2 after w3 interleave
  // with reads of w3. Minimal k is 3.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(20, 30, 2);
  b.write(40, 50, 3);
  b.read(60, 70, 2);  // one hop if ordered w1 w2 w3? no: w3 intervenes
  b.read(80, 90, 1);
  const History h = b.build();
  const Verdict truth3 = oracle_is_k_atomic(h, 3);
  ASSERT_TRUE(truth3.yes());
  EXPECT_TRUE(check_k_atomicity_greedy(h, 3).yes());
  EXPECT_EQ(check_k_atomicity_greedy(h, 2).outcome, Outcome::undecided);
}

TEST(Greedy, AgreesWithLbtOnK2RandomSweep) {
  Rng rng(424242);
  for (int t = 0; t < 400; ++t) {
    gen::RandomMixConfig config;
    config.operations = 11;
    const History h = gen::generate_random_mix(config, rng);
    const bool lbt_yes = check_2atomicity_lbt(h).yes();
    const Verdict greedy = check_k_atomicity_greedy(h, 2);
    ASSERT_EQ(greedy.yes(), lbt_yes) << "trial " << t;
    EXPECT_EQ(greedy.outcome, lbt_yes ? Outcome::yes : Outcome::undecided);
  }
}

TEST(Greedy, SoundOnRandomK3K4Sweep) {
  Rng rng(31337);
  int found = 0;
  for (int t = 0; t < 300; ++t) {
    gen::RandomMixConfig config;
    config.operations = 12;
    config.staleness_decay = 0.7;  // encourage deep staleness
    const History h = gen::generate_random_mix(config, rng);
    for (int k = 3; k <= 4; ++k) {
      const Verdict v = check_k_atomicity_greedy(h, k);
      if (v.yes()) {
        ++found;
        const Verdict truth = oracle_is_k_atomic(h, k);
        ASSERT_TRUE(truth.decided());
        EXPECT_TRUE(truth.yes()) << "unsound at trial " << t << " k=" << k;
      }
    }
  }
  EXPECT_GT(found, 0);  // the checker is not vacuous
}

TEST(Greedy, CompletenessRateOnKAtomicInstances) {
  // On histories k-atomic by construction, measure how often greedy
  // finds a witness; it should succeed on a solid majority (it is a
  // heuristic, not a decider, so we assert a floor rather than 100%).
  Rng rng(777);
  int found = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    gen::KAtomicConfig config;
    config.writes = 8;
    config.k = 3;
    const gen::GeneratedHistory g = gen::generate_k_atomic(config, rng);
    if (check_k_atomicity_greedy(g.history, 3).yes()) ++found;
  }
  EXPECT_GE(found, trials / 2) << "greedy found " << found << "/" << trials;
}

TEST(Greedy, RejectsAnomalousInput) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 9);
  VerifyOptions options;
  options.k = 3;
  options.algorithm = Algorithm::greedy;
  EXPECT_EQ(verify_k_atomicity(b.build(), options).outcome,
            Outcome::precondition_failed);
}

TEST(Greedy, HighConcurrencyWorkloadFoundAtK2) {
  Rng rng(9);
  const History h = gen::generate_high_concurrency(2, 5, rng);
  const Verdict v = check_k_atomicity_greedy(h, 2);
  ASSERT_TRUE(v.yes());
  EXPECT_TRUE(validate_witness(h, v.witness, 2).ok());
}

}  // namespace
}  // namespace kav
