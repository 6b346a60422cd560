// The library's strongest correctness evidence: on thousands of seeded
// random histories, every decision procedure must agree with the
// exhaustive oracle --
//
//   GK      == oracle(k=1)            (the solved 1-AV baseline)
//   LBT     == oracle(k=2)            (Theorem 3.1)
//   FZF     == oracle(k=2)            (Theorem 4.5)
//   greedy  => oracle(k)   soundness  (YES implies k-atomic)
//   greedy(k=2) == LBT                (deadline queue degenerates to w')
//
// plus structural invariants: every YES carries an independently valid
// witness, k-atomicity is monotone in k, and verdicts are invariant
// under affine time rescaling.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "core/witness.h"
#include "gen/generators.h"
#include "history/anomaly.h"
#include "history/history.h"
#include "util/rng.h"

namespace kav {
namespace {

struct SweepParam {
  std::uint64_t seed;
  int operations;
  double write_fraction;
  double staleness_decay;
};

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.operations) + "_w" +
         std::to_string(static_cast<int>(info.param.write_fraction * 100)) +
         "_d" +
         std::to_string(static_cast<int>(info.param.staleness_decay * 100));
}

class CrossValidation : public testing::TestWithParam<SweepParam> {
 protected:
  // Each parameterized instance checks a batch of random histories so
  // the whole suite covers thousands of cases while staying fast.
  static constexpr int kTrials = 60;

  History next_history(Rng& rng) const {
    gen::RandomMixConfig config;
    config.operations = GetParam().operations;
    config.write_fraction = GetParam().write_fraction;
    config.staleness_decay = GetParam().staleness_decay;
    return gen::generate_random_mix(config, rng);
  }
};

TEST_P(CrossValidation, GkMatchesOracleK1) {
  Rng rng(GetParam().seed);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict truth = oracle_is_k_atomic(h, 1);
    ASSERT_TRUE(truth.decided());
    const Verdict gk = check_1atomicity_gk(h);
    ASSERT_TRUE(gk.yes() || gk.no()) << gk.reason;
    EXPECT_EQ(gk.yes(), truth.yes()) << "trial " << t;
    if (gk.yes()) {
      const WitnessCheck check = validate_witness(h, gk.witness, 1);
      EXPECT_TRUE(check.ok()) << check.detail;
    }
  }
}

TEST_P(CrossValidation, LbtMatchesOracleK2) {
  Rng rng(GetParam().seed + 1);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict truth = oracle_is_k_atomic(h, 2);
    ASSERT_TRUE(truth.decided());
    const Verdict lbt = check_2atomicity_lbt(h);
    ASSERT_TRUE(lbt.yes() || lbt.no()) << lbt.reason;
    EXPECT_EQ(lbt.yes(), truth.yes()) << "trial " << t;
    if (lbt.yes()) {
      const WitnessCheck check = validate_witness(h, lbt.witness, 2);
      EXPECT_TRUE(check.ok()) << check.detail;
    }
  }
}

TEST_P(CrossValidation, FzfMatchesOracleK2) {
  Rng rng(GetParam().seed + 2);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict truth = oracle_is_k_atomic(h, 2);
    ASSERT_TRUE(truth.decided());
    const Verdict fzf = check_2atomicity_fzf(h);
    ASSERT_TRUE(fzf.yes() || fzf.no()) << fzf.reason;
    EXPECT_EQ(fzf.yes(), truth.yes()) << "trial " << t;
    if (fzf.yes()) {
      const WitnessCheck check = validate_witness(h, fzf.witness, 2);
      EXPECT_TRUE(check.ok()) << check.detail;
    }
  }
}

TEST_P(CrossValidation, GreedyIsSoundAndCompleteForK2) {
  Rng rng(GetParam().seed + 3);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict lbt = check_2atomicity_lbt(h);
    const Verdict greedy = check_k_atomicity_greedy(h, 2);
    // For k = 2 the deadline queue is forced at every step, so the
    // greedy checker is complete and must agree exactly with LBT.
    EXPECT_EQ(greedy.yes(), lbt.yes()) << "trial " << t;
  }
}

TEST_P(CrossValidation, GreedySoundnessForK3) {
  Rng rng(GetParam().seed + 4);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict greedy = check_k_atomicity_greedy(h, 3);
    if (greedy.yes()) {
      const Verdict truth = oracle_is_k_atomic(h, 3);
      ASSERT_TRUE(truth.decided());
      EXPECT_TRUE(truth.yes()) << "greedy unsound at trial " << t;
      const WitnessCheck check = validate_witness(h, greedy.witness, 3);
      EXPECT_TRUE(check.ok()) << check.detail;
    }
  }
}

TEST_P(CrossValidation, MonotoneInK) {
  Rng rng(GetParam().seed + 5);
  for (int t = 0; t < kTrials / 2; ++t) {
    const History h = next_history(rng);
    bool previous_yes = false;
    for (int k = 1; k <= 4; ++k) {
      const Verdict r = oracle_is_k_atomic(h, k);
      ASSERT_TRUE(r.decided());
      if (previous_yes) {
        EXPECT_TRUE(r.yes()) << "monotonicity broken, trial " << t
                             << " k=" << k;
      }
      previous_yes = r.yes();
    }
  }
}

TEST_P(CrossValidation, VerdictInvariantUnderTimeRescaling) {
  Rng rng(GetParam().seed + 6);
  for (int t = 0; t < kTrials / 3; ++t) {
    const History h = next_history(rng);
    std::vector<Operation> scaled_ops = h.operations();
    for (Operation& op : scaled_ops) {
      op.start = op.start * 7 + 1000;
      op.finish = op.finish * 7 + 1000;
    }
    const History scaled(std::move(scaled_ops));
    EXPECT_EQ(check_2atomicity_fzf(h).yes(),
              check_2atomicity_fzf(scaled).yes())
        << "trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, CrossValidation,
    testing::Values(
        // Small, dense histories: many concurrent ops, mixed verdicts.
        SweepParam{101, 8, 0.5, 0.4}, SweepParam{202, 10, 0.5, 0.5},
        SweepParam{303, 12, 0.4, 0.6}, SweepParam{404, 12, 0.6, 0.3},
        // Read-heavy (few writes, lots of reads per cluster).
        SweepParam{505, 12, 0.25, 0.5}, SweepParam{606, 14, 0.2, 0.4},
        // Write-heavy (stale reads rare but write order constrained).
        SweepParam{707, 12, 0.8, 0.5},
        // Very stale (high decay: reads often several writes behind).
        SweepParam{808, 10, 0.5, 0.8}, SweepParam{909, 12, 0.45, 0.75}),
    param_name);

// Constructive YES instances: generate_k_atomic(k) must be accepted at
// level k by the exact deciders, and its intended order must validate.
struct ConstructiveParam {
  std::uint64_t seed;
  int writes;
  int k;
  double spread;
};

// One label per parameter, used both as the test name and as gtest's
// printed value (PrintTo), so listed names never show raw bytes.
std::string label(const ConstructiveParam& p) {
  return "seed" + std::to_string(p.seed) + "_m" + std::to_string(p.writes) +
         "_k" + std::to_string(p.k);
}

void PrintTo(const ConstructiveParam& p, std::ostream* os) {
  *os << label(p);
}

class ConstructiveSweep : public testing::TestWithParam<ConstructiveParam> {};

TEST_P(ConstructiveSweep, GeneratedHistoriesAreKAtomic) {
  Rng rng(GetParam().seed);
  for (int t = 0; t < 25; ++t) {
    gen::KAtomicConfig config;
    config.writes = GetParam().writes;
    config.k = GetParam().k;
    config.spread = GetParam().spread;
    const gen::GeneratedHistory g = gen::generate_k_atomic(config, rng);
    // The intended order is a valid k-atomic witness.
    const WitnessCheck intended =
        validate_witness(g.history, g.intended_order, config.k);
    ASSERT_TRUE(intended.ok()) << intended.detail;
    // The appropriate exact decider agrees.
    if (config.k == 1) {
      EXPECT_TRUE(check_1atomicity_gk(g.history).yes());
    } else if (config.k == 2) {
      EXPECT_TRUE(check_2atomicity_fzf(g.history).yes());
      EXPECT_TRUE(check_2atomicity_lbt(g.history).yes());
    } else if (g.history.size() <= 24) {
      const Verdict r = oracle_is_k_atomic(g.history, config.k);
      ASSERT_TRUE(r.decided());
      EXPECT_TRUE(r.yes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Constructive, ConstructiveSweep,
    testing::Values(ConstructiveParam{11, 6, 1, 0.5},
                    ConstructiveParam{22, 8, 1, 1.5},
                    ConstructiveParam{33, 6, 2, 0.5},
                    ConstructiveParam{44, 10, 2, 1.0},
                    ConstructiveParam{55, 30, 2, 2.0},
                    ConstructiveParam{66, 5, 3, 0.8},
                    ConstructiveParam{77, 6, 4, 1.2}),
    [](const testing::TestParamInfo<ConstructiveParam>& info) {
      return label(info.param);
    });

// Adversarial NO instances at scale: LBT and FZF agree on NO without
// needing the oracle.
TEST(CrossValidationAdversarial, DecidersAgreeOnAntiPatterns) {
  const std::vector<History> cases = {
      gen::generate_forced_separation(2),
      gen::generate_forced_separation(2, 5),
      gen::generate_forced_separation(3),
      gen::generate_property_p_triple(),
      gen::generate_property_p_triple(100),
      gen::generate_property_p_fan(3),
      gen::generate_property_p_fan(6),
      gen::generate_b3_chunk(3),
      gen::generate_b3_chunk(5),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_TRUE(check_2atomicity_lbt(cases[i]).no()) << "case " << i;
    EXPECT_TRUE(check_2atomicity_fzf(cases[i]).no()) << "case " << i;
    if (cases[i].size() <= 24) {
      EXPECT_TRUE(oracle_is_k_atomic(cases[i], 2).no()) << "case " << i;
    }
  }
}

// Forced separation s is exactly (s+1)-atomic: NO at k = s, YES at
// k = s + 1 (greedy finds it; oracle confirms).
TEST(CrossValidationAdversarial, ForcedSeparationThresholds) {
  for (int s = 1; s <= 4; ++s) {
    const History h = gen::generate_forced_separation(s);
    const Verdict at_s = oracle_is_k_atomic(h, s);
    const Verdict above = oracle_is_k_atomic(h, s + 1);
    ASSERT_TRUE(at_s.decided() && above.decided());
    EXPECT_TRUE(at_s.no()) << "s=" << s;
    EXPECT_TRUE(above.yes()) << "s=" << s;
    const Verdict greedy = check_k_atomicity_greedy(h, s + 1);
    EXPECT_TRUE(greedy.yes()) << "s=" << s;
  }
}

}  // namespace
}  // namespace kav
