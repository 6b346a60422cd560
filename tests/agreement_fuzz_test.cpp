// Large-history agreement fuzzing. The oracle caps cross-validation at
// 64 operations; these sweeps push LBT and FZF to hundreds of
// operations where chunk structures, epoch chains and candidate sets
// get shapes the small histories cannot produce. The properties:
// the two deciders agree, YES witnesses validate independently, and
// verdicts survive normalization idempotence.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/analysis.h"
#include "core/fzf.h"
#include "core/lbt.h"
#include "core/verify.h"
#include "core/witness.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/anomaly.h"
#include "util/rng.h"

namespace kav {
namespace {

struct FuzzParam {
  std::uint64_t seed;
  int operations;
  double write_fraction;
  double staleness_decay;
  TimePoint horizon;  // generator time horizon: density knob
};

// One label per parameter, used both as the test name and as gtest's
// printed value (PrintTo), so listed names never show raw bytes.
std::string label(const FuzzParam& p) {
  return "s" + std::to_string(p.seed) + "_n" + std::to_string(p.operations) +
         "_h" + std::to_string(p.horizon);
}

void PrintTo(const FuzzParam& p, std::ostream* os) { *os << label(p); }

std::string param_name(const testing::TestParamInfo<FuzzParam>& info) {
  return label(info.param);
}

class AgreementFuzz : public testing::TestWithParam<FuzzParam> {
 protected:
  static constexpr int kTrials = 25;

  History next_history(Rng& rng) const {
    gen::RandomMixConfig config;
    config.operations = GetParam().operations;
    config.write_fraction = GetParam().write_fraction;
    config.staleness_decay = GetParam().staleness_decay;
    config.horizon = GetParam().horizon;
    return gen::generate_random_mix(config, rng);
  }
};

TEST_P(AgreementFuzz, LbtAndFzfAgreeWithValidWitnesses) {
  Rng rng(GetParam().seed);
  int yes = 0, no = 0;
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const Verdict lbt = check_2atomicity_lbt(h);
    const Verdict fzf = check_2atomicity_fzf(h);
    ASSERT_TRUE(lbt.decided() && fzf.decided());
    ASSERT_EQ(lbt.yes(), fzf.yes())
        << "disagreement at trial " << t << "\nlbt: " << lbt.reason
        << "\nfzf: " << fzf.reason;
    if (lbt.yes()) {
      ++yes;
      const WitnessCheck wl = validate_witness(h, lbt.witness, 2);
      ASSERT_TRUE(wl.ok()) << "LBT witness, trial " << t << ": " << wl.detail;
      const WitnessCheck wf = validate_witness(h, fzf.witness, 2);
      ASSERT_TRUE(wf.ok()) << "FZF witness, trial " << t << ": " << wf.detail;
    } else {
      ++no;
    }
  }
  // The family is chosen to produce both verdicts; a degenerate sweep
  // would silently weaken the property.
  EXPECT_GT(yes + no, 0);
}

TEST_P(AgreementFuzz, StalenessInjectionNeverRaisesVerdict) {
  // Rebinding a read to an older value can only make the history
  // harder to explain: a YES may become NO but never vice versa...
  // (not strictly monotone in theory -- changing the dictating write
  // changes two clusters -- so assert only decider agreement.)
  Rng rng(GetParam().seed + 2);
  for (int t = 0; t < kTrials / 2; ++t) {
    const History h = next_history(rng);
    const auto mutated = gen::inject_staler_read(h, rng);
    if (!mutated.has_value()) continue;
    if (!find_anomalies(*mutated).repairable()) continue;
    const History m = normalize(*mutated);
    EXPECT_EQ(check_2atomicity_lbt(m).yes(), check_2atomicity_fzf(m).yes())
        << "trial " << t;
  }
}

TEST_P(AgreementFuzz, ZoneProfileAutoDispatchNeverChangesVerdicts) {
  // The facade's auto_select at k = 2 routes each history to LBT or
  // FZF by its ZoneProfile. Both are exact, so whichever decider the
  // policy picks, the verdict must agree with *both* -- the dispatch
  // is a performance choice, never a semantic one. Beyond yes/no, the
  // dispatched verdict is the chosen decider's verdict field for field
  // (so a key's witness, reason, conflict and stats change exactly when
  // its decider does), every YES witness validates, and a NO with >= 3
  // backward clusters in a chunk keeps FZF's localized conflict.
  // (That the policy actually exercises both branches is pinned by the
  // deterministic AutoDispatchPolicy tests in tests/pipeline_test.cpp;
  // here the property is agreement on whatever it picks.)
  Rng rng(GetParam().seed + 3);
  for (int t = 0; t < kTrials; ++t) {
    const History h = next_history(rng);
    const ZoneProfile profile = zone_profile(h);
    const Algorithm chosen = select_2av_algorithm(profile);
    ASSERT_TRUE(chosen == Algorithm::lbt || chosen == Algorithm::fzf)
        << to_string(chosen);
    VerifyOptions options;
    options.k = 2;  // Algorithm::auto_select
    const Verdict dispatched = verify_k_atomicity(h, options);
    const Verdict lbt = check_2atomicity_lbt(h);
    const Verdict fzf = check_2atomicity_fzf(h);
    ASSERT_TRUE(dispatched.decided()) << dispatched.reason;
    ASSERT_EQ(dispatched.yes(), lbt.yes())
        << "trial " << t << ", dispatched to " << to_string(chosen);
    ASSERT_EQ(dispatched.yes(), fzf.yes())
        << "trial " << t << ", dispatched to " << to_string(chosen);
    const Verdict& picked = chosen == Algorithm::lbt ? lbt : fzf;
    EXPECT_EQ(dispatched.reason, picked.reason) << "trial " << t;
    EXPECT_EQ(dispatched.witness, picked.witness) << "trial " << t;
    EXPECT_EQ(dispatched.conflict, picked.conflict) << "trial " << t;
    EXPECT_TRUE(dispatched.stats == picked.stats) << "trial " << t;
    if (dispatched.yes()) {
      const WitnessCheck check = validate_witness(h, dispatched.witness, 2);
      ASSERT_TRUE(check.ok()) << check.detail;
    } else if (profile.max_backward_per_chunk >= 3) {
      EXPECT_EQ(chosen, Algorithm::fzf) << "trial " << t;
      EXPECT_FALSE(dispatched.conflict.empty()) << "trial " << t;
      EXPECT_EQ(dispatched.conflict, fzf.conflict) << "trial " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LargeHistories, AgreementFuzz,
    testing::Values(
        // Moderate density, n = 120.
        FuzzParam{1001, 120, 0.45, 0.5, 2000},
        // Dense (many overlaps): small horizon packs ops together.
        FuzzParam{2002, 150, 0.5, 0.5, 600},
        FuzzParam{2003, 200, 0.4, 0.6, 800},
        // Sparse, long histories: many chunks.
        FuzzParam{3003, 250, 0.5, 0.4, 20000},
        // Read-heavy and write-heavy extremes.
        FuzzParam{4004, 180, 0.2, 0.5, 3000},
        FuzzParam{5005, 180, 0.8, 0.5, 3000},
        // Deep staleness pressure.
        FuzzParam{6006, 160, 0.45, 0.85, 2500}),
    param_name);

}  // namespace
}  // namespace kav
