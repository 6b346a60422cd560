// Seeded differential fuzzing of the sharded pipeline: randomized
// multi-key traces -- organic mixes, k-atomic-by-construction shards,
// mutator-damaged shards (repairable and hard anomalies alike) -- must
// produce a Report from kav::Engine's sharded path that is
// field-for-field identical to the serial verify_keyed_trace reference,
// for every thread count tried.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure, so any finding reproduces with
//   KAV_FUZZ_SEED=<seed> ./pipeline_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/keyed_trace.h"
#include "util/rng.h"

namespace kav {
namespace {

constexpr std::uint64_t kDefaultSeed = 0x5eed2026ULL;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("KAV_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

// One random per-key shard: an organic mix, a k-atomic-by-construction
// history, or a mutated variant (which may carry repairable or hard
// anomalies -- the pipeline must agree with the serial path on those
// verdicts too, including precondition_failed).
History random_shard(Rng& rng) {
  const std::uint64_t kind = rng.bounded(4);
  if (kind == 0) {
    gen::KAtomicConfig config;
    config.writes = 3 + static_cast<int>(rng.bounded(10));
    config.k = 1 + static_cast<int>(rng.bounded(3));
    return gen::generate_k_atomic(config, rng).history;
  }
  gen::RandomMixConfig config;
  config.operations = 6 + static_cast<int>(rng.bounded(28));
  config.write_fraction = 0.25 + 0.5 * rng.uniform_double();
  config.staleness_decay = 0.3 + 0.5 * rng.uniform_double();
  config.horizon = 400 + static_cast<TimePoint>(rng.bounded(4000));
  History h = gen::generate_random_mix(config, rng);
  if (kind == 2) {
    h = gen::jitter_timestamps(h, 1 + static_cast<TimePoint>(rng.bounded(8)),
                               rng);
  } else if (kind == 3) {
    if (auto mutated = gen::inject_staler_read(h, rng)) h = *mutated;
    if (h.size() > 2 && rng.bernoulli(0.3)) {
      // May orphan dictated reads: a hard anomaly both paths must
      // report identically.
      h = gen::drop_operation(h, static_cast<OpId>(rng.bounded(h.size())));
    }
  }
  return h;
}

void expect_reports_identical(const Report& serial, const Report& parallel) {
  ASSERT_EQ(serial.per_key.size(), parallel.per_key.size());
  auto its = serial.per_key.begin();
  auto itp = parallel.per_key.begin();
  for (; its != serial.per_key.end(); ++its, ++itp) {
    SCOPED_TRACE("key " + its->first);
    ASSERT_EQ(its->first, itp->first);
    const Verdict& vs = its->second.verdict;
    const Verdict& vp = itp->second.verdict;
    ASSERT_EQ(vs.outcome, vp.outcome) << "serial: " << vs.reason
                                      << "\nparallel: " << vp.reason;
    ASSERT_EQ(vs.witness, vp.witness);
    ASSERT_EQ(vs.reason, vp.reason);
    ASSERT_EQ(vs.conflict, vp.conflict);
    // Defaulted operator== covers every counter, present and future.
    ASSERT_TRUE(vs.stats == vp.stats);
  }
  ASSERT_TRUE(serial.verify_totals == parallel.verify_totals);
}

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

TEST(PipelineFuzz, ParallelReportIdenticalToSerial) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);
  constexpr int kTrials = 30;
  Engine two(engine_options(2));
  Engine five(engine_options(5));
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")");
    const int keys = 1 + static_cast<int>(rng.bounded(10));
    KeyedTrace trace;
    for (int k = 0; k < keys; ++k) {
      const History shard = random_shard(rng);
      const std::string key = "k" + std::to_string(k);
      for (const Operation& op : shard.operations()) trace.add(key, op);
    }
    RunOptions run;
    run.verify = VerifyOptions{};
    run.verify->k = 1 + static_cast<int>(rng.bounded(3));  // k in {1, 2, 3}

    const Report serial = verify_keyed_trace(trace, *run.verify);
    for (Engine* engine : {&two, &five}) {
      SCOPED_TRACE("threads " + std::to_string(engine->thread_count()));
      expect_reports_identical(serial, engine->verify(trace, run));
    }
  }
}

TEST(PipelineFuzz, FailFastAlwaysSurfacesANo) {
  // Which shards get skipped under fail-fast depends on scheduling, but
  // two properties hold on every run: at least one NO reaches the
  // report, and every skip is labelled as a fail-fast skip.
  const std::uint64_t seed = fuzz_seed() ^ 0xfa57UL;
  Rng rng(seed);
  EngineOptions options = engine_options(4);
  options.verify.k = 2;
  options.fail_fast = true;
  Engine engine(options);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (fail-fast trial " + std::to_string(trial) + ")");
    KeyedTrace trace;
    const int keys = 3 + static_cast<int>(rng.bounded(5));
    for (int k = 0; k < keys; ++k) {
      const History shard = random_shard(rng);
      for (const Operation& op : shard.operations()) {
        trace.add("k" + std::to_string(k), op);
      }
    }
    // Plant a guaranteed 2-AV violation on one random key.
    const History bad = gen::generate_forced_separation(2);
    const std::string bad_key =
        "k" + std::to_string(rng.bounded(static_cast<std::uint64_t>(keys)));
    KeyedTrace planted;
    for (const KeyedOperation& kop : trace.ops) {
      if (kop.key != bad_key) planted.add(kop.key, kop.op);
    }
    for (const Operation& op : bad.operations()) planted.add(bad_key, op);

    const Report report = engine.verify(planted);
    EXPECT_GE(report.count(Outcome::no), 1u);
    const Verdict& planted_verdict = report.per_key.at(bad_key).verdict;
    EXPECT_TRUE(planted_verdict.no() ||
                planted_verdict.outcome == Outcome::undecided);
    for (const auto& [key, result] : report.per_key) {
      const Verdict& verdict = result.verdict;
      if (verdict.outcome == Outcome::undecided) {
        EXPECT_NE(verdict.reason.find("fail-fast"), std::string::npos)
            << key << ": " << verdict.reason;
      }
    }
  }
}

}  // namespace
}  // namespace kav
