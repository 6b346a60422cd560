// Differential fuzzing of the O(n) precondition classifier.
//
// verify_k_atomicity and normalize() decide whether a history is clean,
// repairable or hard with detail::has_hard_anomaly + is_normalized, and
// run find_anomalies only to explain a failure. This suite pins both to
// the find_anomalies-based logic they replaced, kept verbatim in
// tests/reference_preconditions.h, over mutated, jittered and damaged
// generator histories, raw-clock sloppy-quorum keys, clean generator
// histories, and one hand-built history per AnomalyKind -- each at
// k in {1, 2, 3} with normalize on and off. Verdicts must agree bit for
// bit (outcome, reason, witness, conflict, stats); normalize() must
// throw on the same inputs with the same message and otherwise return
// the same operations.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/verify.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/anomaly.h"
#include "history/keyed_trace.h"
#include "quorum/sim.h"
#include "reference_preconditions.h"
#include "util/rng.h"

namespace kav {
namespace {

struct Tally {
  int histories = 0;
  int clean = 0;
  int repairable = 0;
  int hard = 0;
  int kinds_seen[5] = {};
};

std::string normalize_outcome(const History& history,
                              History (*fn)(const History&),
                              std::vector<Operation>& out) {
  try {
    const History normalized = fn(history);
    out = normalized.operations();
    return {};
  } catch (const std::invalid_argument& e) {
    return std::string("threw: ") + e.what();
  }
}

// Runs one history through both sides at every (k, normalize) setting.
void check(const History& history, const std::string& context, Tally& tally) {
  SCOPED_TRACE(context);
  ++tally.histories;
  const AnomalyReport report = find_anomalies(history);
  if (report.empty()) {
    ++tally.clean;
  } else if (report.repairable()) {
    ++tally.repairable;
  } else {
    ++tally.hard;
  }
  for (const Anomaly& anomaly : report.anomalies) {
    ++tally.kinds_seen[static_cast<int>(anomaly.kind)];
  }
  ASSERT_EQ(detail::has_hard_anomaly(history), !report.repairable());

  for (const bool repair : {true, false}) {
    for (const int k : {1, 2, 3}) {
      SCOPED_TRACE("k " + std::to_string(k) + " normalize " +
                   std::to_string(repair));
      VerifyOptions options;
      options.k = k;
      options.normalize = repair;
      const Verdict want = reference::verify_k_atomicity(history, options);
      const Verdict got = verify_k_atomicity(history, options);
      ASSERT_EQ(got.outcome, want.outcome) << "want: " << want.reason
                                           << "\ngot: " << got.reason;
      ASSERT_EQ(got.reason, want.reason);
      ASSERT_EQ(got.witness, want.witness);
      ASSERT_EQ(got.conflict, want.conflict);
      // Defaulted operator== covers every counter, present and future.
      ASSERT_TRUE(got.stats == want.stats);
    }
  }

  std::vector<Operation> want_ops, got_ops;
  const std::string want =
      normalize_outcome(history, &reference::normalize, want_ops);
  const std::string got = normalize_outcome(history, &normalize, got_ops);
  ASSERT_EQ(got, want);
  ASSERT_EQ(got_ops, want_ops);
}

History random_mix(Rng& rng) {
  gen::RandomMixConfig config;
  config.operations = 6 + static_cast<int>(rng.bounded(40));
  config.write_fraction = 0.3 + 0.4 * rng.uniform_double();
  config.staleness_decay = 0.3 + 0.5 * rng.uniform_double();
  config.horizon = 200 + static_cast<TimePoint>(rng.bounded(2000));
  return gen::generate_random_mix(config, rng);
}

TEST(ClassifierDifferential, GeneratorHistories) {
  Rng rng(0xc1a55);
  Tally tally;
  for (int trial = 0; trial < 1000; ++trial) {
    gen::KAtomicConfig config;
    config.writes = 2 + static_cast<int>(rng.bounded(14));
    config.k = 1 + static_cast<int>(rng.bounded(3));
    config.spread = 0.3 + rng.uniform_double();
    check(gen::generate_k_atomic(config, rng).history,
          "k-atomic trial " + std::to_string(trial), tally);
    check(random_mix(rng), "mix trial " + std::to_string(trial), tally);
  }
  for (int c = 3; c <= 6; ++c) {
    check(gen::generate_high_concurrency(3, c, rng),
          "high concurrency c " + std::to_string(c), tally);
  }
  for (int separation = 1; separation <= 4; ++separation) {
    check(gen::generate_forced_separation(separation, 2),
          "forced separation " + std::to_string(separation), tally);
  }
  check(gen::generate_property_p_triple(), "property P triple", tally);
  check(gen::generate_property_p_fan(4), "property P fan", tally);
  check(gen::generate_b3_chunk(4), "b3 chunk", tally);
  EXPECT_GT(tally.clean, 2000);
  RecordProperty("histories", tally.histories);
  RecordProperty("clean", tally.clean);
}

// Every mutator, alone and stacked, so clean, repairable and hard
// inputs (and hard inputs that are also unnormalized) all occur.
TEST(ClassifierDifferential, MutatedHistories) {
  Rng rng(0xda3a6e);
  Tally tally;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string context = "mutated trial " + std::to_string(trial);
    History history = random_mix(rng);
    switch (trial % 6) {
      case 0:
        history = gen::drop_operation(
            history, static_cast<OpId>(rng.bounded(history.size())));
        break;
      case 1:
        if (history.write_count() < 2) continue;
        history = gen::duplicate_write_value(history, rng);
        break;
      case 2:
        history = gen::jitter_timestamps(
            history, 1 + static_cast<TimePoint>(rng.bounded(40)), rng);
        break;
      case 3:
        if (history.read_count() == 0) continue;
        history = gen::delay_read(
            history, history.reads()[rng.bounded(history.read_count())],
            -static_cast<TimePoint>(rng.bounded(400)));
        break;
      case 4: {
        std::optional<History> staler = gen::inject_staler_read(history, rng);
        if (staler) history = *staler;
        break;
      }
      default:  // damage stacked on jitter
        history = gen::jitter_timestamps(history, 10, rng);
        history = gen::drop_operation(
            history, static_cast<OpId>(rng.bounded(history.size())));
        if (history.write_count() >= 2 && rng.bernoulli(0.5)) {
          history = gen::duplicate_write_value(history, rng);
        }
        break;
    }
    check(history, context, tally);
  }
  EXPECT_GT(tally.clean, 500);
  EXPECT_GT(tally.repairable, 500);
  EXPECT_GT(tally.hard, 1000);
  RecordProperty("histories", tally.histories);
  RecordProperty("clean", tally.clean);
  RecordProperty("repairable", tally.repairable);
  RecordProperty("hard", tally.hard);
}

// The simulator's raw clock ties timestamps across operations, so most
// keys are repairable -- the case the classifier exists to make cheap.
TEST(ClassifierDifferential, RawClockSloppyQuorumKeys) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    quorum::QuorumConfig config;
    config.replicas = seed % 2 == 0 ? 3 : 5;
    config.write_quorum = 1 + static_cast<int>(seed % 2);
    config.read_quorum = 1;
    config.first_responders = seed % 3 != 0;
    config.keys = 3;
    config.clients = 4;
    config.ops_per_client = 20;
    config.seed = seed;
    const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
    for (const auto& [key, history] : split_by_key(sim.trace).per_key) {
      check(history, "quorum seed " + std::to_string(seed) + " key " + key,
            tally);
    }
  }
  EXPECT_GT(tally.repairable, 500);
  RecordProperty("histories", tally.histories);
  RecordProperty("repairable", tally.repairable);
}

TEST(ClassifierDifferential, OneHandBuiltHistoryPerAnomalyKind) {
  Tally tally;
  {
    HistoryBuilder b;  // read_without_dictating_write
    b.write(0, 10, 1);
    b.read(20, 30, 2);
    check(b.build(), "read without dictating write", tally);
  }
  {
    HistoryBuilder b;  // read_precedes_dictating_write
    b.read(0, 10, 1);
    b.write(20, 30, 1);
    check(b.build(), "read precedes dictating write", tally);
  }
  {
    HistoryBuilder b;  // duplicate_write_value
    b.write(0, 10, 1);
    b.write(20, 30, 1);
    b.read(40, 50, 1);
    check(b.build(), "duplicate write value", tally);
  }
  {
    HistoryBuilder b;  // duplicate_timestamp
    b.write(0, 10, 1);
    b.read(10, 20, 1);
    b.write(20, 30, 2);
    check(b.build(), "duplicate timestamp", tally);
  }
  {
    HistoryBuilder b;  // write_outlives_dictated_read
    b.write(0, 30, 1);
    b.read(5, 20, 1);
    check(b.build(), "write outlives dictated read", tally);
  }
  check(History{}, "empty history", tally);
  for (const int seen : tally.kinds_seen) EXPECT_GT(seen, 0);
}

}  // namespace
}  // namespace kav
