// Differential test: the incremental StreamingChecker against the
// window-rescanning checker it replaced (kept verbatim as
// ReferenceStreamingChecker in reference_streaming_checker.h). Both see
// the same operations and watermark advances; everything observable
// must be bit-identical -- every violation's (kind, when, detail),
// window_size() after every advance, the finish() verdict and reason,
// and every StreamingStats field.
//
// Inputs: random mixes of 8-48 operations under horizons {5, 30, 200,
// 2^20} with a watermark advance every {1, 3} operations, and the
// per-key histories of sloppy-quorum simulations under horizons {20,
// 100, 1000} with an advance every {1, 4} operations (half of them on
// the simulator's raw clock, with timestamp ties). Operations arrive
// in start order and the watermark trails the latest start, so tight
// horizons exercise horizon_exceeded findings and loose ones not_2atomic
// chunks. The reference throws when a final chunk holds a read preceding
// its write; such inputs are skipped (the incremental checker reports
// them as hard_anomaly findings instead, see streaming_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/streaming.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/anomaly.h"
#include "history/keyed_trace.h"
#include "quorum/sim.h"
#include "reference_streaming_checker.h"
#include "util/rng.h"

namespace kav {
namespace {

struct Tally {
  int runs = 0;
  int skipped = 0;  // the reference threw
  int mismatches = 0;
  int with_not_2atomic = 0;
  int with_horizon = 0;
  int with_hard_anomaly = 0;
  std::string first_mismatch;
};

std::string describe_violation(const StreamingViolation& v) {
  return std::to_string(static_cast<int>(v.kind)) + "@" +
         std::to_string(v.when) + ": " + v.detail;
}

// First difference between the two checkers' observable state, or "".
template <typename Checker>
std::string compare_violations(const StreamingChecker& fast,
                               const Checker& reference) {
  const auto& a = fast.violations();
  const auto& b = reference.violations();
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size()) {
      return "violation count " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size());
    }
    if (a[i].kind != b[i].kind || a[i].when != b[i].when ||
        a[i].detail != b[i].detail) {
      return "violation " + std::to_string(i) + ": " +
             describe_violation(a[i]) + " vs " + describe_violation(b[i]);
    }
  }
  return "";
}

std::string compare_stats(const StreamingStats& a, const StreamingStats& b) {
  if (a.operations_ingested != b.operations_ingested) return "ingested";
  if (a.operations_evicted != b.operations_evicted) return "evicted";
  if (a.chunks_verified != b.chunks_verified) return "chunks_verified";
  if (a.dangling_clusters != b.dangling_clusters) return "dangling";
  if (a.flushes != b.flushes) return "flushes";
  if (a.peak_window != b.peak_window) return "peak_window";
  return "";
}

// Streams `ops` (start order) through both checkers, advancing the
// watermark to the latest start every `every` operations.
void run_pair(const std::vector<Operation>& ops, TimePoint horizon,
              std::size_t every, const std::string& label, Tally& tally) {
  StreamingOptions options;
  options.staleness_horizon = horizon;
  ReferenceStreamingChecker reference(options);
  std::vector<std::size_t> reference_windows;
  Verdict reference_verdict;
  try {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      reference.add(ops[i]);
      if ((i + 1) % every == 0) {
        reference.advance_watermark(ops[i].start);
        reference_windows.push_back(reference.window_size());
      }
    }
    reference_verdict = reference.finish();
  } catch (const std::invalid_argument&) {
    ++tally.skipped;
    return;
  }

  ++tally.runs;
  StreamingChecker fast(options);
  std::string diff;
  std::size_t advance = 0;
  for (std::size_t i = 0; i < ops.size() && diff.empty(); ++i) {
    fast.add(ops[i]);
    if ((i + 1) % every == 0) {
      fast.advance_watermark(ops[i].start);
      if (fast.window_size() != reference_windows[advance]) {
        diff = "window_size after advance " + std::to_string(advance) +
               ": " + std::to_string(fast.window_size()) + " vs " +
               std::to_string(reference_windows[advance]);
      }
      ++advance;
    }
  }
  if (diff.empty()) {
    const Verdict verdict = fast.finish();
    if (verdict.outcome != reference_verdict.outcome ||
        verdict.reason != reference_verdict.reason) {
      diff = "verdict: " + verdict.reason + " vs " + reference_verdict.reason;
    }
  }
  if (diff.empty()) diff = compare_violations(fast, reference);
  if (diff.empty()) diff = compare_stats(fast.stats(), reference.stats());

  for (const StreamingViolation& v : reference.violations()) {
    if (v.kind == StreamingViolation::Kind::not_2atomic) {
      ++tally.with_not_2atomic;
      break;
    }
  }
  for (const StreamingViolation& v : reference.violations()) {
    if (v.kind == StreamingViolation::Kind::horizon_exceeded) {
      ++tally.with_horizon;
      break;
    }
  }
  for (const StreamingViolation& v : reference.violations()) {
    if (v.kind == StreamingViolation::Kind::hard_anomaly) {
      ++tally.with_hard_anomaly;
      break;
    }
  }
  if (!diff.empty()) {
    if (tally.mismatches == 0) tally.first_mismatch = label + ": " + diff;
    ++tally.mismatches;
  }
}

std::vector<Operation> in_start_order(const History& history) {
  std::vector<Operation> ops;
  ops.reserve(history.size());
  for (OpId id : history.by_start()) ops.push_back(history.op(id));
  return ops;
}

TEST(StreamingDifferential, BitIdenticalToTheReferenceOnRandomMixes) {
  Rng rng(2024);
  Tally tally;
  const TimePoint horizons[] = {5, 30, 200, TimePoint{1} << 20};
  for (int trial = 0; trial < 2'400; ++trial) {
    gen::RandomMixConfig config;
    config.operations = static_cast<int>(8 + rng.bounded(41));
    config.staleness_decay = 0.3 + 0.1 * static_cast<double>(trial % 6);
    const std::vector<Operation> ops =
        in_start_order(gen::generate_random_mix(config, rng));
    for (const TimePoint horizon : horizons) {
      for (const std::size_t every : {std::size_t{1}, std::size_t{3}}) {
        run_pair(ops, horizon, every,
                 "mix trial " + std::to_string(trial) + " horizon " +
                     std::to_string(horizon) + " every " +
                     std::to_string(every),
                 tally);
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first_mismatch;
  EXPECT_GE(tally.runs, 18'000);
  EXPECT_GT(tally.with_not_2atomic, 1'000);
  EXPECT_GT(tally.with_horizon, 1'000);
  RecordProperty("runs", tally.runs);
  RecordProperty("skipped", tally.skipped);
  RecordProperty("with_not_2atomic", tally.with_not_2atomic);
  RecordProperty("with_horizon_exceeded", tally.with_horizon);
}

TEST(StreamingDifferential, BitIdenticalToTheReferenceOnSloppyQuorumKeys) {
  Tally tally;
  const TimePoint horizons[] = {20, 100, 1'000};
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    quorum::QuorumConfig config;
    config.replicas = seed % 2 == 0 ? 3 : 5;
    config.write_quorum = 1 + static_cast<int>(seed % 2);
    config.read_quorum = 1;
    config.first_responders = seed % 3 != 0;
    config.keys = 3;
    config.clients = 4;
    config.ops_per_client = 30;
    config.seed = seed;
    const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
    for (const auto& [key, history] : split_by_key(sim.trace).per_key) {
      // Odd seeds stream the simulator's raw clock, whose ties between
      // timestamps exercise the (low, arrival) order of equal zones.
      const std::vector<Operation> ops =
          in_start_order(seed % 2 == 0 ? normalize(history) : history);
      for (const TimePoint horizon : horizons) {
        for (const std::size_t every : {std::size_t{1}, std::size_t{4}}) {
          run_pair(ops, horizon, every,
                   "quorum seed " + std::to_string(seed) + " key " + key +
                       " horizon " + std::to_string(horizon) + " every " +
                       std::to_string(every),
                   tally);
        }
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first_mismatch;
  EXPECT_GE(tally.runs, 4'000);
  RecordProperty("runs", tally.runs);
  RecordProperty("skipped", tally.skipped);
  RecordProperty("with_not_2atomic", tally.with_not_2atomic);
  RecordProperty("with_horizon_exceeded", tally.with_horizon);
}

// Damaged mixes reach the paths clean histories never do: reads whose
// write was dropped (orphans), repeated write values (duplicates that
// take over once the first write's cluster is evicted), and jittered
// timestamps.
TEST(StreamingDifferential, BitIdenticalToTheReferenceOnDamagedMixes) {
  Rng rng(77);
  Tally tally;
  const TimePoint horizons[] = {5, 30, 200, TimePoint{1} << 20};
  for (int trial = 0; trial < 600; ++trial) {
    gen::RandomMixConfig config;
    config.operations = static_cast<int>(8 + rng.bounded(41));
    History history = gen::generate_random_mix(config, rng);
    switch (trial % 3) {
      case 0:
        history = gen::drop_operation(
            history, static_cast<OpId>(rng.bounded(history.size())));
        break;
      case 1:
        history = gen::duplicate_write_value(history, rng);
        break;
      default:
        history = gen::jitter_timestamps(history, 20, rng);
        break;
    }
    const std::vector<Operation> ops = in_start_order(history);
    for (const TimePoint horizon : horizons) {
      for (const std::size_t every : {std::size_t{1}, std::size_t{3}}) {
        run_pair(ops, horizon, every,
                 "damaged trial " + std::to_string(trial) + " horizon " +
                     std::to_string(horizon) + " every " +
                     std::to_string(every),
                 tally);
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first_mismatch;
  EXPECT_GE(tally.runs, 3'000);
  EXPECT_GT(tally.with_hard_anomaly, 500);
  RecordProperty("runs", tally.runs);
  RecordProperty("skipped", tally.skipped);
  RecordProperty("with_hard_anomaly", tally.with_hard_anomaly);
}

}  // namespace
}  // namespace kav
