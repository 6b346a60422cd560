// Differential test: FZF's flat stages against the FZF they replaced
// (kept verbatim as kav::reference in reference_fzf.h). Both decide the
// same histories; everything observable must be bit-identical -- the
// outcome, the reason, the witness, the conflict and every VerifyStats
// field -- through check_2atomicity_fzf and through the overload that
// takes a precomputed ChunkPartition, against the reference with and
// without its precondition pass. FZF itself trusts its input: where the
// reference's pass refuses a history, verify_k_atomicity's gate must
// refuse it too. The partition itself is compared chunk by chunk with
// the reference's ChunkSet.
//
// Inputs: generate_k_atomic at k = 1..4 across spreads;
// generate_high_concurrency at c = 3..256; forced-separation and
// b3-chunk histories; property-P triples and fans; random mixes; the
// gen/mutators outputs (staler reads, delayed and dropped ops, jitter,
// duplicate values) with and without normalize(); and the per-key
// histories of sloppy-quorum simulations, on the raw simulator clock
// (timestamp ties) and normalized. Histories with a hard anomaly only
// go through the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fzf.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/anomaly.h"
#include "history/cluster.h"
#include "history/keyed_trace.h"
#include "quorum/sim.h"
#include "reference_fzf.h"
#include "util/rng.h"

namespace kav {
namespace {

struct Tally {
  int inputs = 0;
  int yes = 0;
  int no = 0;
  int unchecked = 0;  // inputs also decided with the reference's pass off
  int mismatches = 0;
  std::string first_mismatch;
};

std::string join(const std::vector<OpId>& ids) {
  std::string out;
  for (OpId id : ids) out += std::to_string(id) + ",";
  return out;
}

std::string describe(const VerifyStats& s) {
  return "chunks " + std::to_string(s.chunks) + " dangling " +
         std::to_string(s.dangling) + " orders " +
         std::to_string(s.orders_tested) + " epochs " +
         std::to_string(s.epochs) + " candidates " +
         std::to_string(s.candidates_tried) + " steps " +
         std::to_string(s.steps) + " nodes " + std::to_string(s.nodes);
}

// First difference between two verdicts, or "".
std::string compare(const Verdict& fast, const Verdict& reference) {
  if (fast.outcome != reference.outcome) {
    return std::string("outcome ") + to_string(fast.outcome) + " vs " +
           to_string(reference.outcome);
  }
  if (fast.reason != reference.reason) {
    return "reason '" + fast.reason + "' vs '" + reference.reason + "'";
  }
  if (fast.witness != reference.witness) {
    return "witness " + join(fast.witness) + " vs " + join(reference.witness);
  }
  if (fast.conflict != reference.conflict) {
    return "conflict " + join(fast.conflict) + " vs " +
           join(reference.conflict);
  }
  if (!(fast.stats == reference.stats)) {
    return "stats " + describe(fast.stats) + " vs " +
           describe(reference.stats);
  }
  return "";
}

std::string compare(const ChunkPartition& fast,
                    const reference::ChunkSet& reference) {
  if (fast.chunk_count() != reference.chunks.size()) {
    return "chunk count " + std::to_string(fast.chunk_count()) + " vs " +
           std::to_string(reference.chunks.size());
  }
  for (std::size_t c = 0; c < fast.chunk_count(); ++c) {
    const reference::Chunk& chunk = reference.chunks[c];
    const std::span<const OpId> forward = fast.forward(c);
    const std::span<const OpId> backward = fast.backward(c);
    if (!(fast.extents[c] == chunk.extent) ||
        std::vector<OpId>(forward.begin(), forward.end()) !=
            chunk.forward_writes ||
        std::vector<OpId>(backward.begin(), backward.end()) !=
            chunk.backward_writes) {
      return "chunk " + std::to_string(c);
    }
  }
  if (fast.dangling_writes != reference.dangling_writes) {
    return "dangling " + join(fast.dangling_writes) + " vs " +
           join(reference.dangling_writes);
  }
  return "";
}

void record(Tally& tally, const std::string& label, const std::string& diff) {
  if (diff.empty()) return;
  if (tally.mismatches++ == 0) tally.first_mismatch = label + ": " + diff;
}

void check(const History& history, const std::string& label, Tally& tally) {
  ++tally.inputs;
  const Verdict expected = reference::check_2atomicity_fzf(history);
  tally.yes += expected.yes();
  tally.no += expected.no();
  if (expected.outcome == Outcome::precondition_failed) {
    VerifyOptions gated;
    gated.algorithm = Algorithm::fzf;
    gated.normalize = false;
    if (verify_k_atomicity(history, gated).outcome !=
        Outcome::precondition_failed) {
      record(tally, label + " (gated)", "the gate passed " + expected.reason);
    }
  } else {
    record(tally, label + " (checked)",
           compare(check_2atomicity_fzf(history), expected));
  }
  // The reference indexes past a hard anomaly without its check.
  if (detail::has_hard_anomaly(history)) return;

  // Repairable anomalies (timestamp ties, unshortened writes) still
  // decide with the reference's pass off; both sides must agree there
  // too, ties and all.
  ++tally.unchecked;
  reference::FzfOptions unchecked;
  unchecked.check_preconditions = false;
  const Verdict reference_unchecked =
      reference::check_2atomicity_fzf(history, unchecked);
  record(tally, label + " (unchecked)",
         compare(check_2atomicity_fzf(history), reference_unchecked));
  const std::vector<Zone> zones = compute_zones(history);
  ChunkPartition partition;
  partition_chunks(zones, partition);
  record(tally, label + " (partition)",
         compare(check_2atomicity_fzf(history, partition),
                 reference_unchecked));
  record(tally, label + " (chunks)",
         compare(partition, reference::compute_chunk_set(history, zones)));
}

void expect_clean(const Tally& tally, int min_inputs, int min_no) {
  EXPECT_EQ(tally.mismatches, 0) << tally.first_mismatch;
  EXPECT_GE(tally.inputs, min_inputs);
  EXPECT_GE(tally.no, min_no);
  testing::Test::RecordProperty("inputs", tally.inputs);
  testing::Test::RecordProperty("yes", tally.yes);
  testing::Test::RecordProperty("no", tally.no);
  testing::Test::RecordProperty("unchecked", tally.unchecked);
}

TEST(FzfDifferential, KAtomicHistoriesAcrossSpreads) {
  Rng rng(0xF2F1);
  Tally tally;
  for (int k = 1; k <= 4; ++k) {
    for (const double spread : {0.1, 0.3, 0.6, 0.8, 1.5, 3.0}) {
      for (int trial = 0; trial < 100; ++trial) {
        gen::KAtomicConfig config;
        config.k = k;
        config.spread = spread;
        config.writes = 2 + static_cast<int>(rng.bounded(120));
        config.min_reads_per_write = static_cast<int>(rng.bounded(2));
        config.max_reads_per_write = config.min_reads_per_write +
                                     static_cast<int>(rng.bounded(4));
        check(gen::generate_k_atomic(config, rng).history,
              "k " + std::to_string(k) + " spread " + std::to_string(spread) +
                  " trial " + std::to_string(trial),
              tally);
      }
    }
  }
  expect_clean(tally, 2400, 200);
}

TEST(FzfDifferential, HighConcurrencyClumps) {
  Rng rng(0xF2F2);
  Tally tally;
  for (const int c : {3, 4, 5, 6, 8, 12, 16, 32, 64, 128, 256}) {
    for (const int groups : {1, 2, 5, 17}) {
      if (groups * (2 * c + 1) > 8'000) continue;
      check(gen::generate_high_concurrency(groups, c, rng),
            "c " + std::to_string(c) + " groups " + std::to_string(groups),
            tally);
    }
  }
  expect_clean(tally, 35, 0);
}

TEST(FzfDifferential, PaperShapes) {
  Tally tally;
  for (int separation = 0; separation <= 5; ++separation) {
    for (int blocks = 1; blocks <= 4; ++blocks) {
      check(gen::generate_forced_separation(separation, blocks),
            "separation " + std::to_string(separation) + " blocks " +
                std::to_string(blocks),
            tally);
    }
  }
  for (int b = 3; b <= 8; ++b) {
    check(gen::generate_b3_chunk(b), "b3 " + std::to_string(b), tally);
  }
  for (const TimePoint scale : {8, 10, 1'000}) {
    check(gen::generate_property_p_triple(scale),
          "property-P triple " + std::to_string(scale), tally);
    for (int others = 3; others <= 8; ++others) {
      check(gen::generate_property_p_fan(others, scale),
            "property-P fan " + std::to_string(others) + " scale " +
                std::to_string(scale),
            tally);
    }
  }
  expect_clean(tally, 50, 15);
}

TEST(FzfDifferential, RandomMixes) {
  Rng rng(0xF2F3);
  Tally tally;
  for (int trial = 0; trial < 2000; ++trial) {
    gen::RandomMixConfig config;
    config.operations = 4 + static_cast<int>(rng.bounded(200));
    config.write_fraction = 0.2 + 0.6 * rng.uniform_double();
    config.staleness_decay = 0.3 + 0.6 * rng.uniform_double();
    config.horizon = 100 + static_cast<TimePoint>(rng.bounded(20'000));
    check(gen::generate_random_mix(config, rng),
          "mix trial " + std::to_string(trial), tally);
  }
  expect_clean(tally, 2000, 300);
}

TEST(FzfDifferential, MutatedHistories) {
  Rng rng(0xF2F4);
  Tally tally;
  for (int trial = 0; trial < 2000; ++trial) {
    gen::KAtomicConfig config;
    config.k = 2 + static_cast<int>(rng.bounded(2));
    config.writes = 3 + static_cast<int>(rng.bounded(60));
    config.spread = 0.3 + 1.5 * rng.uniform_double();
    const History base = gen::generate_k_atomic(config, rng).history;
    const OpId victim = static_cast<OpId>(rng.bounded(base.size()));
    History mutated;
    switch (trial % 5) {
      case 0: {
        auto staler = gen::inject_staler_read(base, rng);
        if (!staler.has_value()) continue;
        mutated = std::move(*staler);
        break;
      }
      case 1:
        if (!base.op(victim).is_read()) continue;
        mutated = gen::delay_read(
            base, victim, 1 + static_cast<TimePoint>(rng.bounded(50)));
        break;
      case 2:
        mutated = gen::drop_operation(base, victim);
        break;
      case 3:
        mutated = gen::jitter_timestamps(base, 30, rng);
        break;
      default:
        mutated = gen::duplicate_write_value(base, rng);
        break;
    }
    const std::string label = "mutation trial " + std::to_string(trial);
    check(mutated, label + " raw", tally);
    if (!detail::has_hard_anomaly(mutated)) {
      check(normalize(mutated), label + " normalized", tally);
    }
  }
  expect_clean(tally, 2000, 100);
}

TEST(FzfDifferential, SloppyQuorumKeysOnRawAndNormalizedClocks) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    quorum::QuorumConfig config;
    config.replicas = seed % 2 == 0 ? 3 : 5;
    config.write_quorum = 1 + static_cast<int>(seed % 2);
    config.read_quorum = 1;
    config.first_responders = seed % 3 != 0;
    config.keys = 3;
    config.clients = 2 + static_cast<int>(seed % 5);
    config.ops_per_client = 40;
    config.seed = seed;
    const quorum::SimResult sim = quorum::run_sloppy_quorum_sim(config);
    for (const auto& [key, history] : split_by_key(sim.trace).per_key) {
      const std::string label =
          "quorum seed " + std::to_string(seed) + " key " + key;
      check(history, label + " raw", tally);
      if (!detail::has_hard_anomaly(history)) {
        check(normalize(history), label + " normalized", tally);
      }
    }
  }
  expect_clean(tally, 600, 20);
}

}  // namespace
}  // namespace kav
