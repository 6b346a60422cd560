// End-to-end integration sweeps: simulator -> trace -> (serialize ->
// parse) -> normalize -> every decider -> witness validation ->
// spectrum analysis -> streaming re-check -> keyed monitor,
// parameterized over quorum configurations. This is the whole pipeline
// a downstream user would run, exercised as one property. Properties
// that only hold for strict quorums (W + R > N) run in their own
// StrictQuorumSweep instantiation instead of skipping at runtime, so
// the suite has no silent holes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/engine.h"
#include "core/fzf.h"
#include "core/lbt.h"
#include "core/minimal_k.h"
#include "core/streaming.h"
#include "core/verify.h"
#include "core/witness.h"
#include "history/anomaly.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "quorum/sim.h"
#include "scratch_file.h"

namespace kav {
namespace {

struct PipelineParam {
  int replicas;
  int write_quorum;
  int read_quorum;
  bool first_responders;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<PipelineParam>& info) {
  const PipelineParam& p = info.param;
  return "N" + std::to_string(p.replicas) + "W" +
         std::to_string(p.write_quorum) + "R" +
         std::to_string(p.read_quorum) +
         (p.first_responders ? "first" : "subset") + "s" +
         std::to_string(p.seed);
}

class PipelineSweep : public testing::TestWithParam<PipelineParam> {
 protected:
  quorum::SimResult simulate() const {
    quorum::QuorumConfig config;
    config.replicas = GetParam().replicas;
    config.write_quorum = GetParam().write_quorum;
    config.read_quorum = GetParam().read_quorum;
    config.first_responders = GetParam().first_responders;
    config.clients = 4;
    config.keys = 2;
    config.ops_per_client = 30;
    config.seed = GetParam().seed;
    return quorum::run_sloppy_quorum_sim(config);
  }
};

TEST_P(PipelineSweep, SerializationIsLossless) {
  const quorum::SimResult sim = simulate();
  const KeyedTrace round_tripped = parse_trace(format_trace(sim.trace));
  ASSERT_EQ(round_tripped.size(), sim.trace.size());
  for (std::size_t i = 0; i < sim.trace.size(); ++i) {
    EXPECT_EQ(round_tripped.ops[i].key, sim.trace.ops[i].key);
    EXPECT_EQ(round_tripped.ops[i].op, sim.trace.ops[i].op);
  }
}

TEST_P(PipelineSweep, BinarySerializationIsLossless) {
  const quorum::SimResult sim = simulate();
  std::stringstream buffer;
  write_binary_trace(buffer, sim.trace);
  const KeyedTrace round_tripped =
      testing_util::read_trace_bytes(buffer.str());
  ASSERT_EQ(round_tripped.size(), sim.trace.size());
  for (std::size_t i = 0; i < sim.trace.size(); ++i) {
    EXPECT_EQ(round_tripped.ops[i].key, sim.trace.ops[i].key);
    EXPECT_EQ(round_tripped.ops[i].op, sim.trace.ops[i].op);
  }
}

TEST_P(PipelineSweep, DecidersAgreeOnEveryKey) {
  const quorum::SimResult sim = simulate();
  const KeyedHistories split = split_by_key(sim.trace);
  for (const auto& [key, raw] : split.per_key) {
    ASSERT_TRUE(find_anomalies(raw).repairable()) << key;
    const History h = normalize(raw);
    const Verdict lbt = check_2atomicity_lbt(h);
    const Verdict fzf = check_2atomicity_fzf(h);
    ASSERT_TRUE(lbt.decided());
    ASSERT_TRUE(fzf.decided());
    EXPECT_EQ(lbt.yes(), fzf.yes()) << key;
    if (fzf.yes()) {
      EXPECT_TRUE(validate_witness(h, fzf.witness, 2).ok()) << key;
      EXPECT_TRUE(validate_witness(h, lbt.witness, 2).ok()) << key;
    }
  }
}

TEST_P(PipelineSweep, StreamingAgreesWithBatch) {
  const quorum::SimResult sim = simulate();
  const KeyedHistories split = split_by_key(sim.trace);
  for (const auto& [key, raw] : split.per_key) {
    const History h = normalize(raw);
    const bool batch_yes = check_2atomicity_fzf(h).yes();
    StreamingOptions options;
    options.staleness_horizon = 1 << 24;  // conservative horizon
    StreamingChecker monitor(options);
    for (OpId id : h.by_start()) {
      monitor.add(h.op(id));
      monitor.advance_watermark(h.op(id).start);
    }
    EXPECT_EQ(monitor.finish().yes(), batch_yes) << key;
  }
}

TEST_P(PipelineSweep, SpectrumIsConsistentWithMinimalK) {
  const quorum::SimResult sim = simulate();
  const KeyedHistories split = split_by_key(sim.trace);
  for (const auto& [key, raw] : split.per_key) {
    const History h = normalize(raw);
    const MinimalKResult min_k = minimal_k(h);
    if (!min_k.exact || min_k.k > 2) continue;  // need a witness source
    const Verdict v = min_k.k == 1
                          ? verify_k_atomicity(h, {.k = 1})
                          : verify_k_atomicity(h, {.k = 2});
    ASSERT_TRUE(v.yes()) << key;
    const StalenessSpectrum spectrum = staleness_spectrum(h, v.witness);
    EXPECT_LE(spectrum.max_separation, min_k.k - 1) << key;
    EXPECT_EQ(spectrum.reads, h.read_count()) << key;
  }
}

TEST_P(PipelineSweep, MonitorAgreesWithBatch) {
  // The keyed monitor (ingest subsystem) must flag exactly the keys
  // the serial batch reference answers NO for. Batch verification normalizes
  // per-key histories, so feed the monitor the normalized operations,
  // merged across keys in global start order.
  const quorum::SimResult sim = simulate();
  const KeyedHistories split = split_by_key(sim.trace);
  KeyedTrace normalized;
  for (const auto& [key, raw] : split.per_key) {
    const History h = normalize(raw);
    for (const Operation& op : h.operations()) normalized.add(key, op);
  }
  std::stable_sort(normalized.ops.begin(), normalized.ops.end(),
                   [](const KeyedOperation& a, const KeyedOperation& b) {
                     return a.op.start < b.op.start;
                   });
  VerifyOptions options;
  options.k = 2;
  const Report batch = verify_keyed_trace(normalized, options);
  EngineOptions engine_options;
  engine_options.streaming.staleness_horizon = 1 << 24;
  engine_options.reorder_slack = 64;  // arrivals already in start order
  Engine engine(engine_options);
  const Report streamed = engine.monitor(normalized);
  ASSERT_EQ(streamed.per_key.size(), batch.per_key.size());
  EXPECT_EQ(streamed.monitor_totals.late_arrivals, 0u);
  for (const auto& [key, result] : batch.per_key) {
    ASSERT_TRUE(streamed.per_key.count(key)) << key;
    EXPECT_EQ(streamed.per_key.at(key).verdict.yes(), result.verdict.yes())
        << key << ": batch says " << to_string(result.verdict.outcome);
  }
}

// Properties that hold only for strict quorums (W + R > N) get their
// own instantiation over exactly the strict configurations -- no
// runtime GTEST_SKIP holes.
class StrictQuorumSweep : public PipelineSweep {};

TEST_P(StrictQuorumSweep, StrictQuorumImpliesLowMinimalK) {
  ASSERT_GT(GetParam().write_quorum + GetParam().read_quorum,
            GetParam().replicas)
      << "StrictQuorumSweep instantiated with a sloppy configuration";
  const quorum::SimResult sim = simulate();
  const KeyedHistories split = split_by_key(sim.trace);
  for (const auto& [key, raw] : split.per_key) {
    const History h = normalize(raw);
    VerifyOptions options;
    options.k = 2;
    EXPECT_TRUE(verify_k_atomicity(h, options).yes())
        << key << " not even 2-atomic under a strict quorum";
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuorumConfigs, PipelineSweep,
    testing::Values(PipelineParam{3, 2, 2, true, 1},
                    PipelineParam{3, 2, 2, true, 2},
                    PipelineParam{3, 1, 2, true, 3},
                    PipelineParam{3, 1, 1, true, 4},
                    PipelineParam{3, 1, 1, false, 5},
                    PipelineParam{5, 3, 3, true, 6},
                    PipelineParam{5, 2, 2, true, 7},
                    PipelineParam{5, 1, 1, false, 8},
                    PipelineParam{7, 4, 4, true, 9},
                    PipelineParam{7, 1, 1, false, 10}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    StrictConfigs, StrictQuorumSweep,
    testing::Values(PipelineParam{3, 2, 2, true, 1},
                    PipelineParam{3, 2, 2, true, 2},
                    PipelineParam{5, 3, 3, true, 6},
                    PipelineParam{5, 4, 2, true, 11},
                    PipelineParam{7, 4, 4, true, 9},
                    PipelineParam{7, 5, 3, false, 12}),
    param_name);

}  // namespace
}  // namespace kav
