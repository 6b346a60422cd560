// Seeded differential fuzzing of the kav::Engine session API: for
// random multi-key traces, Engine::verify must be bit-identical
// (outcome, witness, reason, conflict, per-key stats, verify_totals) to
// the serial reference verify_keyed_trace -- across 1/2/8 threads, every
// Algorithm value (including k-mismatched precondition_failed combos),
// and with the engines REUSED across trials, so cross-call
// contamination on the shared pool would be caught too. Engine::monitor
// must answer the same at 2 and 8 threads as at 1.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure, so any finding reproduces with
//   KAV_FUZZ_SEED=<seed> ./engine_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chunk_feed.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "kav.h"
#include "scratch_file.h"
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

// Small shards (<= ~16 ops) keep the exact-oracle configurations cheap
// while still exercising every dispatch path.
History random_shard(Rng& rng) {
  const std::uint64_t kind = rng.bounded(3);
  if (kind == 0) {
    gen::KAtomicConfig config;
    config.writes = 2 + static_cast<int>(rng.bounded(4));
    config.k = 1 + static_cast<int>(rng.bounded(3));
    return gen::generate_k_atomic(config, rng).history;
  }
  gen::RandomMixConfig config;
  config.operations = 4 + static_cast<int>(rng.bounded(12));
  config.write_fraction = 0.25 + 0.5 * rng.uniform_double();
  config.staleness_decay = 0.3 + 0.5 * rng.uniform_double();
  config.horizon = 400 + static_cast<TimePoint>(rng.bounded(2000));
  History h = gen::generate_random_mix(config, rng);
  if (kind == 2) {
    if (auto mutated = gen::inject_staler_read(h, rng)) h = *mutated;
    if (h.size() > 2 && rng.bernoulli(0.25)) {
      // May orphan dictated reads: a hard anomaly both paths must
      // report identically (precondition_failed).
      h = gen::drop_operation(h, static_cast<OpId>(rng.bounded(h.size())));
    }
  }
  return h;
}

KeyedTrace random_trace(Rng& rng) {
  KeyedTrace trace;
  const int keys = 1 + static_cast<int>(rng.bounded(6));
  for (int k = 0; k < keys; ++k) {
    const History shard = random_shard(rng);
    const std::string key = "k" + std::to_string(k);
    for (const Operation& op : shard.operations()) trace.add(key, op);
  }
  return trace;
}

void expect_bit_identical(const Report& serial, const Report& engine,
                          const std::string& context) {
  ASSERT_EQ(serial.per_key.size(), engine.per_key.size()) << context;
  auto its = serial.per_key.begin();
  auto ite = engine.per_key.begin();
  for (; its != serial.per_key.end(); ++its, ++ite) {
    SCOPED_TRACE(context + ", key " + its->first);
    ASSERT_EQ(its->first, ite->first);
    const Verdict& vs = its->second.verdict;
    const Verdict& ve = ite->second.verdict;
    ASSERT_EQ(vs.outcome, ve.outcome) << "serial: " << vs.reason
                                      << "\nengine: " << ve.reason;
    ASSERT_EQ(vs.witness, ve.witness);
    ASSERT_EQ(vs.reason, ve.reason);
    ASSERT_EQ(vs.conflict, ve.conflict);
    // Defaulted operator== covers every counter, present and future.
    ASSERT_TRUE(vs.stats == ve.stats);
  }
  ASSERT_TRUE(serial.verify_totals == engine.verify_totals) << context;
}

TEST(EngineFuzz, VerifyBitIdenticalToLegacySerialForAllAlgorithms) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);

  // Every Algorithm value, each at its native k plus one mismatched k
  // (the precondition_failed answers must match bit for bit too).
  struct Config {
    Algorithm algorithm;
    int k;
  };
  const std::vector<Config> configs = {
      {Algorithm::auto_select, 1}, {Algorithm::auto_select, 2},
      {Algorithm::auto_select, 3}, {Algorithm::gk, 1},
      {Algorithm::gk, 2},          {Algorithm::lbt, 2},
      {Algorithm::lbt, 3},         {Algorithm::fzf, 2},
      {Algorithm::fzf, 1},         {Algorithm::greedy, 2},
      {Algorithm::greedy, 3},      {Algorithm::oracle, 2},
      {Algorithm::oracle, 3},
  };

  // Engines are built once and reused across every trial and config:
  // the differential property must survive pool reuse, and the verify
  // options ride per call via RunOptions.
  const std::vector<std::size_t> thread_counts = {1, 2, 8};
  std::vector<std::unique_ptr<Engine>> engines;
  for (std::size_t threads : thread_counts) {
    EngineOptions options;
    options.threads = threads;
    engines.push_back(std::make_unique<Engine>(options));
  }

  // Each trace also reaches the engines streamed: through a
  // MemoryTraceSource and through a v1 .kavb file, whose keys are
  // grouped into rows and built into Histories on the pool workers
  // (repaired in place there) rather than pinned.
  const testing_util::ScratchFile file("trace.kavb");
  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    const KeyedTrace trace = random_trace(rng);
    write_binary_trace_file(file.path(), trace);
    for (const Config& config : configs) {
      VerifyOptions options;
      options.k = config.k;
      options.algorithm = config.algorithm;
      const Report serial = verify_keyed_trace(trace, options);
      RunOptions run;
      run.verify = options;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::string context =
            "reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
            " (trial " + std::to_string(trial) + ", algorithm " +
            to_string(config.algorithm) + ", k " +
            std::to_string(config.k) + ", threads " +
            std::to_string(thread_counts[i]);
        expect_bit_identical(serial, engines[i]->verify(trace, run),
                             context + ", KeyedTrace)");
        MemoryTraceSource memory(&trace);
        expect_bit_identical(serial, engines[i]->verify(memory, run),
                             context + ", MemoryTraceSource)");
        expect_bit_identical(
            serial, engines[i]->verify(*open_trace_source(file.path()), run),
            context + ", v1 .kavb file)");
      }
    }
  }
}

TEST(EngineFuzz, MonitorAgreesAcrossThreadCounts) {
  Rng rng(fuzz_seed() ^ 0xe46eULL);
  // One engine per thread count, reused across trials; the 1-thread
  // engine is the reference.
  std::vector<std::unique_ptr<Engine>> engines;
  for (std::size_t threads : {1u, 2u, 8u}) {
    EngineOptions options;
    options.threads = threads;
    options.streaming.staleness_horizon = 1 << 22;
    options.reorder_slack = 1 << 20;
    engines.push_back(std::make_unique<Engine>(options));
  }
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (monitor trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);
    const Report reference = engines.front()->monitor(trace);
    for (std::size_t i = 1; i < engines.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(engines[i]->thread_count()));
      const Report live = engines[i]->monitor(trace);
      ASSERT_EQ(live.per_key.size(), reference.per_key.size());
      for (const auto& [key, result] : reference.per_key) {
        SCOPED_TRACE("key " + key);
        EXPECT_EQ(live.per_key.at(key).verdict.outcome,
                  result.verdict.outcome);
        EXPECT_EQ(live.per_key.at(key).findings.size(),
                  result.findings.size());
      }
    }
  }
}

// A random merge of the trace's per-key sequences: arrival order mixes
// keys while each key keeps its own order.
KeyedTrace interleave(const KeyedTrace& trace, Rng& rng) {
  std::map<std::string, std::vector<Operation>> per_key;
  for (const KeyedOperation& kop : trace.ops) per_key[kop.key].push_back(kop.op);
  std::vector<std::pair<std::string, std::size_t>> cursors;
  for (const auto& [key, ops] : per_key) cursors.emplace_back(key, 0);
  KeyedTrace out;
  while (!cursors.empty()) {
    const std::size_t pick = rng.bounded(cursors.size());
    auto& [key, next] = cursors[pick];
    out.add(key, per_key[key][next++]);
    if (next == per_key[key].size()) cursors.erase(cursors.begin() + pick);
  }
  return out;
}

// Chunk-boundary differential: one interleaved trace fed to the monitor
// in chunks of 1, 3, 64, queue_capacity and the whole trace, on 1, 2
// and 4 threads. Every run gives each key batch Engine::verify's
// answer (YES exactly where batch says YES); with the horizon covering
// the stream's staleness the findings are identical however the stream
// was chunked; and no partition queue ever held more than capacity
// plus one chunk.
TEST(EngineFuzz, MonitorIgnoresChunkBoundaries) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed ^ 0xc4a7ULL);
  constexpr std::size_t kCapacity = 16;
  EngineOptions options;
  options.streaming.staleness_horizon = 1 << 22;
  options.reorder_slack = 1 << 20;
  options.queue_capacity = kCapacity;
  Engine batch(options);
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (chunk trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = interleave(random_trace(rng), rng);
    const Report reference = batch.verify(trace);
    std::optional<Report> first;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      pipeline::ThreadPool pool(threads);
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{3}, std::size_t{64}, kCapacity,
            trace.size()}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", chunk " +
                     std::to_string(chunk));
        obs::MetricsRegistry registry;
        KeyedStreamingMonitor monitor(pool, registry, options);
        testing_util::ChunkFeeder(monitor).ingest(trace, chunk);
        const Report live = monitor.finish();
        EXPECT_EQ(live.monitor_totals.operations_ingested, trace.size());
        EXPECT_LT(live.monitor_totals.peak_queue, kCapacity + chunk);
        ASSERT_EQ(live.per_key.size(), reference.per_key.size());
        for (const auto& [key, result] : reference.per_key) {
          SCOPED_TRACE("key " + key);
          const KeyResult& got = live.per_key.at(key);
          EXPECT_EQ(got.verdict.yes(), result.verdict.yes())
              << "batch: " << result.verdict.reason
              << "\nmonitor: " << got.verdict.reason;
          if (!first) continue;
          const std::vector<StreamingViolation>& want =
              first->per_key.at(key).findings;
          ASSERT_EQ(got.findings.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.findings[i].kind, want[i].kind);
            EXPECT_EQ(got.findings[i].detail, want[i].detail);
          }
        }
        if (!first) first = live;
      }
    }
  }
}

// Sum of every series of `name` in the snapshot, labels collapsed.
// Counter and gauge values are integral by construction, so the cast
// back from the snapshot's double is exact.
std::uint64_t series_total(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name == name) total += static_cast<std::uint64_t>(m.value);
  }
  return total;
}

// The registry is not a second bookkeeping system: its counters must
// equal the Report's VerifyStats / MonitorStats totals on the same run.
// Fresh registry per engine so each trial's totals stand alone.
TEST(EngineFuzz, RegistryCountersEqualLegacyStatsTotals) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed ^ 0x0b5e7ULL);
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (differential trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);

    {
      obs::MetricsRegistry registry;
      EngineOptions options;
      options.threads = 4;
      options.metrics = &registry;
      Engine engine(options);
      const Report report = engine.verify(trace);
      const obs::RegistrySnapshot snap = engine.snapshot();
      const VerifyStats& totals = report.verify_totals;
      EXPECT_EQ(series_total(snap, "kav_verify_steps_total"), totals.steps);
      EXPECT_EQ(series_total(snap, "kav_verify_epochs_total"), totals.epochs);
      EXPECT_EQ(series_total(snap, "kav_verify_candidates_total"),
                totals.candidates_tried);
      EXPECT_EQ(series_total(snap, "kav_verify_chunks_total"), totals.chunks);
      EXPECT_EQ(series_total(snap, "kav_verify_dangling_total"),
                totals.dangling);
      EXPECT_EQ(series_total(snap, "kav_verify_orders_tested_total"),
                totals.orders_tested);
      EXPECT_EQ(series_total(snap, "kav_verify_oracle_nodes_total"),
                totals.nodes);
      EXPECT_EQ(series_total(snap, "kav_engine_keys_verified_total"),
                report.per_key.size());
      EXPECT_EQ(series_total(snap, "kav_engine_shards_verified_total"),
                report.per_key.size());
    }

    {
      obs::MetricsRegistry registry;
      EngineOptions options;
      options.threads = 4;
      options.metrics = &registry;
      options.streaming.staleness_horizon = 1 << 22;
      options.reorder_slack = 1 << 20;
      Engine engine(options);
      const Report report = engine.monitor(trace);
      const obs::RegistrySnapshot snap = engine.snapshot();
      const MonitorStats& totals = report.monitor_totals;
      EXPECT_EQ(series_total(snap, "kav_monitor_ops_ingested_total"),
                totals.operations_ingested);
      EXPECT_EQ(series_total(snap, "kav_monitor_late_arrivals_total"),
                totals.late_arrivals);
      EXPECT_EQ(series_total(snap, "kav_monitor_violations_total"),
                totals.violations);
      EXPECT_EQ(series_total(snap, "kav_monitor_chunks_verified_total"),
                totals.chunks_verified);
      // The run's findings also flow into the engine-level per-kind
      // breakdown; kinds collapse back to the same total.
      EXPECT_EQ(series_total(snap, "kav_engine_findings_total"),
                totals.violations);
      // At quiescence (the run's monitor is destroyed before monitor()
      // returns) every level gauge must have been retired to zero.
      EXPECT_EQ(series_total(snap, "kav_monitor_queue_backlog"), 0u);
      EXPECT_EQ(series_total(snap, "kav_monitor_reorder_pending"), 0u);
      EXPECT_EQ(series_total(snap, "kav_monitor_active_keys"), 0u);
    }
  }
}

}  // namespace
}  // namespace kav
