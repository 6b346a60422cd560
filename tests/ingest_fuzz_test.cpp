// Seeded property fuzzing of the ingest layer:
//
//   1. format round-trips -- text -> binary -> text and binary ->
//      text -> binary are byte-identical for randomized KeyedTraces
//      (any trace the text format can express), every binary read
//      going through drain(*open_trace_source(path));
//   2. monitor-vs-batch differential -- on randomized multi-key traces
//      delivered with bounded (in-slack, in-horizon) reordering,
//      Engine::monitor must flag exactly the keys the serial batch
//      reference verify_keyed_trace(k=2) answers NO for, with zero late
//      arrivals and a window that never holds the whole trace;
//   3. grouping differential -- split_by_key and the file audit
//      Engine::verify(*open_trace_source(path)) group every trace (these
//      random ones, an empty one, one key, keys differing only in length
//      or after a NUL byte, 10k distinct keys) exactly like a naive
//      std::map grouping, for text, v1 and unsealed v2 files at 1-4
//      threads, with and without a key_filter.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure, so any finding reproduces with
//   KAV_FUZZ_SEED=<seed> ./ingest_fuzz_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/mutators.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "scratch_file.h"
#include "util/rng.h"

namespace kav {
namespace {

using testing_util::read_trace_bytes;
using testing_util::ScratchFile;
using testing_util::unsealed_v2_bytes;

constexpr std::uint64_t kDefaultSeed = 0x1265357ULL;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("KAV_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

std::string random_key(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:/";
  const std::size_t length = 1 + rng.bounded(12);
  std::string key;
  for (std::size_t i = 0; i < length; ++i) {
    key.push_back(kAlphabet[rng.bounded(sizeof kAlphabet - 1)]);
  }
  return key;
}

// A trace with exotic-but-text-safe keys, negative times, optional
// client ids, and no structural invariants beyond start < finish --
// the formats must round-trip anything this shape.
KeyedTrace random_trace(Rng& rng) {
  KeyedTrace trace;
  const std::size_t keys = 1 + rng.bounded(6);
  std::vector<std::string> key_pool;
  for (std::size_t k = 0; k < keys; ++k) key_pool.push_back(random_key(rng));
  const std::size_t ops = rng.bounded(60);
  for (std::size_t i = 0; i < ops; ++i) {
    const TimePoint start =
        static_cast<TimePoint>(rng.bounded(4'000)) - 2'000;
    const TimePoint finish = start + 1 + static_cast<TimePoint>(
                                             rng.bounded(300));
    const auto value = static_cast<Value>(rng.bounded(1'000'000)) - 500'000;
    const ClientId client =
        rng.bernoulli(0.5) ? static_cast<ClientId>(rng.bounded(100))
                           : kNoClient;
    const OpType type = rng.bernoulli(0.4) ? OpType::write : OpType::read;
    const Operation op{start, finish, value, client, type};
    trace.add(key_pool[rng.bounded(key_pool.size())], op);
  }
  return trace;
}

TEST(IngestFuzz, FormatRoundTripsAreLossless) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);

    // text -> binary -> text: byte-identical text.
    const std::string text = format_trace(trace);
    std::stringstream binary_mid;
    write_binary_trace(binary_mid, parse_trace(text));
    ASSERT_EQ(format_trace(read_trace_bytes(binary_mid.str())), text);

    // binary -> text -> binary: byte-identical binary (default chunk
    // size on both writes).
    std::stringstream binary_in;
    write_binary_trace(binary_in, trace);
    const std::string binary = binary_in.str();
    std::stringstream binary_out;
    write_binary_trace(binary_out,
                       parse_trace(format_trace(read_trace_bytes(binary))));
    ASSERT_EQ(binary_out.str(), binary);

    // And the parsed trace itself survives a binary round-trip through
    // a randomized chunk size.
    std::stringstream chunked;
    write_binary_trace(chunked, trace, 1 + rng.bounded(17));
    const KeyedTrace back = read_trace_bytes(chunked.str());
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(back.ops[i].key, trace.ops[i].key) << "op " << i;
      ASSERT_EQ(back.ops[i].op, trace.ops[i].op) << "op " << i;
    }
  }
}

// One random normalized per-key shard (no hard anomalies: the
// streaming checker reports those as its own findings, which the batch
// facade instead labels precondition_failed -- a deliberate contract
// difference the differential below sidesteps the same way
// tests/integration_test.cpp does).
History random_shard(Rng& rng) {
  if (rng.bounded(3) == 0) {
    gen::KAtomicConfig config;
    config.writes = 3 + static_cast<int>(rng.bounded(10));
    config.k = 1 + static_cast<int>(rng.bounded(2));
    return gen::generate_k_atomic(config, rng).history;
  }
  gen::RandomMixConfig config;
  config.operations = 8 + static_cast<int>(rng.bounded(24));
  config.write_fraction = 0.3 + 0.4 * rng.uniform_double();
  config.staleness_decay = 0.3 + 0.5 * rng.uniform_double();
  config.horizon = 400 + static_cast<TimePoint>(rng.bounded(3000));
  return gen::generate_random_mix(config, rng);
}

TEST(IngestFuzz, MonitorFlagsExactlyTheBatchNoKeys) {
  const std::uint64_t seed = fuzz_seed() ^ 0x1736e57ULL;
  Rng rng(seed);
  constexpr int kTrials = 25;
  constexpr TimePoint kSlack = 500;
  // One engine per thread count, reused across trials.
  std::vector<std::unique_ptr<Engine>> engines;
  for (std::size_t threads : {1u, 4u}) {
    EngineOptions options;
    options.streaming.staleness_horizon = 1 << 24;  // in-horizon regime
    options.reorder_slack = kSlack;
    options.threads = threads;
    engines.push_back(std::make_unique<Engine>(options));
  }
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (trial " + std::to_string(trial) + ")");
    const int keys = 1 + static_cast<int>(rng.bounded(8));
    KeyedTrace trace;
    for (int k = 0; k < keys; ++k) {
      const History shard = random_shard(rng);
      for (const Operation& op : shard.operations()) {
        trace.add("k" + std::to_string(k), op);
      }
    }

    // Arrival order: global start order perturbed by < kSlack. Sorting
    // by (start + jitter) with jitter in [0, kSlack) keeps every
    // arrival within the slack promise: if an op overtakes one that
    // starts earlier, the start gap is below kSlack.
    struct Arrival {
      TimePoint sort_key;
      std::size_t index;
    };
    std::vector<Arrival> arrivals;
    arrivals.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      arrivals.push_back(
          {trace.ops[i].op.start + static_cast<TimePoint>(rng.bounded(kSlack)),
           i});
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.sort_key < b.sort_key;
                     });
    KeyedTrace arrived;
    arrived.ops.reserve(trace.size());
    for (const Arrival& arrival : arrivals) {
      arrived.ops.push_back(trace.ops[arrival.index]);
    }

    VerifyOptions batch_options;
    batch_options.k = 2;
    const Report batch = verify_keyed_trace(trace, batch_options);

    for (const auto& engine : engines) {
      SCOPED_TRACE("threads " + std::to_string(engine->thread_count()));
      const Report report = engine->monitor(arrived);

      ASSERT_EQ(report.per_key.size(), batch.per_key.size());
      EXPECT_EQ(report.monitor_totals.late_arrivals, 0u);
      for (const auto& [key, batch_result] : batch.per_key) {
        SCOPED_TRACE("key " + key);
        ASSERT_TRUE(report.per_key.count(key));
        const Verdict& verdict = batch_result.verdict;
        const KeyResult& streamed = report.per_key.at(key);
        ASSERT_TRUE(verdict.decided()) << verdict.reason;
        EXPECT_EQ(streamed.findings.empty(), verdict.yes())
            << "batch: " << verdict.reason << "\nstreamed: "
            << (streamed.findings.empty() ? "clean"
                                          : streamed.findings.front().detail);
        EXPECT_EQ(streamed.verdict.yes(), verdict.yes());
      }
    }
  }
}

// The grouping every path must reproduce: one std::map insert per op.
using NaiveGroups = std::map<std::string, std::vector<Operation>>;

NaiveGroups naive_groups(const KeyedTrace& trace) {
  NaiveGroups groups;
  for (const KeyedOperation& kop : trace.ops) {
    groups[kop.key].push_back(kop.op);
  }
  return groups;
}

// The batch report the naive grouping implies, with the selection
// accounting of a key_filter (empty = none) filled the way
// Engine::verify documents it.
Report naive_report(const NaiveGroups& groups,
                    const std::vector<std::string>& filter) {
  Report report;
  const std::set<std::string> wanted(filter.begin(), filter.end());
  for (const auto& [key, ops] : groups) {
    if (!wanted.empty() && wanted.count(key) == 0) continue;
    Verdict verdict = verify_k_atomicity(History(ops));
    report.verify_totals += verdict.stats;
    report.per_key.emplace(key, KeyResult{std::move(verdict), {}, {}});
  }
  if (!wanted.empty()) {
    report.selected = true;
    report.keys_available = groups.size();
    for (const std::string& key : wanted) {
      if (groups.count(key) > 0) {
        ++report.keys_selected;
      } else {
        report.missing_keys.push_back(key);
      }
    }
  }
  return report;
}

void expect_same_report(const Report& want, const Report& got) {
  EXPECT_FALSE(got.cancelled) << got.stop_reason;
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.keys_selected, want.keys_selected);
  EXPECT_EQ(got.keys_available, want.keys_available);
  EXPECT_EQ(got.missing_keys, want.missing_keys);
  ASSERT_TRUE(got.verify_totals == want.verify_totals);
  ASSERT_EQ(got.per_key.size(), want.per_key.size());
  auto it = got.per_key.begin();
  for (const auto& [key, result] : want.per_key) {
    ASSERT_EQ(it->first, key);
    const Verdict& v = it->second.verdict;
    ASSERT_EQ(v.outcome, result.verdict.outcome) << "key " << key;
    ASSERT_EQ(v.reason, result.verdict.reason) << "key " << key;
    ASSERT_EQ(v.witness, result.verdict.witness) << "key " << key;
    ASSERT_EQ(v.conflict, result.verdict.conflict) << "key " << key;
    ASSERT_TRUE(v.stats == result.verdict.stats) << "key " << key;
    ++it;
  }
}

using Engines = std::vector<std::unique_ptr<Engine>>;

// One engine per thread count 1-4.
Engines audit_engines() {
  Engines engines;
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    EngineOptions options;
    options.threads = threads;
    engines.push_back(std::make_unique<Engine>(options));
  }
  return engines;
}

// split_by_key and the file audit of `trace` as text (when its keys are
// text-safe), v1 and unsealed v2 -- unfiltered and through `filter` --
// must all group exactly like naive_groups.
void expect_grouped_like_naive(const Engines& engines,
                               const KeyedTrace& trace,
                               std::size_t records_per_chunk, bool text_safe,
                               const std::vector<std::string>& filter) {
  const NaiveGroups groups = naive_groups(trace);
  const KeyedHistories split = split_by_key(trace);
  ASSERT_EQ(split.per_key.size(), groups.size());
  auto it = split.per_key.begin();
  for (const auto& [key, ops] : groups) {
    ASSERT_EQ(it->first, key);
    const std::vector<Operation> got = it->second.operations();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), ops.begin(), ops.end()))
        << "key " << key;
    ++it;
  }
  const Report unfiltered = naive_report(groups, {});
  expect_same_report(unfiltered, verify_keyed_trace(trace));

  std::vector<std::pair<std::string, std::string>> files;
  if (text_safe) files.emplace_back("text", format_trace(trace));
  std::stringstream v1;
  write_binary_trace(v1, trace, records_per_chunk);
  files.emplace_back("v1", v1.str());
  files.emplace_back("unsealed v2",
                     unsealed_v2_bytes(trace, records_per_chunk));
  const Report filtered = naive_report(groups, filter);
  RunOptions run;
  run.key_filter = filter;
  for (const auto& [format, bytes] : files) {
    SCOPED_TRACE(format);
    const ScratchFile file("audit.trace");
    file.write(bytes);
    for (const auto& engine : engines) {
      SCOPED_TRACE("threads " + std::to_string(engine->thread_count()));
      expect_same_report(unfiltered,
                         engine->verify(*open_trace_source(file.path())));
      if (filter.empty()) continue;
      SCOPED_TRACE("filtered");
      expect_same_report(filtered,
                         engine->verify(*open_trace_source(file.path()), run));
    }
  }
}

// A filter of some present keys, one repeated, and some absent ones.
std::vector<std::string> random_filter(const KeyedTrace& trace, Rng& rng) {
  std::vector<std::string> filter;
  if (trace.empty()) return {"absent"};
  for (std::size_t i = 0, n = 1 + rng.bounded(3); i < n; ++i) {
    filter.push_back(trace.ops[rng.bounded(trace.size())].key);
  }
  filter.push_back(filter.front());
  filter.push_back(random_key(rng) + "#absent");
  return filter;
}

TEST(IngestFuzz, GroupingMatchesANaiveMapOnTheRoundTripTraces) {
  // The same seed and draws as FormatRoundTripsAreLossless, so these
  // are the same 60 traces (the chunk-size draw picks the chunk size
  // here too); the filter draws come from a second stream.
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);
  Rng filter_rng(seed ^ 0x6f0c9ULL);
  const Engines engines = audit_engines();
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);
    const std::size_t chunk = 1 + rng.bounded(17);
    expect_grouped_like_naive(engines, trace, chunk, /*text_safe=*/true,
                              random_filter(trace, filter_rng));
  }
}

TEST(IngestFuzz, GroupingMatchesANaiveMapOnEdgeCaseKeys) {
  Rng rng(fuzz_seed() ^ 0xed6eULL);
  const Engines engines = audit_engines();
  auto op = [&rng](TimePoint t) {
    const TimePoint finish = t + 1 + static_cast<TimePoint>(rng.bounded(5));
    const OpType type = rng.bernoulli(0.5) ? OpType::write : OpType::read;
    return Operation{t, finish, static_cast<Value>(rng.bounded(4)), kNoClient,
                     type};
  };
  {
    SCOPED_TRACE("empty trace");
    expect_grouped_like_naive(engines, KeyedTrace{}, 3, true, {"absent"});
  }
  {
    SCOPED_TRACE("single key");
    KeyedTrace trace;
    for (TimePoint t = 0; t < 50; ++t) trace.add("solo", op(3 * t));
    expect_grouped_like_naive(engines, trace, 7, true, {"solo", "other"});
  }
  {
    SCOPED_TRACE("keys differing only in length or after a NUL byte");
    const std::vector<std::string> keys = {
        "a", "aa", "aaa", std::string("a\0", 2), std::string("a\0b", 3),
        std::string("a\0c", 3), std::string("\0", 1), ""};
    KeyedTrace trace;
    for (TimePoint t = 0; t < 200; ++t) {
      trace.add(keys[rng.bounded(keys.size())], op(2 * t));
    }
    expect_grouped_like_naive(engines, trace, 5, /*text_safe=*/false,
                              {std::string("a\0b", 3), "aa", "a"});
  }
  {
    SCOPED_TRACE("10k distinct keys");
    std::vector<std::string> keys;
    for (int i = 0; i < 10'000; ++i) keys.push_back("key/" + std::to_string(i));
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.bounded(i)]);
    }
    // Every key once, in shuffled order, then as many ops again on
    // random keys, so the keys interleave in arrival order.
    KeyedTrace trace;
    TimePoint t = 0;
    for (const std::string& key : keys) trace.add(key, op(t += 2));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      trace.add(keys[rng.bounded(keys.size())], op(t += 2));
    }
    expect_grouped_like_naive(engines, trace, 4096, true,
                              {keys.front(), "key/absent"});
  }
}

}  // namespace
}  // namespace kav
