// Seeded property fuzzing of the trace store:
//
//   1. format differential -- for randomized multi-key traces, the v2
//      segment format (any block size), the v1 stream, the text
//      format, a multi-segment TraceStore, and that store after
//      compaction all decode to the same per-key content, and
//      kav::Engine returns bit-identical verdicts over every one of
//      them, both full-trace and selectively (RunOptions::key_filter
//      per key and over random subsets, on the index-backed fast path
//      AND the filtered-drain fallback);
//
//   2. the out-of-core acceptance bound -- on a 1M-operation,
//      128-key v2 trace, extracting + verifying ONE key through the
//      index must beat full-file decode + verify of the same key by
//      >= 10x (it is typically far more), with identical verdicts.
//
//   3. selection-accounting differential -- over a seeded sequence of
//      appends (shared and fresh keys), compactions, retention drops
//      and reopens, a selective run's keys_available / keys_selected /
//      missing_keys and per-key verdicts equal the answer derived from
//      the store's full key listing (every key its records name, read
//      by pull()) and a full run, after every step; likewise for a
//      standalone sealed file;
//
//   4. zero-copy differential -- the BlockCursor column-decode path
//      (IndexedTraceSource::load_key) must be bit-identical to the
//      materializing reference (load_key_materializing): same
//      Histories record for record, same Engine verdicts and Report
//      stats, full and selective, across 1/2/8 worker threads. This
//      is the safety invariant that lets the hot path skip
//      per-record materialization.
//
// The master seed comes from KAV_FUZZ_SEED when set and is printed on
// every failure; KAV_FUZZ_OPS scales the speedup workload and
// KAV_FUZZ_TRIALS overrides the per-test trial count (ci.sh uses it to
// keep the sanitizer job fast).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "store/indexed_source.h"
#include "store/segment_writer.h"
#include "store/trace_store.h"
#include "util/rng.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 0x57025ULL;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("KAV_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

int fuzz_trials(int fallback) {
  if (const char* env = std::getenv("KAV_FUZZ_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return fallback;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("kav_store_fuzz_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// Multi-key trace with enough read/write structure that verdicts are a
// mix of YES / NO / PRECONDITION-FAILED across trials: per key, writes
// of fresh values interleaved with reads of recent values, timestamps
// drawn with bounded overlap, plus occasional pure-noise reads.
KeyedTrace random_trace(Rng& rng) {
  const std::size_t key_count = 1 + rng.bounded(6);
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < key_count; ++k) {
    keys.push_back("key" + std::to_string(k));
  }
  std::vector<TimePoint> clock(key_count, 0);
  std::vector<Value> last(key_count, 0);
  std::vector<Value> next_value(key_count, 1);
  KeyedTrace trace;
  const std::size_t ops = 20 + rng.bounded(120);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t k = rng.bounded(key_count);
    TimePoint& t = clock[k];
    const TimePoint start =
        t + static_cast<TimePoint>(rng.bounded(6)) -
        static_cast<TimePoint>(rng.bounded(3));
    const TimePoint finish = start + 1 + static_cast<TimePoint>(rng.bounded(8));
    t = std::max<TimePoint>(t + 1, finish - static_cast<TimePoint>(
                                                rng.bounded(4)));
    if (rng.bernoulli(0.45)) {
      const Value value = next_value[k]++;
      trace.add(keys[k], make_write(start, finish, value,
                                    static_cast<ClientId>(rng.bounded(8))));
      last[k] = value;
    } else {
      // Mostly reads of a recent value; sometimes stale or unwritten.
      Value value = last[k];
      if (rng.bernoulli(0.25) && value > 1) {
        value -= static_cast<Value>(1 + rng.bounded(2));
      }
      trace.add(keys[k], make_read(start, finish, value,
                                   static_cast<ClientId>(rng.bounded(8))));
    }
  }
  return trace;
}

void expect_verdict_equal(const Verdict& got, const Verdict& want,
                          const std::string& context) {
  ASSERT_EQ(got.outcome, want.outcome) << context;
  ASSERT_EQ(got.witness, want.witness) << context;
  ASSERT_EQ(got.reason, want.reason) << context;
  ASSERT_EQ(got.conflict, want.conflict) << context;
  ASSERT_TRUE(got.stats == want.stats) << context;
}

void expect_reports_equal(const Report& got, const Report& want,
                          const std::string& context) {
  ASSERT_EQ(got.per_key.size(), want.per_key.size()) << context;
  auto itg = got.per_key.begin();
  auto itw = want.per_key.begin();
  for (; itg != got.per_key.end(); ++itg, ++itw) {
    ASSERT_EQ(itg->first, itw->first) << context;
    expect_verdict_equal(itg->second.verdict, itw->second.verdict,
                         context + " key " + itg->first);
  }
}

TEST(StoreFuzz, AllFormatsAndSelectiveRunsAgree) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed);
  Engine engine;
  TempDir dir("differential");
  const int kTrials = fuzz_trials(30);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);
    const std::string tag = std::to_string(trial);

    // The reference: the serial verify_keyed_trace over the in-memory
    // trace.
    const Report reference = verify_keyed_trace(trace);
    const Report full_memory = engine.verify(trace);
    ASSERT_EQ(full_memory.per_key.size(), reference.per_key.size());
    for (const auto& [key, result] : reference.per_key) {
      expect_verdict_equal(full_memory.per_key.at(key).verdict, result.verdict,
                           "memory key " + key);
    }

    // Write every on-disk shape.
    const std::string text_path = dir.file("t" + tag + ".txt");
    write_trace_file(text_path, trace);
    const std::string v1_path = dir.file("t" + tag + "_v1.kavb");
    write_binary_trace_file(v1_path, trace);
    const std::size_t block = 1 + rng.bounded(9);
    const std::string v2_path = dir.file("t" + tag + "_v2.kavb");
    {
      std::ofstream out(v2_path, std::ios::binary);
      SegmentWriterOptions options;
      options.records_per_block = block;
      options.max_buffered_records = 1 + rng.bounded(64);
      SegmentWriter writer(out, options);
      writer.add(trace);
      writer.finish();
    }
    // A store with the trace split across 1-3 segments.
    const fs::path store_dir = dir.path() / ("store" + tag);
    fs::remove_all(store_dir);
    TraceStore store(store_dir);
    {
      const std::size_t cuts = 1 + rng.bounded(3);
      const std::size_t per = trace.size() / cuts + 1;
      KeyedTrace part;
      for (const KeyedOperation& kop : trace.ops) {
        part.ops.push_back(kop);
        if (part.size() >= per) {
          store.append(part, 1 + rng.bounded(9));
          part = KeyedTrace{};
        }
      }
      if (!part.empty()) store.append(part, 1 + rng.bounded(9));
    }

    // Full runs over every source agree with memory.
    for (const std::string& path : {text_path, v1_path, v2_path}) {
      auto source = open_trace_source(path);
      expect_reports_equal(engine.verify(*source), full_memory,
                           "full " + path);
    }
    expect_reports_equal(engine.verify(*store.open_source()), full_memory,
                         "full store");

    // Selective runs: per key and a random subset (plus a key that
    // does not exist), over the indexed fast path (v2, store) and the
    // filtered-drain fallback (v1, text).
    const KeyedHistories shards = split_by_key(trace);
    std::vector<std::vector<std::string>> filters;
    for (const auto& [key, history] : shards.per_key) filters.push_back({key});
    std::vector<std::string> subset;
    for (const auto& [key, history] : shards.per_key) {
      if (rng.bernoulli(0.5)) subset.push_back(key);
    }
    subset.push_back("no-such-key");
    filters.push_back(subset);

    for (const std::vector<std::string>& filter : filters) {
      RunOptions run;
      run.key_filter = filter;
      const Report want = [&] {
        Report expected;
        for (const std::string& key : filter) {
          const auto it = full_memory.per_key.find(key);
          if (it != full_memory.per_key.end()) {
            expected.per_key.emplace(key, it->second);
          }
        }
        return expected;
      }();
      for (const std::string& path : {v1_path, v2_path, text_path}) {
        auto source = open_trace_source(path);
        const Report got = engine.verify(*source, run);
        expect_reports_equal(got, want, "selective " + path);
        ASSERT_TRUE(got.selected);
        ASSERT_EQ(got.keys_available, shards.per_key.size());
      }
      const Report from_store = engine.verify(*store.open_source(), run);
      expect_reports_equal(from_store, want, "selective store");
      const Report from_memory = engine.verify(trace, run);
      expect_reports_equal(from_memory, want, "selective memory");
    }

    // Compaction changes the file layout, never the verdicts -- and
    // every byte it writes must survive a full integrity re-scan.
    store.compact(0, 1 + rng.bounded(9));
    const FsckReport fsck = store.fsck();
    ASSERT_TRUE(fsck.ok()) << fsck.errors.front();
    ASSERT_EQ(fsck.records, store.total_records());
    expect_reports_equal(engine.verify(*store.open_source()), full_memory,
                         "full compacted store");
    if (!shards.per_key.empty()) {
      RunOptions run;
      run.key_filter = {shards.per_key.begin()->first};
      Report want;
      want.per_key.emplace(
          shards.per_key.begin()->first,
          full_memory.per_key.at(shards.per_key.begin()->first));
      expect_reports_equal(engine.verify(*store.open_source(), run), want,
                           "selective compacted store");
    }
  }
}

// --- The selection-accounting differential --------------------------------

// A selective run judged against what a full key listing and a full run
// say: the selection fields from `listing`, each present key's verdict
// from `full`.
void expect_selection_matches_listing(const Report& got,
                                      const std::vector<std::string>& wanted,
                                      const std::vector<std::string>& listing,
                                      const Report& full,
                                      const std::string& context) {
  ASSERT_TRUE(got.selected) << context;
  ASSERT_EQ(got.keys_available, listing.size()) << context;
  std::vector<std::string> sorted_wanted = wanted;
  std::sort(sorted_wanted.begin(), sorted_wanted.end());
  sorted_wanted.erase(std::unique(sorted_wanted.begin(), sorted_wanted.end()),
                      sorted_wanted.end());
  Report want;
  std::size_t selected = 0;
  std::vector<std::string> missing;
  for (const std::string& key : sorted_wanted) {
    if (std::binary_search(listing.begin(), listing.end(), key)) {
      ++selected;
      want.per_key.emplace(key, full.per_key.at(key));
    } else {
      missing.push_back(key);
    }
  }
  ASSERT_EQ(got.keys_selected, selected) << context;
  ASSERT_EQ(got.missing_keys, missing) << context;
  expect_reports_equal(got, want, context);
}

RunOptions selecting(const std::vector<std::string>& keys) {
  RunOptions run;
  run.key_filter = keys;
  return run;
}

// Per-key operation generator whose state outlives one append, so a
// shared key's history continues across segments: fresh writes, reads
// of the latest value, and now and then a stale read.
struct KeyWriter {
  TimePoint clock = 0;
  Value last = 0;
  Value next = 1;

  void add(const std::string& key, Rng& rng, KeyedTrace& trace) {
    const TimePoint start = clock + static_cast<TimePoint>(rng.bounded(4));
    const TimePoint finish = start + 1 + static_cast<TimePoint>(rng.bounded(5));
    clock = finish - static_cast<TimePoint>(rng.bounded(2));
    if (last == 0 || rng.bernoulli(0.5)) {
      last = next++;
      trace.add(key, make_write(start, finish, last,
                                static_cast<ClientId>(rng.bounded(4))));
    } else {
      const Value value = rng.bernoulli(0.1) && last > 1 ? last - 1 : last;
      trace.add(key, make_read(start, finish, value,
                               static_cast<ClientId>(rng.bounded(4))));
    }
  }
};

TEST(StoreFuzz, SelectionAccountingMatchesFullListing) {
  const std::uint64_t seed = fuzz_seed() ^ 0x5E1EC7;
  Rng rng(seed);
  TempDir dir("selection");
  const fs::path store_dir = dir.path() / "store";
  auto store = std::make_unique<TraceStore>(store_dir);
  Engine engine;
  std::map<std::string, KeyWriter> writers;  // every key ever appended
  std::size_t fresh_names = 0;
  std::map<std::string, int> steps_run;
  const int kSteps = fuzz_trials(120);
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (step " + std::to_string(step) + ")");
    const std::size_t action = step < 3 ? 0 : rng.bounded(5);
    std::string what;
    if (action <= 1) {
      // Append: some keys that older segments (may) hold, some new.
      KeyedTrace batch;
      const std::size_t shared = writers.empty() ? 0 : rng.bounded(5);
      const std::size_t fresh = rng.bounded(4) + (shared == 0 ? 1 : 0);
      std::vector<std::string> keys;
      for (std::size_t i = 0; i < shared; ++i) {
        auto it = writers.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.bounded(writers.size())));
        keys.push_back(it->first);
      }
      for (std::size_t i = 0; i < fresh; ++i) {
        keys.push_back("fresh" + std::to_string(fresh_names++));
      }
      const std::size_t ops = keys.size() * (1 + rng.bounded(6));
      for (std::size_t i = 0; i < ops; ++i) {
        const std::string& key = keys[rng.bounded(keys.size())];
        writers[key].add(key, rng, batch);
      }
      store->append(batch, 1 + rng.bounded(5));
      what = "append";
    } else if (action == 2) {
      store->compact(rng.bounded(store->segment_count() + 1),
                     1 + rng.bounded(5));
      what = "compact";
    } else if (action == 3) {
      std::uint64_t bytes = 0;
      for (const SegmentInfo& info : store->segments()) bytes += info.bytes;
      CompactionOptions options;
      options.fanout = 1000;  // retention only: no fold applies
      options.retain_bytes = std::max<std::uint64_t>(
          1, bytes * (3 + rng.bounded(6)) / 10);
      what = store->run_maintenance(options) > 0 ? "retention drop"
                                                 : "retention no-op";
    } else {
      store.reset();
      store = std::make_unique<TraceStore>(store_dir);
      what = "reopen";
    }
    SCOPED_TRACE("after " + what);
    ++steps_run[what];

    std::set<std::string> named;
    for (const KeyedOperation& kop : drain(*store->open_source()).ops) {
      named.insert(kop.key);
    }
    const std::vector<std::string> listing(named.begin(), named.end());
    auto source = store->open_source();
    ASSERT_EQ(source->key_count(), listing.size());
    ASSERT_EQ(source->selectable_keys(), listing);
    const Report full = engine.verify(*store->open_source());
    ASSERT_EQ(full.per_key.size(), listing.size());

    // Listed keys, keys retention dropped, and names never written.
    std::vector<std::string> candidates;
    for (const auto& [key, writer] : writers) candidates.push_back(key);
    candidates.push_back("never-written");
    for (int query = 0; query < 4; ++query) {
      std::vector<std::string> wanted;
      const std::size_t size = 1 + rng.bounded(5);
      for (std::size_t i = 0; i < size; ++i) {
        wanted.push_back(candidates[rng.bounded(candidates.size())]);
      }
      const Report got = engine.verify(*source, selecting(wanted));
      expect_selection_matches_listing(got, wanted, listing, full,
                                       "query " + std::to_string(query));
    }
  }

  if (kSteps >= 60) {
    for (const char* what : {"append", "compact", "retention drop", "reopen"}) {
      EXPECT_GT(steps_run[what], 0) << what << " never ran";
    }
  }

  // A standalone sealed file, opened the way trace_check opens one.
  KeyedTrace trace;
  for (auto& [key, writer] : writers) {
    for (std::size_t i = 0, n = 1 + rng.bounded(4); i < n; ++i) {
      writer.add(key, rng, trace);
    }
  }
  const std::string path = dir.file("sealed.kavb");
  write_binary_trace_file(path, trace, kBinaryTraceVersion2);
  auto file = open_trace_source(path);
  auto* selective = dynamic_cast<IndexedTraceSource*>(file.get());
  ASSERT_NE(selective, nullptr);
  std::vector<std::string> listing;
  for (const auto& [key, history] : split_by_key(trace).per_key) {
    listing.push_back(key);
  }
  ASSERT_EQ(selective->key_count(), listing.size());
  const Report full = engine.verify(trace);
  std::vector<std::string> wanted = {"never-written", listing.front(),
                                     listing.back()};
  expect_selection_matches_listing(engine.verify(*file, selecting(wanted)),
                                   wanted, listing, full, "sealed file");
}

// --- The zero-copy differential -------------------------------------------

// The BlockCursor column-decode path against the materializing
// reference, record for record and verdict for verdict. Every trial
// writes a fresh randomized trace at a random block size, then checks:
//   - load_key == load_key_materializing as raw operation sequences,
//     for every key;
//   - Engine reports over the indexed source are bit-identical to the
//     in-memory reference, full-trace and per-key selective, at 1, 2,
//     and 8 worker threads (the single-shard inline fast path, the
//     smallest pool, and an oversubscribed pool all take this path).
TEST(StoreFuzz, ZeroCopyDecodeMatchesMaterializingPath) {
  const std::uint64_t seed = fuzz_seed() ^ 0x2ECC;
  Rng rng(seed);
  TempDir dir("zerocopy");
  const int kTrials = fuzz_trials(25);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("reproduce with KAV_FUZZ_SEED=" + std::to_string(fuzz_seed()) +
                 " (trial " + std::to_string(trial) + ")");
    const KeyedTrace trace = random_trace(rng);
    const std::string path = dir.file("z" + std::to_string(trial) + ".kavb");
    {
      std::ofstream out(path, std::ios::binary);
      SegmentWriterOptions options;
      options.records_per_block = 1 + rng.bounded(9);
      options.max_buffered_records = 1 + rng.bounded(64);
      SegmentWriter writer(out, options);
      writer.add(trace);
      writer.finish();
    }
    IndexedTraceSource source(path);

    // Record-level identity, per key.
    for (const std::string& key : source.selectable_keys()) {
      const History reference = source.load_key_materializing(key);
      const History zero_copy = source.load_key(key);
      ASSERT_EQ(zero_copy.size(), reference.size()) << "key " << key;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(zero_copy.op(i), reference.op(i))
            << "key " << key << " op " << i;
      }
    }

    // Verdict/Report identity across thread counts, full + selective.
    const Report want = Engine().verify(trace);
    for (std::size_t threads : {1ULL, 2ULL, 8ULL}) {
      EngineOptions options;
      options.threads = threads;
      Engine engine(options);
      const std::string context = " threads=" + std::to_string(threads);
      expect_reports_equal(engine.verify(*open_trace_source(path)), want,
                           "zero-copy full" + context);
      for (const auto& [key, keyed] : want.per_key) {
        RunOptions run;
        run.key_filter = {key};
        Report expected;
        expected.per_key.emplace(key, keyed);
        expect_reports_equal(
            engine.verify(*open_trace_source(path), run), expected,
            "zero-copy selective " + key + context);
      }
    }
  }
}

// --- The out-of-core speedup bound ----------------------------------------

std::size_t speedup_ops() {
  if (const char* env = std::getenv("KAV_FUZZ_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1'000'000;
}

// Steady per-key write/read cadence over many keys: cheap to verify
// per key (the trace is atomic by construction), so the measured gap
// is dominated by decode volume -- exactly what the index removes.
KeyedTrace speedup_trace(std::size_t ops, int keys) {
  Rng rng(2026);
  KeyedTrace trace;
  std::vector<TimePoint> clocks(static_cast<std::size_t>(keys), 0);
  std::vector<Value> next_value(static_cast<std::size_t>(keys), 1);
  int key = 0;
  while (trace.size() < ops) {
    const auto k = static_cast<std::size_t>(key);
    const Value value = next_value[k]++;
    TimePoint t = clocks[k];
    const TimePoint len = 2 + static_cast<TimePoint>(rng.bounded(6));
    trace.add("key" + std::to_string(key),
              make_write(t, t + len, value, static_cast<ClientId>(k % 16)));
    t += len + 1;
    const std::size_t reads = rng.bounded(3);
    for (std::size_t r = 0; r < reads && trace.size() < ops; ++r) {
      const TimePoint rlen = 1 + static_cast<TimePoint>(rng.bounded(4));
      trace.add("key" + std::to_string(key),
                make_read(t, t + rlen, value, static_cast<ClientId>(r)));
      t += rlen + 1;
    }
    clocks[k] = t;
    key = (key + 1) % keys;
  }
  return trace;
}

TEST(StoreFuzz, IndexedSingleKeyBeatsFullDecodeTenfold) {
  using clock = std::chrono::steady_clock;
  const std::size_t ops = speedup_ops();
  constexpr int kKeys = 128;
  TempDir dir("speedup");
  const KeyedTrace trace = speedup_trace(ops, kKeys);
  ASSERT_GE(trace.size(), ops);

  const std::string v1_path = dir.file("flat.kavb");
  write_binary_trace_file(v1_path, trace);
  const std::string v2_path = dir.file("indexed.kavb");
  write_binary_trace_file(v2_path, trace, kBinaryTraceVersion2);

  Engine engine;
  RunOptions run;
  run.key_filter = {"key17"};

  // Full-file decode + verify of the same key: the v1 file offers no
  // index, so Engine decodes every record and filters while draining.
  const auto full_begin = clock::now();
  auto flat = open_trace_source(v1_path);
  ASSERT_EQ(dynamic_cast<IndexedTraceSource*>(flat.get()), nullptr);
  const Report full = engine.verify(*flat, run);
  const double full_seconds =
      std::chrono::duration<double>(clock::now() - full_begin).count();

  // Index-backed: open the segment, decode ONLY key17's blocks,
  // verify. Best of three, since the bound is about work, not one
  // scheduler hiccup.
  double indexed_seconds = 1e100;
  Report selective;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto begin = clock::now();
    auto indexed = open_trace_source(v2_path);
    ASSERT_NE(dynamic_cast<IndexedTraceSource*>(indexed.get()), nullptr);
    selective = engine.verify(*indexed, run);
    indexed_seconds = std::min(
        indexed_seconds,
        std::chrono::duration<double>(clock::now() - begin).count());
  }

  ASSERT_EQ(selective.per_key.size(), 1u);
  expect_verdict_equal(selective.per_key.at("key17").verdict,
                       full.per_key.at("key17").verdict, "key17");
  EXPECT_TRUE(selective.per_key.at("key17").verdict.yes());

  const double speedup = full_seconds / indexed_seconds;
  RecordProperty("full_seconds", std::to_string(full_seconds));
  RecordProperty("indexed_seconds", std::to_string(indexed_seconds));
  RecordProperty("speedup", std::to_string(speedup));
  std::printf("single-key via index: %.4fs vs full decode %.4fs -> %.1fx\n",
              indexed_seconds, full_seconds, speedup);
  EXPECT_GE(speedup, 10.0)
      << "indexed single-key verification should beat full decode by >= 10x "
         "(full "
      << full_seconds << "s, indexed " << indexed_seconds << "s)";
}

}  // namespace
}  // namespace kav
