// Unit tests for the ingest subsystem: the .kavb binary trace format
// read through open_trace_source (header validation, chunking, key
// interning, corruption reporting), text <-> binary conversion, the
// ReorderBuffer's watermark contract, the
// streaming checker's reuse hook, and the KeyedStreamingMonitor end to
// end (including its bounded-window
// guarantee on a long steady stream).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/streaming.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/keyed_monitor.h"
#include "ingest/reorder_buffer.h"
#include "ingest/trace_source.h"
#include "chunk_feed.h"
#include "scratch_file.h"
#include "store/mapped_segment.h"
#include "store/trace_store.h"
#include "util/rng.h"

namespace kav {
namespace {

void expect_traces_equal(const KeyedTrace& a, const KeyedTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.ops[i].key, b.ops[i].key) << "op " << i;
    EXPECT_EQ(a.ops[i].op, b.ops[i].op) << "op " << i;
  }
}

KeyedTrace sample_trace() {
  KeyedTrace trace;
  trace.add("alpha", make_write(0, 10, 42, 7));
  trace.add("alpha", make_read(12, 20, 42));
  trace.add("beta", make_write(-5, 3, 1));
  trace.add("alpha", make_write(25, 30, 43, 0));
  trace.add("beta", make_read(4, 9, 1, 3));
  return trace;
}

// --- Binary format ---------------------------------------------------------
//
// Every read goes through drain(*open_trace_source(path)), the one path
// callers use: the bytes are written to a per-test scratch file first.

using testing_util::read_trace_bytes;
using testing_util::ScratchFile;

std::string binary_bytes(const KeyedTrace& trace,
                         std::size_t records_per_chunk = 4096) {
  std::stringstream buffer;
  write_binary_trace(buffer, trace, records_per_chunk);
  return buffer.str();
}

// Reads `bytes`, expecting a std::runtime_error whose message names a
// byte offset and contains `needle`.
void expect_read_error(const std::string& bytes, const std::string& needle) {
  try {
    read_trace_bytes(bytes);
    FAIL() << "expected an error containing \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find("at byte "), std::string::npos) << what;
  }
}

// One-key, one-record file: header(8) + chunk header(8) + key entry
// (2 + 1) puts the record at byte 19.
constexpr std::size_t kRecordAt = 8 + 8 + 3;

TEST(BinaryTrace, RoundTripPreservesEverything) {
  const KeyedTrace trace = sample_trace();
  expect_traces_equal(trace, read_trace_bytes(binary_bytes(trace)));
}

TEST(BinaryTrace, EmptyTraceIsJustAHeader) {
  const std::string bytes = binary_bytes(KeyedTrace{});
  EXPECT_EQ(bytes.size(), kBinaryTraceHeaderBytes);
  EXPECT_TRUE(read_trace_bytes(bytes).empty());
}

TEST(BinaryTrace, ChunkingIsInvisibleToTheReader) {
  const KeyedTrace trace = sample_trace();
  for (std::size_t chunk : {1u, 2u, 3u, 100u}) {
    expect_traces_equal(trace, read_trace_bytes(binary_bytes(trace, chunk)));
  }
}

TEST(BinaryTrace, KeysAreInternedOncePerFile) {
  // 3-record chunks split "alpha"'s uses across chunks; the key bytes
  // must still be written once, in the chunk that introduces them.
  const KeyedTrace trace = sample_trace();
  const std::string bytes = binary_bytes(trace, 3);
  const auto occurrences = [&](const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t at = bytes.find(needle); at != std::string::npos;
         at = bytes.find(needle, at + 1)) {
      ++count;
    }
    return count;
  };
  EXPECT_EQ(occurrences("alpha"), 1u);
  EXPECT_EQ(occurrences("beta"), 1u);
  expect_traces_equal(trace, read_trace_bytes(bytes));
}

TEST(BinaryTrace, BinaryKeysMayContainWhitespace) {
  KeyedTrace trace;
  trace.add("user profile:42\tshard 1", make_write(0, 5, 1));
  expect_traces_equal(trace, read_trace_bytes(binary_bytes(trace)));
}

TEST(BinaryTrace, StreamingReaderYieldsStableViews) {
  const KeyedTrace trace = sample_trace();
  const ScratchFile file("views.kavb");
  file.write(binary_bytes(trace, 2));
  const MappedSegment segment(file.path());
  MappedSegment::Cursor cursor = segment.cursor();
  std::vector<std::string_view> keys;
  KeyId key_id = 0;
  Operation op;
  while (cursor.next(key_id, op)) keys.push_back(cursor.key(key_id));
  ASSERT_EQ(keys.size(), trace.size());
  // Views handed out before later chunks were walked must still be
  // valid.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], trace.ops[i].key) << "op " << i;
  }
}

TEST(BinaryTrace, RejectsBadMagic) {
  // Without the magic a file is not binary at all: open_trace_source
  // hands it to the text parser, which rejects it by line.
  EXPECT_THROW(read_trace_bytes("not a kavb file at all"), std::runtime_error);
  // The binary decoder itself names the problem.
  const ScratchFile file("magic.kavb");
  file.write("not a kavb file at all");
  try {
    const MappedSegment segment(file.path());
    FAIL() << "expected a bad-magic error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(BinaryTrace, RejectsUnsupportedVersion) {
  std::string bytes = binary_bytes(sample_trace());
  bytes[4] = '\x07';  // version low byte
  expect_read_error(bytes, "version 7");
}

TEST(BinaryTrace, ReportsTruncationWithByteOffset) {
  const std::string bytes = binary_bytes(sample_trace());
  // Chop mid-record; the reader must say what it was reading and where.
  expect_read_error(bytes.substr(0, bytes.size() - 5), "truncated");
  // And mid-header.
  expect_read_error(bytes.substr(0, 5), "truncated header");
}

TEST(BinaryTrace, RejectsEmptyChunk) {
  std::string bytes = binary_bytes(KeyedTrace{});
  bytes.append(8, '\0');  // chunk header: 0 new keys, 0 records
  expect_read_error(bytes, "empty chunk");
}

TEST(BinaryTrace, RejectsOutOfRangeKeyId) {
  KeyedTrace trace;
  trace.add("k", make_write(0, 5, 1));
  std::string bytes = binary_bytes(trace);
  bytes[kRecordAt] = '\x09';  // key_id = 9, table has 1 entry
  expect_read_error(bytes, "key id 9");
}

TEST(BinaryTrace, RejectsBadTypeByte) {
  KeyedTrace trace;
  trace.add("k", make_write(0, 5, 1));
  std::string bytes = binary_bytes(trace);
  bytes[bytes.size() - 1] = '\x05';  // type byte is the record's last
  expect_read_error(bytes, "bad record type byte 5");
}

TEST(BinaryTrace, RejectsStartNotBeforeFinish) {
  KeyedTrace trace;
  trace.add("k", make_write(0, 5, 1));
  std::string bytes = binary_bytes(trace);
  bytes[kRecordAt + 4] = '\x05';  // start (low byte) = 5 = finish
  expect_read_error(bytes, "start must be < finish");
}

TEST(BinaryTrace, WriterRejectsMalformedIntervals) {
  std::stringstream buffer;
  BinaryTraceWriter writer(buffer);
  EXPECT_THROW(writer.add("k", make_write(10, 10, 1)), std::invalid_argument);
}

TEST(BinaryTrace, FileRoundTripAndSniffing) {
  const KeyedTrace trace = sample_trace();
  const ScratchFile binary("trace.kavb");
  const ScratchFile text("trace.txt");
  write_binary_trace_file(binary.path(), trace);
  write_trace_file(text.path(), trace);
  EXPECT_TRUE(is_binary_trace_file(binary.path()));
  EXPECT_FALSE(is_binary_trace_file(text.path()));
  expect_traces_equal(trace, drain(*open_trace_source(binary.path())));
  expect_traces_equal(trace, drain(*open_trace_source(text.path())));
}

TEST(BinaryTrace, ConvertersAreLossless) {
  // Conversion is composition: read_trace / format_trace on the text
  // side, write_binary_trace / open_trace_source on the binary side.
  const KeyedTrace trace = sample_trace();
  const std::string text = format_trace(trace);
  // text -> binary -> text reproduces the text bytes exactly.
  EXPECT_EQ(format_trace(read_trace_bytes(binary_bytes(parse_trace(text)))),
            text);
  // binary -> text -> binary reproduces the binary bytes exactly.
  const std::string binary = binary_bytes(trace);
  EXPECT_EQ(binary_bytes(parse_trace(format_trace(read_trace_bytes(binary)))),
            binary);
}

// --- ReorderBuffer ---------------------------------------------------------

TEST(ReorderBuffer, InOrderStreamPassesThrough) {
  ReorderBuffer buffer(/*slack=*/0);
  Operation out;
  EXPECT_TRUE(buffer.push(make_write(0, 5, 1)));
  EXPECT_FALSE(buffer.pop(out));  // nothing newer seen yet
  EXPECT_TRUE(buffer.push(make_read(6, 9, 1)));
  ASSERT_TRUE(buffer.pop(out));
  EXPECT_EQ(out.start, 0);
  EXPECT_FALSE(buffer.pop(out));  // start-6 op still inside slack 0 of max 6
  buffer.flush();
  ASSERT_TRUE(buffer.pop(out));
  EXPECT_EQ(out.start, 6);
  EXPECT_FALSE(buffer.pop(out));
}

TEST(ReorderBuffer, RestoresStartOrderWithinSlack) {
  ReorderBuffer buffer(/*slack=*/10);
  // Arrival order 20, 14, 26, 23, 35 -- disorder bounded by 10.
  for (TimePoint start : {20, 14, 26, 23, 35}) {
    ASSERT_TRUE(buffer.push(make_write(start, start + 2, start)));
  }
  buffer.flush();
  std::vector<TimePoint> released;
  Operation out;
  while (buffer.pop(out)) released.push_back(out.start);
  EXPECT_EQ(released, (std::vector<TimePoint>{14, 20, 23, 26, 35}));
  EXPECT_EQ(buffer.accepted(), 5u);
  EXPECT_EQ(buffer.late_rejected(), 0u);
}

TEST(ReorderBuffer, WatermarkIsMonotoneAndHonest) {
  ReorderBuffer buffer(/*slack=*/5);
  EXPECT_EQ(buffer.watermark(), kTimeMin);
  buffer.push(make_write(100, 105, 1));
  EXPECT_EQ(buffer.watermark(), 94);  // 100 - 5 - 1
  buffer.push(make_write(96, 99, 2));  // within slack: accepted
  EXPECT_EQ(buffer.watermark(), 94);  // never regresses
  buffer.push(make_write(200, 205, 3));
  EXPECT_EQ(buffer.watermark(), 194);
  // Everything at or below the watermark must be ready, in order.
  Operation out;
  ASSERT_TRUE(buffer.pop(out));
  EXPECT_EQ(out.start, 96);
  ASSERT_TRUE(buffer.pop(out));
  EXPECT_EQ(out.start, 100);
  EXPECT_FALSE(buffer.pop(out));  // 200 > watermark 194
}

TEST(ReorderBuffer, RejectsArrivalsBeyondTheSlack) {
  ReorderBuffer buffer(/*slack=*/5);
  EXPECT_TRUE(buffer.push(make_write(100, 105, 1)));
  EXPECT_FALSE(buffer.push(make_write(90, 95, 2)));  // 90 <= watermark 94
  EXPECT_EQ(buffer.late_rejected(), 1u);
  EXPECT_EQ(buffer.accepted(), 1u);
  EXPECT_EQ(buffer.pending(), 1u);
}

// --- StreamingChecker reuse hook -------------------------------------------

TEST(StreamingReset, ResetChecksLikeAFreshInstance) {
  const History bad = gen::generate_forced_separation(2);
  StreamingChecker checker;
  for (OpId id : bad.by_start()) {
    checker.add(bad.op(id));
    checker.advance_watermark(bad.op(id).start);
  }
  ASSERT_FALSE(checker.finish().yes());
  checker.reset();
  EXPECT_EQ(checker.stats().operations_ingested, 0u);
  EXPECT_EQ(checker.window_size(), 0u);
  EXPECT_EQ(checker.watermark(), kTimeMin);
  EXPECT_TRUE(checker.violations().empty());
  // A clean stream after reset() must come out clean -- no residue.
  Rng rng(3);
  gen::KAtomicConfig config;
  config.writes = 12;
  config.k = 2;
  const History good = gen::generate_k_atomic(config, rng).history;
  for (OpId id : good.by_start()) {
    checker.add(good.op(id));
    checker.advance_watermark(good.op(id).start);
  }
  EXPECT_TRUE(checker.finish().yes());
}

// --- KeyedStreamingMonitor -------------------------------------------------

EngineOptions test_options() {
  EngineOptions options;
  options.streaming.staleness_horizon = 1 << 24;
  options.reorder_slack = 1 << 20;
  return options;
}

// A monitor on its own pool and private registry, wired the way
// Engine::monitor wires one onto the engine's.
struct MonitorHarness {
  explicit MonitorHarness(std::size_t threads,
                          const EngineOptions& options = test_options())
      : pool(threads), monitor(pool, registry, options), feeder(monitor) {}

  // One operation as a chunk of its own.
  void ingest(std::string_view key, const Operation& op) {
    feeder.ingest(key, op);
  }

  pipeline::ThreadPool pool;
  obs::MetricsRegistry registry;
  KeyedStreamingMonitor monitor;
  testing_util::ChunkFeeder feeder;
};

Report monitor_on_engine(const KeyedTrace& trace, std::size_t threads) {
  EngineOptions options = test_options();
  options.threads = threads;
  Engine engine(options);
  return engine.monitor(trace);
}

TEST(KeyedMonitor, CleanStreamsComeOutClean) {
  Rng rng(11);
  KeyedTrace trace;
  for (int k = 0; k < 4; ++k) {
    gen::KAtomicConfig config;
    config.writes = 15;
    config.k = 2;
    const History shard = gen::generate_k_atomic(config, rng).history;
    for (const Operation& op : shard.operations()) {
      trace.add("k" + std::to_string(k), op);
    }
  }
  const Report report = monitor_on_engine(trace, 2);
  ASSERT_EQ(report.per_key.size(), 4u);
  EXPECT_EQ(report.monitor_totals.keys, 4u);
  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
  EXPECT_EQ(report.monitor_totals.late_arrivals, 0u);
  EXPECT_EQ(report.monitor_totals.violations, 0u);
  for (const auto& [key, result] : report.per_key) {
    EXPECT_TRUE(result.verdict.yes()) << key << ": " << result.verdict.reason;
    EXPECT_TRUE(result.findings.empty()) << key;
  }
}

TEST(KeyedMonitor, FlagsExactlyTheViolatingKey) {
  Rng rng(12);
  KeyedTrace trace;
  gen::KAtomicConfig config;
  config.writes = 15;
  config.k = 2;
  const History good = gen::generate_k_atomic(config, rng).history;
  for (const Operation& op : good.operations()) trace.add("good", op);
  const History bad = gen::generate_forced_separation(2);
  for (const Operation& op : bad.operations()) trace.add("bad", op);

  const Report report = monitor_on_engine(trace, 2);
  EXPECT_TRUE(report.per_key.at("good").verdict.yes());
  EXPECT_TRUE(report.per_key.at("good").findings.empty());
  EXPECT_TRUE(report.per_key.at("bad").verdict.no());
  EXPECT_FALSE(report.per_key.at("bad").findings.empty());
  ASSERT_EQ(report.monitor_totals.violations_per_key.size(), 1u);
  EXPECT_EQ(report.monitor_totals.violations_per_key.begin()->first, "bad");
  // Report::summary(): monitor summaries are grep-compatible with batch
  // summaries.
  EXPECT_EQ(report.summary(),
            "1/2 keys atomic within bound, 1 NO, 0 undecided, 0 invalid");
}

TEST(KeyedMonitor, ReportsLateArrivalsAsViolations) {
  EngineOptions options = test_options();
  options.reorder_slack = 5;
  MonitorHarness harness(1, options);
  harness.ingest("k", make_write(100, 105, 1));
  harness.ingest("k", make_read(10, 15, 1));  // 90 ticks behind: late
  const Report report = harness.monitor.finish();
  EXPECT_EQ(report.monitor_totals.late_arrivals, 1u);
  ASSERT_EQ(report.per_key.size(), 1u);
  const KeyResult& result = report.per_key.at("k");
  EXPECT_TRUE(result.verdict.no());
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings.back().kind,
            StreamingViolation::Kind::late_arrival);
}

TEST(KeyedMonitor, BackpressureWithTinyQueuesStillCompletes) {
  EngineOptions options = test_options();
  options.queue_capacity = 1;
  Rng rng(13);
  gen::KAtomicConfig config;
  config.writes = 40;
  config.k = 2;
  const History shard = gen::generate_k_atomic(config, rng).history;
  MonitorHarness harness(2, options);
  for (const Operation& op : shard.operations()) harness.ingest("k", op);
  const Report report = harness.monitor.finish();
  EXPECT_EQ(report.monitor_totals.violations, 0u);
  EXPECT_EQ(report.monitor_totals.operations_ingested, shard.size());
}

// A malformed operation (start >= finish) is rejected by the key's
// checker: one finding, and the rest of the key's stream is checked.
TEST(KeyedMonitor, MalformedOperationIsOneFindingNotAWedgedKey) {
  MonitorHarness harness(2);
  harness.ingest("k", make_write(0, 5, 1));
  harness.ingest("k", make_write(7, 7, 2));  // malformed
  harness.ingest("k", make_read(8, 9, 1));
  harness.ingest("ok", make_write(0, 5, 1));
  const Report report = harness.monitor.finish();
  const KeyResult& k = report.per_key.at("k");
  ASSERT_EQ(k.findings.size(), 1u);
  EXPECT_EQ(k.findings[0].kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(k.findings[0].detail.find("start >= finish"), std::string::npos);
  EXPECT_EQ(k.stream.operations_ingested, 2u);
  EXPECT_TRUE(report.per_key.at("ok").verdict.yes());
}

TEST(KeyedMonitor, IngestAfterFinishThrows) {
  MonitorHarness harness(1);
  harness.ingest("k", make_write(0, 5, 1));
  harness.monitor.finish();
  EXPECT_THROW(harness.ingest("k", make_write(10, 15, 2)), std::logic_error);
}

TEST(KeyedMonitor, FinishTwiceThrows) {
  MonitorHarness harness(1);
  harness.monitor.finish();
  EXPECT_THROW(harness.monitor.finish(), std::logic_error);
}

TEST(KeyedMonitor, MidStreamStatsSeeIngestedOps) {
  MonitorHarness harness(1);
  for (TimePoint t = 0; t < 100; t += 10) {
    harness.ingest("a", make_write(t, t + 4, t));
    harness.ingest("b", make_write(t + 1, t + 5, t + 1000));
  }
  const MonitorStats stats = harness.monitor.stats();
  EXPECT_EQ(stats.operations_ingested, 20u);
  EXPECT_EQ(stats.keys, 2u);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
  harness.monitor.finish();
}

// The memory bound the subsystem exists for: on a steady stream, the
// peak window tracks the slack + horizon, not the trace length --
// quadrupling the trace must not budge it.
TEST(KeyedMonitor, PeakWindowIsBoundedBySlackPlusHorizon) {
  const auto run = [](std::size_t ops) {
    EngineOptions options;
    options.streaming.staleness_horizon = 1'000;
    options.reorder_slack = 100;
    options.queue_capacity = 64;  // keeps un-drained backlog small too
    MonitorHarness harness(1, options);
    TimePoint t = 0;
    for (std::size_t i = 0; i < ops; i += 2) {
      const auto value = static_cast<Value>(i);
      harness.ingest("k", make_write(t, t + 5, value));
      harness.ingest("k", make_read(t + 6, t + 9, value));
      t += 10;  // ~0.2 ops per tick: window ~ (1000 + 100) / 5
    }
    const Report report = harness.monitor.finish();
    EXPECT_EQ(report.monitor_totals.violations, 0u);
    return report.monitor_totals.peak_window;
  };
  const std::size_t peak_short = run(10'000);
  const std::size_t peak_long = run(40'000);
  // Ops in flight within one slack+horizon span is ~220, plus at most
  // one queue of backlog -- generous headroom below, but far below
  // O(trace): quadrupling the stream must not move the ceiling.
  EXPECT_LE(peak_short, 1'000u);
  EXPECT_LE(peak_long, 1'000u);
}

// The in-flight bound ingest/keyed_monitor.h states: ingest() appends a
// partition's share only below queue_capacity, so with the drainer
// stalled a queue reaches at most capacity - 1 plus one chunk, and the
// ingester then blocks. While it is blocked, a second ingester is
// refused (single-ingester contract).
TEST(KeyedMonitor, PartitionQueueHoldsAtMostCapacityPlusOneChunk) {
  constexpr std::size_t kCapacity = 10;
  constexpr std::size_t kChunk = 7;
  EngineOptions options = test_options();
  options.queue_capacity = kCapacity;
  MonitorHarness harness(1, options);
  // Occupy the pool's only worker so no drain task can run.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = harness.pool.submit([gate] { gate.wait(); });

  KeyedTrace trace;
  for (std::size_t i = 0; i < 3 * kChunk; ++i) {
    const auto t = static_cast<TimePoint>(i);
    trace.add("k", make_write(10 * t, 10 * t + 5, t + 1));
  }
  std::atomic<bool> returned{false};
  std::thread ingester([&] {
    harness.feeder.ingest(trace, kChunk);  // three chunks
    returned.store(true);
  });
  // Chunks 1 and 2 fit (the queue is below capacity before each); the
  // third is counted, then waits for room.
  while (harness.monitor.stats().operations_ingested < 3 * kChunk) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(harness.monitor.stats().peak_queue, 2 * kChunk);
  EXPECT_THROW(testing_util::ChunkFeeder(harness.monitor)
                   .ingest("other", make_write(0, 5, 1)),
               std::logic_error);

  release.set_value();
  ingester.join();
  blocker.get();
  const Report report = harness.monitor.finish();
  EXPECT_EQ(report.monitor_totals.operations_ingested, trace.size());
  EXPECT_LT(report.monitor_totals.peak_queue, kCapacity + kChunk);
  EXPECT_TRUE(report.per_key.at("k").verdict.yes());
}

std::int64_t gauge_value(const obs::MetricsRegistry& registry,
                         const std::string& name) {
  for (const obs::MetricSnapshot& m : registry.snapshot().metrics) {
    if (m.name == name) return static_cast<std::int64_t>(m.value);
  }
  ADD_FAILURE() << "no series " << name;
  return 0;
}

// A pool that refuses drain tasks (shut down under the monitor) makes
// ingest() throw, but every operation of the chunk is still queued:
// finish() checks all of them, and the backlog gauge returns to zero.
TEST(KeyedMonitor, IngestOverAShutDownPoolStillChecksEveryOperation) {
  EngineOptions options = test_options();
  options.queue_capacity = 2;
  obs::MetricsRegistry registry;
  pipeline::ThreadPool pool(4);
  // Two chunks of 8: two operations on each of keys a-d (ids 0-3, one
  // partition each).
  KeyedTrace chunks[2];
  for (TimePoint t = 0; t < 4; ++t) {
    for (const char* key : {"a", "b", "c", "d"}) {
      chunks[t / 2].add(key, make_write(10 * t, 10 * t + 5, t + 1));
    }
  }
  const std::size_t total = chunks[0].size() + chunks[1].size();
  {
    KeyedStreamingMonitor monitor(pool, registry, options);
    testing_util::ChunkFeeder feeder(monitor);
    pool.shutdown();
    // The second chunk finds each queue at capacity with no drain
    // claimed, and must not wait for one.
    for (const KeyedTrace& chunk : chunks) {
      EXPECT_THROW(feeder.ingest(chunk, chunk.size()), std::runtime_error);
    }
    const Report report = monitor.finish();
    EXPECT_EQ(report.monitor_totals.operations_ingested, total);
    std::uint64_t checked = 0;
    for (const auto& [key, result] : report.per_key) {
      checked += result.stream.operations_ingested;
      EXPECT_TRUE(result.verdict.yes()) << key;
    }
    EXPECT_EQ(checked, total);
    EXPECT_EQ(report.per_key.size(), 4u);
    EXPECT_EQ(gauge_value(registry, "kav_monitor_queue_backlog"), 0);
  }
  EXPECT_EQ(gauge_value(registry, "kav_monitor_queue_backlog"), 0);
}

// --- Source ids: TraceSource::pull ------------------------------------------

// One pulled operation with its id resolved to a name.
struct NamedOp {
  KeyId id;
  std::string name;
  Operation op;
  friend bool operator==(const NamedOp&, const NamedOp&) = default;
};

// Pulls `source` dry, `chunk_ops` at a time, checking the chunk
// contract on the way: at most chunk_ops per chunk, new names continue
// the id space, and ids appear in first-appearance order (each op's id
// is an earlier one or exactly the next).
std::vector<NamedOp> pull_all(TraceSource& source, std::size_t chunk_ops) {
  std::vector<std::string> names;
  std::vector<NamedOp> out;
  KeyId next_unseen = 0;
  KeyedChunk chunk;
  for (;;) {
    const TraceSource::Pull pull =
        source.pull(chunk, chunk_ops, std::chrono::seconds(5));
    if (pull == TraceSource::Pull::closed) break;
    EXPECT_EQ(pull, TraceSource::Pull::ready);
    EXPECT_FALSE(chunk.ops.empty());
    EXPECT_LE(chunk.ops.size(), chunk_ops);
    if (!chunk.new_keys.empty()) {
      EXPECT_EQ(chunk.first_new_key, names.size());
    }
    names.insert(names.end(), chunk.new_keys.begin(), chunk.new_keys.end());
    for (const IdOperation& iop : chunk.ops) {
      EXPECT_LE(iop.key, next_unseen) << "id out of first-appearance order";
      if (iop.key == next_unseen) ++next_unseen;
      if (iop.key >= names.size()) {
        ADD_FAILURE() << "id " << iop.key << " used before it was named";
        return out;
      }
      out.push_back({iop.key, names[iop.key], iop.op});
    }
  }
  EXPECT_EQ(names.size(), next_unseen) << "a name was never used";
  return out;
}

// What every source must yield for `trace`: ids numbered by first
// appearance, in arrival order.
std::vector<NamedOp> expected_named(const KeyedTrace& trace) {
  KeyInterner interner;
  std::vector<NamedOp> out;
  for (const KeyedOperation& kop : trace.ops) {
    bool fresh = false;
    out.push_back({interner.intern(kop.key, fresh), kop.key, kop.op});
  }
  return out;
}

std::vector<NamedOp> pull_pushed(const KeyedTrace& trace,
                                 std::size_t chunk_ops) {
  PushTraceSource push(4);  // small: several swaps per run
  std::thread producer([&] {
    for (const KeyedOperation& kop : trace.ops) push.push(kop);
    push.close();
  });
  std::vector<NamedOp> got = pull_all(push, chunk_ops);
  producer.join();
  return got;
}

// Arrival order in which each key's operations are contiguous, so a
// sealed v2 segment's block order (one block per key, flushed in id
// order) is the arrival order too.
KeyedTrace key_grouped_trace() {
  KeyedTrace trace;
  for (const char* key : {"m", "b", "z", "a"}) {
    for (TimePoint t = 0; t < 60; t += 10) {
      trace.add(key, make_write(t, t + 4, t + 1, 2));
    }
  }
  return trace;
}

TEST(SourceIds, EverySourceYieldsTheSameNamedIdSequence) {
  const KeyedTrace trace = key_grouped_trace();
  const std::vector<NamedOp> want = expected_named(trace);
  const ScratchFile text("ids.trace");
  write_trace_file(text.path(), trace);
  const ScratchFile v1("ids_v1.kavb");
  v1.write(binary_bytes(trace, 5));
  const ScratchFile sealed("ids_sealed.kavb");
  {
    std::stringstream out;
    write_binary_trace(out, trace, 4096, kBinaryTraceVersion2);
    sealed.write(out.str());
  }
  ASSERT_TRUE(MappedSegment(sealed.path()).has_integrity());  // v2.1
  const ScratchFile unsealed("ids_unsealed.kavb");
  unsealed.write(testing_util::unsealed_v2_bytes(trace, 4096));

  for (std::size_t chunk_ops : {std::size_t{1}, std::size_t{3}, trace.size()}) {
    SCOPED_TRACE("chunk_ops " + std::to_string(chunk_ops));
    MemoryTraceSource memory(trace);
    EXPECT_EQ(pull_all(memory, chunk_ops), want) << "memory";
    EXPECT_EQ(pull_all(*open_trace_source(text.path()), chunk_ops), want)
        << "text";
    EXPECT_EQ(pull_all(*open_trace_source(v1.path()), chunk_ops), want)
        << "v1";
    EXPECT_EQ(pull_all(*open_trace_source(unsealed.path()), chunk_ops), want)
        << "unsealed v2";
    EXPECT_EQ(pull_all(*open_trace_source(sealed.path()), chunk_ops), want)
        << "sealed v2.1";
    EXPECT_EQ(pull_pushed(trace, chunk_ops), want) << "push";
  }
}

// A store's source streams segment after segment through one id space:
// a key that a later segment holds again keeps the id its first segment
// gave it, and each segment's table ids are named once.
TEST(SourceIds, TwoSegmentStoreSourceKeepsEachKeysFirstId) {
  // Each part key-grouped, so each segment's block order is its
  // arrival order and the store streams `both` exactly.
  KeyedTrace first, second, both;
  for (const char* key : {"m", "b"}) {
    for (TimePoint t = 0; t < 30; t += 10) {
      first.add(key, make_write(t, t + 4, t + 1));
    }
  }
  for (const char* key : {"b", "z"}) {
    for (TimePoint t = 100; t < 130; t += 10) {
      second.add(key, make_write(t, t + 4, t + 1));
    }
  }
  both.ops = first.ops;
  both.ops.insert(both.ops.end(), second.ops.begin(), second.ops.end());
  const std::vector<NamedOp> want = expected_named(both);
  ASSERT_EQ(want[first.size()].name, "b");
  ASSERT_EQ(want[first.size()].id, 1u);  // "b"'s id from the first segment

  const std::filesystem::path dir =
      std::filesystem::path(ScratchFile("store").path());
  std::filesystem::remove_all(dir);
  {
    TraceStore store(dir);
    store.append(first);
    store.append(second);
    ASSERT_EQ(store.segment_count(), 2u);
    for (std::size_t chunk_ops : {std::size_t{1}, std::size_t{4}, both.size()}) {
      SCOPED_TRACE("chunk_ops " + std::to_string(chunk_ops));
      EXPECT_EQ(pull_all(*store.open_source(), chunk_ops), want);
    }
  }
  std::filesystem::remove_all(dir);
}

// Interleaved keys: the arrival-order sources agree exactly, and a v2
// segment -- whose blocks name a later key-table id first -- still
// numbers its ids by first appearance in its own (block) order.
TEST(SourceIds, InterleavedKeysAndV2BlockOrder) {
  const KeyedTrace trace = sample_trace();
  const std::vector<NamedOp> want = expected_named(trace);
  MemoryTraceSource memory(trace);
  EXPECT_EQ(pull_all(memory, 2), want);
  const ScratchFile v1("interleaved_v1.kavb");
  v1.write(binary_bytes(trace, 2));
  EXPECT_EQ(pull_all(*open_trace_source(v1.path()), 2), want);
  EXPECT_EQ(pull_pushed(trace, 2), want);

  // Two-record blocks: "b" (key-table id 1) fills its block first, so
  // the stream opens with a chunk introducing ids 0 and 1 whose records
  // are all "b"'s. pull() names "b" id 0.
  KeyedTrace out_of_order;
  out_of_order.add("a", make_write(0, 5, 1));
  out_of_order.add("b", make_write(1, 6, 2));
  out_of_order.add("b", make_read(7, 9, 2));
  out_of_order.add("a", make_read(8, 10, 1));
  const ScratchFile unsealed("interleaved_unsealed.kavb");
  unsealed.write(testing_util::unsealed_v2_bytes(out_of_order, 2));
  const KeyedTrace stream_order = drain(*open_trace_source(unsealed.path()));
  ASSERT_EQ(stream_order.ops.front().key, "b");
  const std::vector<NamedOp> got =
      pull_all(*open_trace_source(unsealed.path()), 3);
  EXPECT_EQ(got, expected_named(stream_order));
  EXPECT_EQ(got.front().id, 0u);
  EXPECT_EQ(got.front().name, "b");
}

TEST(SourceIds, EachMemorySourceNamesItsKeysFromZero) {
  const KeyedTrace trace = sample_trace();
  MemoryTraceSource first(&trace);
  const std::vector<NamedOp> named = pull_all(first, 2);
  EXPECT_EQ(named.front().id, 0u);
  MemoryTraceSource second(&trace);
  EXPECT_EQ(pull_all(second, 4), named);
}

TEST(SourceIds, ConsumersRejectChunksThatSkipIds) {
  KeyedChunk chunk;
  chunk.first_new_key = 1;  // id 0 was never named
  chunk.new_keys = {"late"};
  chunk.ops.push_back({1, make_write(0, 5, 1)});
  KeyGrouper grouper;
  EXPECT_THROW(grouper.add(chunk), std::invalid_argument);

  MonitorHarness harness(1);
  EXPECT_THROW(harness.monitor.ingest(chunk), std::invalid_argument);
  chunk.first_new_key = 0;
  chunk.ops[0].key = 7;  // never named
  EXPECT_THROW(harness.monitor.ingest(chunk), std::invalid_argument);
  EXPECT_THROW(grouper.add(chunk), std::invalid_argument);
  // A rejected chunk leaves either consumer untouched.
  EXPECT_TRUE(grouper.finish().empty());
  const Report report = harness.monitor.finish();
  EXPECT_TRUE(report.per_key.empty());
  EXPECT_EQ(report.monitor_totals.operations_ingested, 0u);
}

}  // namespace
}  // namespace kav
