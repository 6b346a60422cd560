// Unit tests for the ingest subsystem: the .kavb binary trace format
// read through open_trace_source (header validation, chunking, key
// interning, corruption reporting), text <-> binary conversion, the
// ReorderBuffer's watermark contract, the
// streaming checker's reuse hook, and the KeyedStreamingMonitor end to
// end (including its bounded-window
// guarantee on a long steady stream).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
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
#include "scratch_file.h"
#include "store/mapped_segment.h"
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
  std::string_view key;
  Operation op;
  while (cursor.next(key, op)) keys.push_back(key);
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
  EXPECT_TRUE(checker.clean_so_far());
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
      : pool(threads), monitor(pool, registry, options) {}

  pipeline::ThreadPool pool;
  obs::MetricsRegistry registry;
  KeyedStreamingMonitor monitor;
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
  KeyedStreamingMonitor& monitor = harness.monitor;
  monitor.ingest("k", make_write(100, 105, 1));
  monitor.ingest("k", make_read(10, 15, 1));  // 90 ticks behind: late
  const Report report = monitor.finish();
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
  for (const Operation& op : shard.operations()) harness.monitor.ingest("k", op);
  const Report report = harness.monitor.finish();
  EXPECT_EQ(report.monitor_totals.violations, 0u);
  EXPECT_EQ(report.monitor_totals.operations_ingested, shard.size());
}

// A malformed operation (start >= finish) is rejected by the key's
// checker: one finding, and the rest of the key's stream is checked.
TEST(KeyedMonitor, MalformedOperationIsOneFindingNotAWedgedKey) {
  MonitorHarness harness(2);
  KeyedStreamingMonitor& monitor = harness.monitor;
  monitor.ingest("k", make_write(0, 5, 1));
  monitor.ingest("k", make_write(7, 7, 2));  // malformed
  monitor.ingest("k", make_read(8, 9, 1));
  monitor.ingest("ok", make_write(0, 5, 1));
  const Report report = monitor.finish();
  const KeyResult& k = report.per_key.at("k");
  ASSERT_EQ(k.findings.size(), 1u);
  EXPECT_EQ(k.findings[0].kind, StreamingViolation::Kind::hard_anomaly);
  EXPECT_NE(k.findings[0].detail.find("start >= finish"), std::string::npos);
  EXPECT_EQ(k.stream.operations_ingested, 2u);
  EXPECT_TRUE(report.per_key.at("ok").verdict.yes());
}

TEST(KeyedMonitor, IngestAfterFinishThrows) {
  MonitorHarness harness(1);
  harness.monitor.ingest("k", make_write(0, 5, 1));
  harness.monitor.finish();
  EXPECT_THROW(harness.monitor.ingest("k", make_write(10, 15, 2)),
               std::logic_error);
}

TEST(KeyedMonitor, FinishTwiceThrows) {
  MonitorHarness harness(1);
  harness.monitor.finish();
  EXPECT_THROW(harness.monitor.finish(), std::logic_error);
}

TEST(KeyedMonitor, MidStreamStatsSeeIngestedOps) {
  MonitorHarness harness(1);
  KeyedStreamingMonitor& monitor = harness.monitor;
  for (TimePoint t = 0; t < 100; t += 10) {
    monitor.ingest("a", make_write(t, t + 4, t));
    monitor.ingest("b", make_write(t + 1, t + 5, t + 1000));
  }
  const MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.operations_ingested, 20u);
  EXPECT_EQ(stats.keys, 2u);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
  monitor.finish();
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
      harness.monitor.ingest("k", make_write(t, t + 5, value));
      harness.monitor.ingest("k", make_read(t + 6, t + 9, value));
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

}  // namespace
}  // namespace kav
