// Ingest-layer throughput: the cost of getting a million-operation
// trace *into* the verifier, which bounds any production monitor long
// before the decision procedures do. Compares the text parser
// (history/serialization.h) against the binary .kavb reader
// (store/mapped_segment.h, behind open_trace_source) on the same
// generated trace, measures both
// writers, and streams the trace through Engine::monitor to
// get end-to-end monitored ops/sec plus the peak window (the memory
// bound the O(slack + horizon) argument promises).
//
// Also times the history layer's precondition repair against a plain
// History build (history_repair_paired), and a History build on
// time-sorted columns against the same columns with one adjacent pair
// swapped (history_build_swap_paired), each as a mirrored pair (see
// below).
//
// The workload defaults to 1,000,000 operations over 64 keys;
// KAV_BENCH_OPS overrides it (bench/run_bench.sh --smoke sets a small
// value for CI data points). Scratch files live under TMPDIR.
//
// Start or extend the trajectory file with
//   ./bench_ingest --benchmark_out=BENCH_ingest.json
//                  --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "history/anomaly.h"
#include "history/keyed_trace.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "quorum/sim.h"
#include "store/mapped_segment.h"
#include "util/rng.h"

namespace kav {
namespace {

std::size_t bench_ops() {
  if (const char* env = std::getenv("KAV_BENCH_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1'000'000;
}

// A steady multi-key monitor workload: per key, a write followed by a
// couple of reads of it, with short staleness gaps and bounded
// concurrency -- so every format touches realistic key/value/client
// variety and the monitor's chunks keep settling as time advances.
KeyedTrace make_trace(std::size_t ops, int keys) {
  Rng rng(2026);
  KeyedTrace trace;
  std::vector<TimePoint> clocks(static_cast<std::size_t>(keys), 0);
  std::vector<Value> next_value(static_cast<std::size_t>(keys), 1);
  int key = 0;
  while (trace.size() < ops) {
    auto k = static_cast<std::size_t>(key);
    const Value value = next_value[k]++;
    TimePoint t = clocks[k];
    const TimePoint write_len = 2 + static_cast<TimePoint>(rng.bounded(6));
    trace.add("key" + std::to_string(key),
              make_write(t, t + write_len, value,
                         static_cast<ClientId>(rng.bounded(16))));
    const auto reads = 1 + rng.bounded(2);
    for (std::uint64_t r = 0; r < reads && trace.size() < ops; ++r) {
      const TimePoint rs = t + write_len + 1 + static_cast<TimePoint>(r) * 4;
      trace.add("key" + std::to_string(key),
                make_read(rs, rs + 3, value,
                          static_cast<ClientId>(rng.bounded(16))));
    }
    clocks[k] = t + write_len + 12;
    key = (key + 1) % keys;
  }
  return trace;
}

struct Fixture {
  KeyedTrace trace;
  std::string text_path;
  std::string binary_path;

  Fixture() {
    trace = make_trace(bench_ops(), 64);
    const std::string dir = std::filesystem::temp_directory_path().string();
    text_path = dir + "/kav_bench_ingest.trace";
    binary_path = dir + "/kav_bench_ingest.kavb";
    write_trace_file(text_path, trace);
    write_binary_trace_file(binary_path, trace);
  }
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

void ops_rate(benchmark::State& state, std::uint64_t ops_done) {
  state.counters["trace_ops"] = static_cast<double>(fixture().trace.size());
  state.counters["ops/s"] = benchmark::Counter(static_cast<double>(ops_done),
                                               benchmark::Counter::kIsRate);
}

void text_read(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    const KeyedTrace trace = read_trace_file(fixture().text_path);
    benchmark::DoNotOptimize(trace);
    ops_done += trace.size();
  }
  ops_rate(state, ops_done);
}
BENCHMARK(text_read)->UseRealTime()->Unit(benchmark::kMillisecond);

void binary_read(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    const KeyedTrace trace = drain(*open_trace_source(fixture().binary_path));
    benchmark::DoNotOptimize(trace);
    ops_done += trace.size();
  }
  ops_rate(state, ops_done);
}
BENCHMARK(binary_read)->UseRealTime()->Unit(benchmark::kMillisecond);

// The pure record-decode rate, without KeyedTrace materialization --
// what a monitor tailing a .kavb log actually pays per record.
void binary_stream_decode(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    const MappedSegment segment(fixture().binary_path);
    MappedSegment::Cursor cursor = segment.cursor();
    KeyId key_id = 0;
    Operation op;
    while (cursor.next(key_id, op)) {
      benchmark::DoNotOptimize(op);
      ++ops_done;
    }
  }
  ops_rate(state, ops_done);
}
BENCHMARK(binary_stream_decode)->UseRealTime()->Unit(benchmark::kMillisecond);

void text_write(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    std::ostringstream out;
    write_trace(out, fixture().trace);
    benchmark::DoNotOptimize(out);
    ops_done += fixture().trace.size();
  }
  ops_rate(state, ops_done);
}
BENCHMARK(text_write)->UseRealTime()->Unit(benchmark::kMillisecond);

void binary_write(benchmark::State& state) {
  std::uint64_t ops_done = 0;
  for (auto _ : state) {
    std::ostringstream out;
    write_binary_trace(out, fixture().trace);
    benchmark::DoNotOptimize(out);
    ops_done += fixture().trace.size();
  }
  ops_rate(state, ops_done);
}
BENCHMARK(binary_write)->UseRealTime()->Unit(benchmark::kMillisecond);

// End-to-end online monitoring on one reused Engine: every operation
// through its key's partition queue, reorder buffer, and streaming
// checker. peak_window is the reported memory high-water mark -- it
// must stay O(slack + horizon), not O(trace). proc_cpu_ns_per_op
// charges every thread's CPU to the operations: run_bench.sh --smoke
// fails when 4 threads cost more than 1.5x one thread per operation.
void monitor_stream(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  EngineOptions options;
  options.streaming.staleness_horizon = 200;
  options.reorder_slack = 64;
  options.threads = threads;
  Engine engine(options);
  const KeyedTrace& trace = fixture().trace;  // built outside the timing
  // One untimed run first: a fresh pool's workers fault in their malloc
  // arenas on first use, a one-off cost that grows with the thread
  // count and would otherwise land in proc_cpu_ns_per_op.
  engine.monitor(trace);
  std::uint64_t ops_done = 0;
  double peak_window = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report report = engine.monitor(trace);
    benchmark::DoNotOptimize(report);
    ops_done += report.monitor_totals.operations_ingested;
    peak_window = std::max(
        peak_window, static_cast<double>(report.monitor_totals.peak_window));
  }
  cpu.report(state, ops_done);
  ops_rate(state, ops_done);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["peak_window"] = peak_window;
}
BENCHMARK(monitor_stream)->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- History layer: the precondition repair vs a plain build -------------
//
// The raw per-key histories of a sloppy-quorum trace in kavbench
// audit_file's shape (W = R = 1 over three replicas, anti-entropy on;
// ~1000 operations per key), keeping the keys without hard anomalies:
// most of them carry duplicate stamps and writes that outlive their
// reads, so the gate repairs them before deciding.
// history_repair_paired times, as a mirrored pair (bench::time_paired),
// detail::normalize_repairable on each prebuilt History (it copies the
// columns and inherits the indexes) against building each key's
// History from its OperationColumns (copying the columns in, since the
// constructor adopts them). run_bench.sh --smoke fails when the median
// repair_ratio (repair / build) is above 1.00. One that inherits the
// indexes sits at ~0.9x the build (~18 vs ~21 ns/op at 1M ops); one
// that sorts or re-derives them cost ~1.9x a build that still fully
// sorted nearly every key, and that build costs ~1.7x today's.
struct RepairFixture {
  std::vector<OperationColumns> columns;
  std::vector<History> histories;
  std::size_t ops = 0;

  RepairFixture() {
    const std::size_t trace_ops = bench_ops();
    quorum::QuorumConfig config;
    config.replicas = 3;
    config.write_quorum = 1;
    config.read_quorum = 1;
    config.first_responders = false;
    config.anti_entropy = true;
    config.anti_entropy_interval = 20;
    config.clients = 64;
    config.keys = static_cast<int>(std::max<std::size_t>(1, trace_ops / 1000));
    config.ops_per_client = static_cast<int>(trace_ops / 64);
    config.seed = 1;
    KeyedHistories split =
        split_by_key(quorum::run_sloppy_quorum_sim(config).trace);
    for (auto& [key, history] : split.per_key) {
      if (detail::has_hard_anomaly(history)) continue;
      OperationColumns key_columns;
      key_columns.reserve(history.size());
      for (OpId id = 0; id < history.size(); ++id) {
        key_columns.push_back(history.op(id));
      }
      columns.push_back(std::move(key_columns));
      ops += history.size();
      histories.push_back(std::move(history));
    }
  }
};

const RepairFixture& repair_fixture() {
  static const RepairFixture instance;
  return instance;
}

void history_repair_paired(benchmark::State& state) {
  const RepairFixture& f = repair_fixture();
  bench::time_paired(
      state, "repair",
      [&] {
        for (const History& history : f.histories) {
          benchmark::DoNotOptimize(detail::normalize_repairable(history));
        }
      },
      "build",
      [&] {
        for (const OperationColumns& key_columns : f.columns) {
          benchmark::DoNotOptimize(History{OperationColumns(key_columns)});
        }
      },
      f.ops);
  state.counters["keys"] = static_cast<double>(f.histories.size());
}
BENCHMARK(history_repair_paired)->UseRealTime()->Unit(benchmark::kMillisecond);

// --- History layer: the event-order sort on nearly sorted input ----------
//
// One key's time-sorted history (key0 of the fixture's trace: ops / 64
// operations, start and finish columns both strictly increasing) and
// the same history with one adjacent pair of ids swapped, each built
// from its columns, timed as a mirrored pair (bench::time_paired). One inverted pair should cost one more
// comparison per event order, not a sort: run_bench.sh --smoke fails
// when the median swapped_ratio (swapped / sorted) is above 1.25. A
// build that sorts whenever a column is not exactly increasing sits at
// ~3x on the smoke run's 3,125-op key.
struct SortedKeyFixture {
  OperationColumns sorted;
  OperationColumns swapped;

  SortedKeyFixture() {
    std::vector<Operation> ops;
    for (const KeyedOperation& kop : fixture().trace.ops) {
      if (kop.key == "key0") ops.push_back(kop.op);
    }
    for (const Operation& op : ops) sorted.push_back(op);
    std::swap(ops[ops.size() / 2], ops[ops.size() / 2 + 1]);
    for (const Operation& op : ops) swapped.push_back(op);
  }
};

void history_build_swap_paired(benchmark::State& state) {
  static const SortedKeyFixture f;
  bench::time_paired(
      state, "swapped",
      [&] { benchmark::DoNotOptimize(History{OperationColumns(f.swapped)}); },
      "sorted",
      [&] { benchmark::DoNotOptimize(History{OperationColumns(f.sorted)}); },
      f.sorted.size());
}
BENCHMARK(history_build_swap_paired)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
