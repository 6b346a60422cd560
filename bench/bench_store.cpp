// Trace-store throughput: what the mmap-backed index buys over
// decoding whole files. On a generated multi-key trace (default
// 1,000,000 operations over 128 keys; KAV_BENCH_OPS overrides), the
// same single-key extraction runs three ways -- through the v2 block
// index (decode one key's blocks), by draining the v1 binary stream
// (decode everything, keep one key), and by parsing the text format --
// plus the end-to-end Engine::verify comparison (RunOptions::key_filter
// over an indexed source vs the filtered-drain fallback), segment
// write/compaction throughput, and the cost of opening a segment
// (header + footer parse only; this is what makes "stat a 100-key
// trace" free).
//
// Start or extend the trajectory file with
//   ./bench_store --benchmark_out=BENCH_store.json
//                 --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/engine.h"
#include "core/verify.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "store/indexed_source.h"
#include "store/mapped_segment.h"
#include "store/trace_store.h"
#include "util/rng.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

std::size_t bench_ops() {
  if (const char* env = std::getenv("KAV_BENCH_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1'000'000;
}

constexpr int kKeys = 128;
const char* const kProbeKey = "key17";

// Steady per-key write/read cadence (same shape as bench_ingest's
// workload): every format carries identical content.
KeyedTrace make_trace(std::size_t ops, int keys) {
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

// Scratch files are built once and shared by every benchmark.
struct Fixture {
  fs::path dir;
  std::string text_path;
  std::string v1_path;
  std::string v2_path;
  std::size_t ops = 0;
  std::size_t probe_ops = 0;

  Fixture() {
    ops = bench_ops();
    dir = fs::temp_directory_path() / "kav_bench_store";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const KeyedTrace trace = make_trace(ops, kKeys);
    text_path = (dir / "trace.txt").string();
    write_trace_file(text_path, trace);
    v1_path = (dir / "trace_v1.kavb").string();
    write_binary_trace_file(v1_path, trace);
    v2_path = (dir / "trace_v2.kavb").string();
    write_binary_trace_file(v2_path, trace, kBinaryTraceVersion2);
    for (const KeyedOperation& kop : trace.ops) {
      if (kop.key == kProbeKey) ++probe_ops;
    }
  }
};

const Fixture& fixture() {
  static Fixture shared;
  return shared;
}

// --- Single-key extraction: index vs full decode vs text -------------------

void BM_ReadOneKey_Indexed(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    MappedSegment segment(f.v2_path);
    benchmark::DoNotOptimize(segment.read_key(kProbeKey));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
  state.counters["trace_ops"] = static_cast<double>(f.ops);
}
BENCHMARK(BM_ReadOneKey_Indexed)->Unit(benchmark::kMillisecond);

void BM_ReadOneKey_FullBinaryDecode(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    const MappedSegment segment(f.v1_path);
    MappedSegment::Cursor cursor = segment.cursor();
    std::vector<Operation> ops;
    KeyId key_id = 0;
    Operation op;
    while (cursor.next(key_id, op)) {
      if (cursor.key(key_id) == kProbeKey) ops.push_back(op);
    }
    benchmark::DoNotOptimize(ops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.ops) *
                          state.iterations());
}
BENCHMARK(BM_ReadOneKey_FullBinaryDecode)->Unit(benchmark::kMillisecond);

void BM_ReadOneKey_TextParse(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    const KeyedTrace trace = read_trace_file(f.text_path);
    std::vector<Operation> ops;
    for (const KeyedOperation& kop : trace.ops) {
      if (kop.key == kProbeKey) ops.push_back(kop.op);
    }
    benchmark::DoNotOptimize(ops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.ops) *
                          state.iterations());
}
BENCHMARK(BM_ReadOneKey_TextParse)->Unit(benchmark::kMillisecond);

// --- Zero-copy vs materializing decode+verify ------------------------------
//
// The differential pair behind the hot-path claim: load_key (the
// BlockCursor one-pass column decode, no intermediate Operation
// vector) against load_key_materializing (the read_key reference).
// The fuzz suite proves them bit-identical; the unpaired benchmarks
// record what the zero-copy path buys, and the *Paired ones below are
// what run_bench.sh --smoke gates on.

void BM_LoadOneKey_ZeroCopy(benchmark::State& state) {
  const Fixture& f = fixture();
  const IndexedTraceSource source(f.v2_path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.load_key(kProbeKey));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
}
BENCHMARK(BM_LoadOneKey_ZeroCopy)->Unit(benchmark::kMillisecond);

void BM_LoadOneKey_Materializing(benchmark::State& state) {
  const Fixture& f = fixture();
  const IndexedTraceSource source(f.v2_path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.load_key_materializing(kProbeKey));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
}
BENCHMARK(BM_LoadOneKey_Materializing)->Unit(benchmark::kMillisecond);

void BM_VerifyOneKey_ZeroCopy(benchmark::State& state) {
  const Fixture& f = fixture();
  const IndexedTraceSource source(f.v2_path);
  for (auto _ : state) {
    const History h = source.load_key(kProbeKey);
    benchmark::DoNotOptimize(verify_k_atomicity(h, VerifyOptions{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
}
BENCHMARK(BM_VerifyOneKey_ZeroCopy)->Unit(benchmark::kMillisecond);

void BM_VerifyOneKey_Materializing(benchmark::State& state) {
  const Fixture& f = fixture();
  const IndexedTraceSource source(f.v2_path);
  for (auto _ : state) {
    const History h = source.load_key_materializing(kProbeKey);
    benchmark::DoNotOptimize(verify_k_atomicity(h, VerifyOptions{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
}
BENCHMARK(BM_VerifyOneKey_Materializing)->Unit(benchmark::kMillisecond);

void BM_LoadOneKey_ZeroCopyPaired(benchmark::State& state) {
  const IndexedTraceSource source(fixture().v2_path);
  bench::time_paired(
      state, "zc",
      [&] { benchmark::DoNotOptimize(source.load_key(kProbeKey)); }, "mat",
      [&] {
        benchmark::DoNotOptimize(source.load_key_materializing(kProbeKey));
      },
      fixture().probe_ops);
}
BENCHMARK(BM_LoadOneKey_ZeroCopyPaired)->Unit(benchmark::kMillisecond);

void BM_VerifyOneKey_ZeroCopyPaired(benchmark::State& state) {
  const IndexedTraceSource source(fixture().v2_path);
  bench::time_paired(
      state, "zc",
      [&] {
        const History h = source.load_key(kProbeKey);
        benchmark::DoNotOptimize(verify_k_atomicity(h, VerifyOptions{}));
      },
      "mat",
      [&] {
        const History h = source.load_key_materializing(kProbeKey);
        benchmark::DoNotOptimize(verify_k_atomicity(h, VerifyOptions{}));
      },
      fixture().probe_ops);
}
BENCHMARK(BM_VerifyOneKey_ZeroCopyPaired)->Unit(benchmark::kMillisecond);

// The structural-profile scan that drives 2-AV algorithm selection:
// zones + FZF's Stage-1 partition, whose counts the profile reads.
void BM_ZoneProfileScan(benchmark::State& state) {
  const Fixture& f = fixture();
  const IndexedTraceSource source(f.v2_path);
  const History h = source.load_key(kProbeKey);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone_profile(h));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(h.size()) *
                          state.iterations());
}
BENCHMARK(BM_ZoneProfileScan)->Unit(benchmark::kMillisecond);

// --- v2.1 integrity: CRC verify overhead -----------------------------------
//
// The zero-copy single-key load with block-checksum verification on
// and off, timed as a mirrored pair (bench::time_paired); the
// per-repetition crc_ratio (on / off) carries the CRC cost. That cost
// is ~10-15% of a load -- one hardware CRC32C pass over bytes the
// decode touches anyway, against a decode that no longer builds
// Operation rows -- and run_bench.sh --smoke bounds the median
// crc_ratio at 1.25.

void BM_LoadOneKey_CrcPaired(benchmark::State& state) {
  const IndexedTraceSource crc(fixture().v2_path);
  MappedSegmentOptions lax;
  lax.verify_block_crc = false;
  const IndexedTraceSource nocrc(
      {std::make_shared<const MappedSegment>(fixture().v2_path, lax)},
      "nocrc");
  bench::time_paired(
      state, "crc", [&] { benchmark::DoNotOptimize(crc.load_key(kProbeKey)); },
      "nocrc",
      [&] { benchmark::DoNotOptimize(nocrc.load_key(kProbeKey)); },
      fixture().probe_ops);
}
BENCHMARK(BM_LoadOneKey_CrcPaired)->Unit(benchmark::kMillisecond);

// --- Bloom-filter segment skipping -----------------------------------------
//
// A store of 1000 tiny segments, each holding its own disjoint key
// set: the worst case for cross-segment lookups, and the case the
// per-segment bloom page exists for. A single-key stat visits every
// segment either way, but with the filter each miss costs k bit
// probes instead of a string hash + key-table search, which is what
// keeps the lookup ~flat as segment counts grow. Each lookup goes
// through a store source opened once, outside the timed loop, as a
// query does (and counts into the store's bloom counters, as a query
// does).

constexpr int kManySegments = 1000;

struct ManySegmentsFixture {
  fs::path dir;
  std::unique_ptr<TraceStore> store;

  ManySegmentsFixture() {
    dir = fs::temp_directory_path() / "kav_bench_store_many";
    fs::remove_all(dir);
    store = std::make_unique<TraceStore>(dir);
    for (int s = 0; s < kManySegments; ++s) {
      KeyedTrace chunk;
      for (int k = 0; k < 4; ++k) {
        chunk.add("s" + std::to_string(s) + "-k" + std::to_string(k),
                  make_write(2 * k, 2 * k + 1, k + 1));
      }
      store->append(chunk);
    }
  }
};

const ManySegmentsFixture& many_segments() {
  static ManySegmentsFixture shared;
  return shared;
}

void BM_StoreStatPresentKey_1000Segments(benchmark::State& state) {
  const auto source = many_segments().store->open_source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->stat("s500-k0"));
  }
  state.counters["segments"] = kManySegments;
}
BENCHMARK(BM_StoreStatPresentKey_1000Segments)
    ->Unit(benchmark::kMicrosecond);

void BM_StoreStatAbsentKey_1000Segments(benchmark::State& state) {
  const auto source = many_segments().store->open_source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->stat("no-such-key"));
  }
  state.counters["segments"] = kManySegments;
}
BENCHMARK(BM_StoreStatAbsentKey_1000Segments)->Unit(benchmark::kMicrosecond);

void BM_StoreReadOneKey_1000Segments(benchmark::State& state) {
  const auto source = many_segments().store->open_source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->load_key("s500-k2"));
  }
  state.counters["segments"] = kManySegments;
}
BENCHMARK(BM_StoreReadOneKey_1000Segments)->Unit(benchmark::kMicrosecond);

// --- End-to-end selective verification -------------------------------------

void BM_VerifyOneKey_Indexed(benchmark::State& state) {
  const Fixture& f = fixture();
  Engine engine;
  RunOptions run;
  run.key_filter = {kProbeKey};
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    auto source = open_trace_source(f.v2_path);
    benchmark::DoNotOptimize(engine.verify(*source, run));
  }
  cpu.report(state, f.probe_ops * state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(f.probe_ops) *
                          state.iterations());
}
BENCHMARK(BM_VerifyOneKey_Indexed)->Unit(benchmark::kMillisecond);

void BM_VerifyOneKey_FullDecode(benchmark::State& state) {
  const Fixture& f = fixture();
  Engine engine;
  RunOptions run;
  run.key_filter = {kProbeKey};
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    auto source = open_trace_source(f.v1_path);
    benchmark::DoNotOptimize(engine.verify(*source, run));
  }
  cpu.report(state, f.ops * state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(f.ops) *
                          state.iterations());
}
BENCHMARK(BM_VerifyOneKey_FullDecode)->Unit(benchmark::kMillisecond);

// --- Selective query cost vs store width -----------------------------------
//
// The same 4-key selective query (store.open_source() + Engine::verify
// with a key_filter) on two 8-segment stores that differ only in how
// many other keys they hold: ~1k (narrow) and ~16k (wide). The query
// keys' histories, and so the decode and decide work, are identical
// in both. A query looks up only its own keys, so the pair should cost
// the same; run_bench.sh --smoke fails when wide costs more than 1.25x
// narrow, which is what listing every key of every segment per query
// costs.

constexpr int kWidthSegments = 8;
constexpr int kWidthQueryKeys = 4;
constexpr int kWidthQueryKeyOps = 1024;

struct WidthStore {
  std::unique_ptr<TraceStore> store;
  RunOptions run;

  explicit WidthStore(int keys) {
    const fs::path dir =
        fs::temp_directory_path() / ("kav_bench_store_width_" +
                                     std::to_string(keys));
    fs::remove_all(dir);
    store = std::make_unique<TraceStore>(dir);
    for (int q = 0; q < kWidthQueryKeys; ++q) {
      run.key_filter.push_back("query" + std::to_string(q));
    }
    // Query keys: a serial write/read cadence continued across the
    // segments. Fillers: one write and one read each, dealt round-robin.
    std::vector<TimePoint> clocks(kWidthQueryKeys, 0);
    constexpr int kPerSegment = kWidthQueryKeyOps / kWidthSegments / 2;
    for (int s = 0; s < kWidthSegments; ++s) {
      KeyedTrace chunk;
      for (int q = 0; q < kWidthQueryKeys; ++q) {
        TimePoint& t = clocks[static_cast<std::size_t>(q)];
        for (int i = 0; i < kPerSegment; ++i) {
          const auto value = static_cast<Value>(t / 8 + 1);
          chunk.add(run.key_filter[static_cast<std::size_t>(q)],
                    make_write(t, t + 3, value));
          chunk.add(run.key_filter[static_cast<std::size_t>(q)],
                    make_read(t + 4, t + 7, value));
          t += 8;
        }
      }
      for (int f = s; f < keys - kWidthQueryKeys; f += kWidthSegments) {
        const std::string key = "filler" + std::to_string(f);
        chunk.add(key, make_write(0, 1, 1));
        chunk.add(key, make_read(2, 3, 1));
      }
      store->append(chunk);
    }
  }
};

void BM_StoreSelectiveQuery(benchmark::State& state) {
  static WidthStore narrow(1024);
  static WidthStore wide(16384);
  const WidthStore& f = state.range(0) == 1024 ? narrow : wide;
  Engine engine;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const auto source = f.store->open_source();
    benchmark::DoNotOptimize(engine.verify(*source, f.run));
  }
  cpu.report(state, kWidthQueryKeys * kWidthQueryKeyOps * state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(kWidthQueryKeys) *
                          kWidthQueryKeyOps * state.iterations());
  state.counters["store_keys"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_StoreSelectiveQuery)
    ->Arg(1024)
    ->Arg(16384)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

// --- Segment open cost (header + footer only) ------------------------------

void BM_OpenAndStatSegment(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    MappedSegment segment(f.v2_path);
    benchmark::DoNotOptimize(segment.stat(kProbeKey));
    benchmark::DoNotOptimize(segment.total_records());
  }
  state.counters["trace_ops"] = static_cast<double>(f.ops);
}
BENCHMARK(BM_OpenAndStatSegment)->Unit(benchmark::kMicrosecond);

// --- Store write + compaction throughput -----------------------------------

void BM_StoreAppend(benchmark::State& state) {
  const Fixture& f = fixture();
  // Appending re-reads the v2 segment sequentially: realistic record
  // volume without regenerating the trace per iteration.
  const KeyedTrace trace = drain(*open_trace_source(f.v2_path));
  for (auto _ : state) {
    const fs::path dir = f.dir / "append_bench";
    fs::remove_all(dir);
    TraceStore store(dir);
    store.append(trace);
    benchmark::DoNotOptimize(store.total_records());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trace.size()) *
                          state.iterations());
}
BENCHMARK(BM_StoreAppend)->Unit(benchmark::kMillisecond);

void BM_StoreCompact4(benchmark::State& state) {
  const Fixture& f = fixture();
  const KeyedTrace trace = drain(*open_trace_source(f.v2_path));
  const std::size_t quarter = trace.size() / 4;
  for (auto _ : state) {
    state.PauseTiming();
    const fs::path dir = f.dir / "compact_bench";
    fs::remove_all(dir);
    TraceStore store(dir);
    KeyedTrace part;
    for (const KeyedOperation& kop : trace.ops) {
      part.ops.push_back(kop);
      if (part.size() >= quarter) {
        store.append(part);
        part = KeyedTrace{};
      }
    }
    if (!part.empty()) store.append(part);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.compact());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trace.size()) *
                          state.iterations());
}
BENCHMARK(BM_StoreCompact4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
