// kavbench -- the end-to-end benchmark binary for the kav library.
//
// One process runs one workload through the public API (kav::Engine,
// TraceSource, TraceStore), checks every result against a serial
// per-key verify_k_atomicity reference, and prints one JSON line of
// metrics as the last line of stdout (human-readable lines go to
// stderr). kavbench.py next to this file builds the binary, runs it per
// workload and seed, and compares result sets; README.md catalogues
// the workloads and metrics and says why each was chosen.
//
//   kavbench --workload=NAME --seed=N --seconds=S --work-dir=DIR
//            [--trace=FILE]
//
// Workloads:
//   audit_file        .kavb file -> Engine::verify -> Report, closed loop
//   decide_contended  pre-split shards -> Engine::verify, closed loop
//   monitor_live      push source -> Engine::monitor: open loop at a
//                     fixed rate, then closed-loop runs
//   store_mixed       selective queries on a TraceStore while a writer
//                     appends segments and compaction runs
//
// Thread budget: at most 4 threads per process, callers included --
// batch workloads run an Engine pool of 3 beside the calling thread;
// the live workloads run two caller threads beside a pool of 2.
//
// With --trace=FILE the timed calls alternate between traced and
// untraced (the gap is the tracing overhead), spans around every call
// into a layer are written to FILE as chrome://tracing JSON, and a
// decomposition pass times each layer's public call on the workload's
// own fixture and prints the per-layer metrics.
#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen/generators.h"
#include "kav.h"
#include "measure.h"
#include "quorum/sim.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace kavbench {

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

namespace {

namespace fs = std::filesystem;
using kav::Engine;
using kav::EngineOptions;
using kav::History;
using kav::KeyedHistories;
using kav::KeyedOperation;
using kav::KeyedTrace;
using kav::Operation;
using kav::Outcome;
using kav::Report;
using kav::RunOptions;
using kav::Samples;
using kav::TimePoint;

constexpr std::size_t kBatchThreads = 3;  // + the calling thread
constexpr std::size_t kLiveThreads = 2;   // + generator/writer + caller
constexpr int kSetups = 5;                // set-up repetitions per run
constexpr int kMinCalls = 3;              // timed calls per loop, at least

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  fs::path work_dir;
  std::string trace_path;  // empty: untraced
  Clock::time_point started = Clock::now();
  bool traced() const { return !trace_path.empty(); }
};

// ---------------------------------------------------------------------------
// Reference verdicts and report checks
// ---------------------------------------------------------------------------

using Outcomes = std::map<std::string, Outcome>;

// The serial reference every Engine result is checked against.
Outcomes reference_outcomes(const KeyedHistories& shards) {
  Outcomes out;
  for (const auto& [key, history] : shards.per_key) {
    out.emplace(key, kav::verify_k_atomicity(history).outcome);
  }
  return out;
}

std::size_t count_outcome(const Outcomes& outcomes, Outcome outcome) {
  return static_cast<std::size_t>(std::count_if(
      outcomes.begin(), outcomes.end(),
      [outcome](const auto& kv) { return kv.second == outcome; }));
}

// "" when `report` holds exactly `keys` with the reference outcomes
// (all of `reference` when `keys` is null); else the first difference.
std::string compare_report(const Report& report, const Outcomes& reference,
                           const std::vector<std::string>* keys = nullptr) {
  if (report.cancelled) return "run stopped early: " + report.stop_reason;
  const std::size_t expected = keys ? keys->size() : reference.size();
  if (report.per_key.size() != expected) {
    return "report has " + std::to_string(report.per_key.size()) +
           " keys, expected " + std::to_string(expected);
  }
  auto one = [&](const std::string& key) -> std::string {
    const auto ref = reference.find(key);
    const auto got = report.per_key.find(key);
    if (ref == reference.end()) return "no reference verdict for " + key;
    if (got == report.per_key.end()) return "report lacks key " + key;
    if (got->second.verdict.outcome != ref->second) {
      return "key " + key + ": got " +
             kav::to_string(got->second.verdict.outcome) + ", reference " +
             kav::to_string(ref->second);
    }
    return "";
  };
  if (keys) {
    for (const auto& key : *keys) {
      if (std::string diff = one(key); !diff.empty()) return diff;
    }
  } else {
    for (const auto& [key, outcome] : reference) {
      if (std::string diff = one(key); !diff.empty()) return diff;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Timed loops and the end-to-end metrics
// ---------------------------------------------------------------------------

// Per-call samples, so wall-clock figures are medians over calls: on a
// shared host, preemption only ever slows single calls down.
struct LoopStats {
  Samples call_ms;          // every timed call
  Samples ops_per_s;        // each call's checked ops / its wall time
  Samples untraced_ms;      // traced runs: the calls made with spans off
  Samples traced_ms;        //              ... and with spans on
  double cpu_s = 0;         // process CPU over the whole loop
  double steal_share = 0;   // host steal over the whole loop
  std::uint64_t ops = 0;    // operations the calls checked
  std::uint64_t calls = 0;
};

// Closed loop: `call(run_id)` back to back (it returns the operations it
// checked) until `seconds` have passed and at least kMinCalls ran. In a
// traced run every other call records spans.
template <typename Call>
LoopStats closed_loop(const Args& args, double seconds, Call&& call) {
  LoopStats loop;
  const double cpu0 = process_cpu_s();
  const CpuTicks ticks0 = host_cpu_ticks();
  const auto start = Clock::now();
  while (loop.calls < static_cast<std::uint64_t>(kMinCalls) ||
         seconds_since(start) < seconds) {
    const std::uint64_t run = loop.calls + 1;
    const bool traced = args.traced() && run % 2 == 0;
    spans().set_enabled(traced);
    const auto t = Clock::now();
    std::uint64_t ops = 0;
    {
      ScopedSpan span("call", run);
      ops = call(run);
    }
    const double dt = seconds_since(t);
    loop.ops += ops;
    loop.call_ms.add(dt * 1e3);
    loop.ops_per_s.add(static_cast<double>(ops) / dt);
    (traced ? loop.traced_ms : loop.untraced_ms).add(dt * 1e3);
    ++loop.calls;
  }
  loop.cpu_s = process_cpu_s() - cpu0;
  loop.steal_share = steal_share(ticks0, host_cpu_ticks());
  spans().set_enabled(args.traced());
  return loop;
}

struct SetupTime {
  double cpu_s = 0;        // median process CPU over the set-ups
  double wall_s = 0;       // median wall time
  double steal_share = 0;  // host steal over all of them
};

// Runs `setup` kSetups times (each must build its state from scratch);
// the last state is the one used.
template <typename Setup>
SetupTime timed_setups(Setup&& setup) {
  Samples cpu, wall;
  const CpuTicks ticks0 = host_cpu_ticks();
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan span("setup");
    const double cpu0 = process_cpu_s();
    const auto t = Clock::now();
    setup();
    wall.add(seconds_since(t));
    cpu.add(process_cpu_s() - cpu0);
  }
  return {cpu.median(), wall.median(), steal_share(ticks0, host_cpu_ticks())};
}

// Peak resident memory the workload adds beyond its inputs, counted
// from the moment the inputs and the serial reference are ready. Freed
// generation/reference memory goes back to the OS, then VmHWM restarts
// from the current RSS. Growth in file-backed pages (the store's
// mmapped segments: page cache the kernel can reclaim, which grows
// with the data appended) is not counted.
struct PeakRss {
  long baseline_kb = 0;
  long baseline_file_kb = 0;

  void start(const Args& args, Sheet& sheet) {
    sheet.extra("gen_s", seconds_since(args.started), "s");
    malloc_trim(0);
    sheet.info("peak_rss_reset",
               reset_peak_rss() ? "clear_refs" : "unavailable");
    baseline_kb = proc_status_kb("VmRSS");
    baseline_file_kb = proc_status_kb("RssFile");
  }
  double peak_mb() const {
    const long file_growth = proc_status_kb("RssFile") - baseline_file_kb;
    return static_cast<double>(proc_status_kb("VmHWM") - baseline_kb -
                               file_growth) /
           1024.0;
  }
};

// The end-to-end metrics are CPU time and memory. On the shared VMs this
// benchmark runs on, the hypervisor steals 5% to 67% of busy CPU time,
// shifting within minutes, and wall time moves with it (spreads of
// 12-46% between runs of the same code); process CPU time excludes
// steal. Wall-clock throughput and latency are reported beside them,
// with the steal share, as diagnostics. `background_ops` counts work
// done off the timed calls (the store writer's appends) whose CPU the
// process total includes.
void emit_end_to_end(Sheet& sheet, const LoopStats& loop,
                     const SetupTime& setup, const PeakRss& rss,
                     std::uint64_t background_ops = 0) {
  sheet.metric("cpu_ns_per_op",
               loop.cpu_s * 1e9 / static_cast<double>(loop.ops + background_ops),
               "ns");
  sheet.metric("setup_s", setup.cpu_s, "s");
  sheet.metric("peak_rss_mb", rss.peak_mb(), "MB");
  sheet.extra("ops_per_s", loop.ops_per_s.median(), "ops/s");
  sheet.extra("latency_ms_p50", loop.call_ms.median(), "ms");
  sheet.extra("setup_wall_s", setup.wall_s, "s");
  sheet.extra("host.steal_share", loop.steal_share, "ratio");
  sheet.extra("host.setup_steal_share", setup.steal_share, "ratio");
  sheet.extra("calls", static_cast<double>(loop.calls), "count");
  if (!loop.traced_ms.empty() && !loop.untraced_ms.empty()) {
    sheet.metric("trace.overhead_share",
                 loop.traced_ms.median() / loop.untraced_ms.median() - 1.0,
                 "ratio");
  }
}

// ---------------------------------------------------------------------------
// Inputs. Everything derives from --seed; the library sees only the
// generated traces.
// ---------------------------------------------------------------------------

// A Dynamo-style trace with sloppy (R + W <= N) quorums: 1024 keys, ~1M
// operations, and enough staleness that ~15% of keys are not 2-atomic
// (fixed-subset quorums, frequent anti-entropy) -- YES and NO keys both
// exercise the deciders.
KeyedTrace sloppy_quorum_trace(std::uint64_t seed, int keys, int ops) {
  kav::quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.first_responders = false;
  config.anti_entropy = true;
  config.anti_entropy_interval = 20;
  config.clients = 64;
  config.keys = keys;
  config.ops_per_client = ops / config.clients;
  config.seed = seed;
  return kav::quorum::run_sloppy_quorum_sim(config).trace;
}

// A clean strict-quorum (N = 3, W = R = 2) stream: every key is atomic,
// so any monitor finding on it is a false alarm.
KeyedTrace strict_quorum_trace(std::uint64_t seed, int ops) {
  kav::quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.first_responders = true;
  config.clients = 32;
  config.keys = 256;
  config.ops_per_client = ops / config.clients;
  config.seed = seed;
  return kav::quorum::run_sloppy_quorum_sim(config).trace;
}

// The monitor's two promises, read off a trace: the largest gap from a
// write's finish to the start of a read of it (staleness horizon), and
// the largest distance an arrival starts behind its key's newest start
// so far (reorder slack).
struct StreamBounds {
  TimePoint horizon = 1;
  TimePoint slack = 0;
};

StreamBounds derive_bounds(const KeyedTrace& trace) {
  std::map<std::pair<std::string, kav::Value>, TimePoint> write_finish;
  for (const auto& kop : trace.ops) {
    if (kop.op.is_write()) write_finish[{kop.key, kop.op.value}] = kop.op.finish;
  }
  StreamBounds bounds;
  std::unordered_map<std::string, TimePoint> newest;
  for (const auto& kop : trace.ops) {
    if (kop.op.is_read()) {
      const auto it = write_finish.find({kop.key, kop.op.value});
      if (it != write_finish.end()) {
        bounds.horizon = std::max(bounds.horizon, kop.op.start - it->second);
      }
    }
    auto [it, fresh] = newest.try_emplace(kop.key, kop.op.start);
    if (!fresh) {
      bounds.slack = std::max(bounds.slack, it->second - kop.op.start);
      it->second = std::max(it->second, kop.op.start);
    }
  }
  return bounds;
}

// Pre-split shards as a stream: each key's operations in completion
// order, the order a store would report them in.
KeyedTrace flatten(const KeyedHistories& shards) {
  KeyedTrace trace;
  for (const auto& [key, history] : shards.per_key) {
    for (const kav::OpId id : history.by_finish()) trace.add(key, history.op(id));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Decomposition: each layer's public call timed on its own, on the
// workload's fixture. The stages on the file-audit path (decode, split,
// the sharded decide phase) should add up to the end-to-end file audit;
// what they leave over is the residual. Costs are process CPU time,
// which hypervisor steal does not inflate and which adds up across
// threads: every *_ns_per_op is CPU per fixture operation, and shares
// and the residual are CPU ratios. pipeline.* relates that CPU to the
// pool's wall time.
// ---------------------------------------------------------------------------

struct StageTime {
  double wall_s = 0;
  double cpu_s = 0;

  StageTime& operator+=(const StageTime& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

template <typename Fn>
StageTime stage(const char* span_name, Fn&& fn) {
  ScopedSpan span(span_name);
  const double cpu0 = process_cpu_s();
  const auto t = Clock::now();
  fn();
  return {seconds_since(t), process_cpu_s() - cpu0};
}

// Wall and CPU medians over `reps` runs of one stage; `reset` runs
// untimed before each, so freeing the previous run's output is not
// charged to the stage.
template <typename Fn, typename Reset>
StageTime median_stage(int reps, const char* span_name, Fn&& fn,
                       Reset&& reset) {
  Samples wall, cpu;
  for (int i = 0; i < reps; ++i) {
    reset();
    const StageTime t = stage(span_name, fn);
    wall.add(t.wall_s);
    cpu.add(t.cpu_s);
  }
  return {wall.median(), cpu.median()};
}

void decompose(const KeyedTrace& fixture, const fs::path& dir, Sheet& sheet) {
  ScopedSpan root("decompose");
  constexpr int kReps = 3;
  const double n = static_cast<double>(fixture.size());
  auto ns_per_op = [n](const StageTime& t) { return t.cpu_s * 1e9 / n; };
  const std::string file = (dir / "decompose.kavb").string();
  kav::write_binary_trace_file(file, fixture);
  const CpuTicks ticks0 = host_cpu_ticks();

  EngineOptions engine_options;
  engine_options.threads = kBatchThreads;
  Engine engine(engine_options);

  // End to end: the file audit every stage below is a part of.
  Report file_report;
  const StageTime e2e = median_stage(
      kReps, "e2e.file_verify",
      [&] {
        auto source = kav::open_trace_source(file);
        file_report = engine.verify(*source);
      },
      [&] { file_report = Report(); });

  // 1. ingest: decode the file into a KeyedTrace.
  KeyedTrace drained;
  const StageTime decode = median_stage(
      kReps, "ingest.drain",
      [&] {
        auto source = kav::open_trace_source(file);
        drained = kav::drain(*source);
      },
      [&] { drained = KeyedTrace(); });
  sheet.check(drained.size() == fixture.size(), "drain returns every record");

  // 2. history: group by key.
  KeyedHistories shards;
  const StageTime split = median_stage(
      kReps, "history.split_by_key",
      [&] { shards = kav::split_by_key(drained); },
      [&] { shards = KeyedHistories(); });
  drained = KeyedTrace();

  // 3-4. normalize, profile, decide: serial, per key, on the histories
  // verify_k_atomicity would decide (hard-anomaly keys have no decider).
  StageTime normalize, profile, decide, lbt, fzf;
  double regret_s = 0, best_s = 0;
  std::size_t keys_lbt = 0, keys_fzf = 0;
  kav::VerifyOptions decided;
  decided.normalize = false;
  kav::VerifyOptions forced_lbt = decided, forced_fzf = decided;
  forced_lbt.algorithm = kav::Algorithm::lbt;
  forced_fzf.algorithm = kav::Algorithm::fzf;
  {
    ScopedSpan span("core.per_key");
    for (const auto& [key, history] : shards.per_key) {
      History ready;
      bool decidable = true;
      normalize += stage("history.normalize", [&] {
        const kav::AnomalyReport anomalies = kav::find_anomalies(history);
        if (anomalies.empty()) {
          ready = history;
        } else if (anomalies.repairable()) {
          ready = kav::normalize(history);
        } else {
          decidable = false;
        }
      });
      if (!decidable) continue;
      kav::Algorithm pick = kav::Algorithm::auto_select;
      profile += stage("core.zone_profile", [&] {
        pick = kav::select_2av_algorithm(kav::zone_profile(ready));
      });
      (pick == kav::Algorithm::lbt ? keys_lbt : keys_fzf) += 1;
      kav::Verdict by_auto, by_lbt, by_fzf;
      decide += stage("core.decide", [&] {
        by_auto = kav::verify_k_atomicity(ready, decided);
      });
      const StageTime t_lbt = stage("core.lbt", [&] {
        by_lbt = kav::verify_k_atomicity(ready, forced_lbt);
      });
      const StageTime t_fzf = stage("core.fzf", [&] {
        by_fzf = kav::verify_k_atomicity(ready, forced_fzf);
      });
      lbt += t_lbt;
      fzf += t_fzf;
      const double best = std::min(t_lbt.cpu_s, t_fzf.cpu_s);
      best_s += best;
      regret_s +=
          (pick == kav::Algorithm::lbt ? t_lbt.cpu_s : t_fzf.cpu_s) - best;
      sheet.check(by_auto.outcome == by_lbt.outcome &&
                      by_auto.outcome == by_fzf.outcome,
                  "LBT, FZF and auto agree on " + key);
    }
  }

  // 5. pipeline: the sharded decide phase, and its serial sum.
  Outcomes reference;
  StageTime serial;
  double slowest_key_cpu_s = 0;
  {
    ScopedSpan span("pipeline.serial_reference");
    for (const auto& [key, history] : shards.per_key) {
      const StageTime t = stage("core.verify", [&] {
        reference.emplace(key, kav::verify_k_atomicity(history).outcome);
      });
      serial += t;
      slowest_key_cpu_s = std::max(slowest_key_cpu_s, t.cpu_s);
    }
  }
  Report shard_report;
  const StageTime sharded = median_stage(
      kReps, "pipeline.engine_verify_shards",
      [&] { shard_report = engine.verify(shards); },
      [&] { shard_report = Report(); });
  sheet.check(compare_report(file_report, reference).empty(),
              "file audit matches the serial reference: " +
                  compare_report(file_report, reference));
  sheet.check(compare_report(shard_report, reference).empty(),
              "sharded verify matches the serial reference: " +
                  compare_report(shard_report, reference));
  const double residual_s =
      e2e.cpu_s - decode.cpu_s - split.cpu_s - sharded.cpu_s;

  sheet.metric("ingest.decode_ns_per_op", ns_per_op(decode), "ns");
  sheet.metric("ingest.decode_share", decode.cpu_s / e2e.cpu_s, "ratio");
  sheet.metric("history.split_ns_per_op", ns_per_op(split), "ns");
  sheet.metric("history.split_share", split.cpu_s / e2e.cpu_s, "ratio");
  sheet.metric("history.normalize_ns_per_op", ns_per_op(normalize), "ns");
  sheet.metric("core.profile_ns_per_op", ns_per_op(profile), "ns");
  sheet.metric("core.decide_ns_per_op", ns_per_op(decide), "ns");
  sheet.metric("core.lbt_ns_per_op", ns_per_op(lbt), "ns");
  sheet.metric("core.fzf_ns_per_op", ns_per_op(fzf), "ns");
  sheet.metric("core.dispatch_regret", best_s > 0 ? regret_s / best_s : 0.0,
               "ratio");
  sheet.metric("core.keys_lbt", static_cast<double>(keys_lbt), "count");
  sheet.metric("core.keys_fzf", static_cast<double>(keys_fzf), "count");
  sheet.metric("core.steps",
               static_cast<double>(shard_report.verify_totals.steps), "count");
  sheet.metric("core.candidates_tried",
               static_cast<double>(shard_report.verify_totals.candidates_tried),
               "count");
  sheet.metric("core.engine_residual_share", residual_s / e2e.cpu_s, "ratio");
  sheet.metric("pipeline.shards_wall_s", sharded.wall_s, "s");
  sheet.metric("pipeline.efficiency",
               serial.cpu_s /
                   (static_cast<double>(kBatchThreads) * sharded.wall_s),
               "ratio");
  sheet.metric("pipeline.slowest_shard_share",
               slowest_key_cpu_s / sharded.wall_s, "ratio");
  sheet.metric("pipeline.cpu_s", sharded.cpu_s, "s");

  auto row = [&](const char* name, const StageTime& t) {
    std::fprintf(stderr, "  %-12s %9.2f ms CPU  %5.1f%%  %9.2f ms wall\n", name,
                 t.cpu_s * 1e3, 100 * t.cpu_s / e2e.cpu_s, t.wall_s * 1e3);
  };
  std::fprintf(stderr, "decomposition of the file audit (%zu ops, %zu keys):\n",
               fixture.size(), shards.per_key.size());
  row("end to end", e2e);
  row("decode", decode);
  row("split", split);
  row("shard phase", sharded);
  row("residual", {e2e.wall_s - decode.wall_s - split.wall_s - sharded.wall_s,
                   residual_s});
  std::fprintf(stderr,
               "  (shard phase, serial CPU: normalize %.2f, profile %.2f, "
               "decide %.2f ms)\n",
               normalize.cpu_s * 1e3, profile.cpu_s * 1e3, decide.cpu_s * 1e3);

  // 6. store: append in eight segments, fold, open, load every key.
  {
    ScopedSpan span("store");
    kav::TraceStore store(dir / "decompose-store");
    Samples append_ms;
    constexpr std::size_t kSlices = 8;
    const std::size_t per = (fixture.size() + kSlices - 1) / kSlices;
    for (std::size_t begin = 0; begin < fixture.size(); begin += per) {
      KeyedTrace part;
      const std::size_t end = std::min(fixture.size(), begin + per);
      part.ops.assign(fixture.ops.begin() + static_cast<std::ptrdiff_t>(begin),
                      fixture.ops.begin() + static_cast<std::ptrdiff_t>(end));
      append_ms.add(1e3 * stage("store.append", [&] { store.append(part); })
                              .wall_s);
    }
    std::uint64_t bytes = 0;
    for (const auto& segment : store.segments()) bytes += segment.bytes;
    const StageTime maintenance =
        stage("store.run_maintenance", [&] { store.run_maintenance(); });
    constexpr int kOpens = 1000;
    const StageTime opens = stage("store.open_source", [&] {
      for (int i = 0; i < kOpens; ++i) (void)store.open_source();
    });
    auto source = store.open_source();
    StageTime load, verify_loaded;
    bool loads_match = true;
    for (const auto& key : source->selectable_keys()) {
      History loaded;
      load += stage("store.load_key", [&] { loaded = source->load_key(key); });
      Outcome outcome = Outcome::no;
      verify_loaded += stage("core.verify_loaded", [&] {
        outcome = kav::verify_k_atomicity(loaded).outcome;
      });
      const auto ref = reference.find(key);
      loads_match &= ref != reference.end() && ref->second == outcome;
    }
    sheet.check(loads_match, "store loads verify like the serial reference");
    sheet.check(store.fsck().ok(), "store fsck clean");
    sheet.check(store.total_records() == fixture.size(),
                "store holds every appended record");
    sheet.metric("store.append_ms", append_ms.median(), "ms");
    sheet.metric("store.maintenance_ms", maintenance.wall_s * 1e3, "ms");
    sheet.metric("store.segments_end",
                 static_cast<double>(store.segment_count()), "count");
    sheet.metric("store.bytes_per_op", static_cast<double>(bytes) / n, "B");
    sheet.metric("store.open_source_us", opens.cpu_s * 1e6 / kOpens, "us");
    sheet.metric("store.load_key_ns_per_op", ns_per_op(load), "ns");
    sheet.metric("store.query_decide_share",
                 verify_loaded.cpu_s / (load.cpu_s + verify_loaded.cpu_s),
                 "ratio");
  }

  // 7. monitor: the push handoff alone, Engine::monitor over memory,
  // then a serial replay of its two per-key stages (reorder buffer,
  // streaming checker) with the bounds the fixture itself implies.
  {
    ScopedSpan span("monitor");
    const StreamBounds bounds = derive_bounds(fixture);

    std::uint64_t pulled = 0;
    const StageTime handoff = stage("ingest.push_handoff", [&] {
      kav::PushTraceSource source;
      std::thread producer([&] {
        for (const auto& kop : fixture.ops) source.push(kop);
        source.close();
      });
      KeyedOperation kop;
      while (source.next(kop)) ++pulled;
      producer.join();
    });
    sheet.check(pulled == fixture.size(), "push source hands over every op");

    EngineOptions monitor_options;
    monitor_options.threads = kBatchThreads;
    monitor_options.streaming.staleness_horizon = bounds.horizon;
    monitor_options.reorder_slack = bounds.slack;
    Engine monitor_engine(monitor_options);
    kav::MemoryTraceSource memory(fixture);
    Report monitored;
    const StageTime monitor = stage("engine.monitor_memory", [&] {
      monitored = monitor_engine.monitor(memory);
    });
    sheet.check(monitored.monitor_totals.operations_ingested == fixture.size(),
                "monitor ingests every op");

    // Reorder pass: per-key buffers, logging what each releases and
    // every watermark advance, so the checker pass replays exactly.
    struct Step {
      Operation op;
      TimePoint watermark;
      bool advance;
    };
    std::unordered_map<std::string, std::size_t> key_ids;
    std::vector<std::size_t> key_of;
    key_of.reserve(fixture.size());
    for (const auto& kop : fixture.ops) {
      key_of.push_back(key_ids.try_emplace(kop.key, key_ids.size()).first->second);
    }
    std::vector<kav::ReorderBuffer> buffers(key_ids.size(),
                                            kav::ReorderBuffer(bounds.slack));
    std::vector<std::vector<Step>> logs(key_ids.size());
    std::vector<TimePoint> logged(key_ids.size(), kav::kTimeMin);
    std::uint64_t late = 0;
    const StageTime reorder = stage("ingest.reorder", [&] {
      for (std::size_t i = 0; i < fixture.size(); ++i) {
        const std::size_t k = key_of[i];
        kav::ReorderBuffer& buffer = buffers[k];
        if (!buffer.push(fixture.ops[i].op)) {
          ++late;
          continue;
        }
        Operation released;
        while (buffer.pop(released)) logs[k].push_back({released, 0, false});
        if (buffer.watermark() != logged[k]) {
          logged[k] = buffer.watermark();
          logs[k].push_back({Operation{}, logged[k], true});
        }
      }
      for (std::size_t k = 0; k < buffers.size(); ++k) {
        buffers[k].flush();
        Operation released;
        while (buffers[k].pop(released)) logs[k].push_back({released, 0, false});
      }
    });
    sheet.check(late == 0, "no arrival exceeds the derived reorder slack");

    kav::StreamingOptions streaming;
    streaming.staleness_horizon = bounds.horizon;
    const StageTime check = stage("core.stream_check", [&] {
      for (const auto& log : logs) {
        kav::StreamingChecker checker(streaming);
        for (const Step& step : log) {
          if (step.advance) {
            checker.advance_watermark(step.watermark);
          } else {
            checker.add(step.op);
          }
        }
        (void)checker.finish();
      }
    });

    sheet.metric("ingest.push_handoff_ns_per_op", ns_per_op(handoff), "ns");
    sheet.metric("ingest.monitor_memory_ns_per_op", ns_per_op(monitor), "ns");
    sheet.metric("ingest.reorder_ns_per_op", ns_per_op(reorder), "ns");
    sheet.metric("ingest.peak_window",
                 static_cast<double>(monitored.monitor_totals.peak_window),
                 "count");
    sheet.metric("core.stream_check_ns_per_op", ns_per_op(check), "ns");
    sheet.extra("monitor.horizon", static_cast<double>(bounds.horizon), "ticks");
    sheet.extra("monitor.slack", static_cast<double>(bounds.slack), "ticks");
  }
  sheet.extra("host.decompose_steal_share",
              steal_share(ticks0, host_cpu_ticks()), "ratio");
}

// ---------------------------------------------------------------------------
// audit_file: what trace_check users run -- a recorded trace file
// audited end to end. File decode and split_by_key run here and on no
// other workload's timed path.
// ---------------------------------------------------------------------------

void run_audit_file(const Args& args, Sheet& sheet, KeyedTrace& fixture) {
  fixture = sloppy_quorum_trace(args.seed, 1024, 1'000'000);
  const Outcomes reference = reference_outcomes(kav::split_by_key(fixture));
  sheet.extra("keys_no", static_cast<double>(count_outcome(reference, Outcome::no)),
              "count");
  PeakRss rss;
  rss.start(args, sheet);

  const std::string file = (args.work_dir / "audit.kavb").string();
  std::unique_ptr<Engine> engine;
  const SetupTime setup = timed_setups([&] {
    kav::write_binary_trace_file(file, fixture);
    EngineOptions options;
    options.threads = kBatchThreads;
    engine = std::make_unique<Engine>(options);
    auto source = kav::open_trace_source(file);
    sheet.check(compare_report(engine->verify(*source), reference).empty(),
                "warm-up audit matches the reference");
  });

  const LoopStats loop = closed_loop(args, args.seconds, [&](std::uint64_t) {
    std::unique_ptr<kav::TraceSource> source;
    {
      ScopedSpan span("ingest.open_trace_source");
      source = kav::open_trace_source(file);
    }
    Report report;
    {
      ScopedSpan span("engine.verify");
      report = engine->verify(*source);
    }
    const std::string diff = compare_report(report, reference);
    sheet.check(diff.empty(), "audit: " + diff);
    return fixture.size();
  });
  emit_end_to_end(sheet, loop, setup, rss);
}

// ---------------------------------------------------------------------------
// decide_contended: pre-split in-memory shards, so ingest and history
// build do no work and the deciders plus the LBT/FZF dispatch do nearly
// all of it. Write concurrency c spans the paper's range; one hot key
// is the slowest shard and sets the run time.
// ---------------------------------------------------------------------------

KeyedHistories contended_shards(std::uint64_t seed) {
  kav::Rng rng(seed);
  KeyedHistories shards;
  char name[64];
  for (int c : {3, 4, 6, 8, 16, 32, 64, 256}) {
    for (int i = 0; i < 4; ++i) {
      std::snprintf(name, sizeof name, "c%03d/%d", c, i);
      const int groups = std::max(1, 16'384 / (2 * c + 1));
      shards.per_key.emplace(name,
                             kav::gen::generate_high_concurrency(groups, c, rng));
    }
  }
  for (int i = 0; i < 64; ++i) {  // practical: c <= 2, k-atomic by design
    kav::gen::KAtomicConfig config;
    config.writes = 1'000;
    config.min_reads_per_write = 1;
    config.max_reads_per_write = 3;
    config.spread = 0.6;
    std::snprintf(name, sizeof name, "practical/%02d", i);
    shards.per_key.emplace(name, kav::gen::generate_k_atomic(config, rng).history);
  }
  for (int i = 0; i < 16; ++i) {  // NO instances, Lemma 4.3 and separation
    std::snprintf(name, sizeof name, "no-separation/%02d", i);
    shards.per_key.emplace(
        name, kav::gen::generate_forced_separation(
                  2, 200 + static_cast<int>(rng.bounded(100))));
    std::snprintf(name, sizeof name, "no-b3/%02d", i);
    shards.per_key.emplace(
        name, kav::gen::generate_b3_chunk(3 + static_cast<int>(rng.bounded(4))));
  }
  shards.per_key.emplace("hot", kav::gen::generate_high_concurrency(
                                    262'144 / 9, 4, rng));
  return shards;
}

void run_decide_contended(const Args& args, Sheet& sheet, KeyedTrace& fixture) {
  const KeyedHistories shards = contended_shards(args.seed);
  const Outcomes reference = reference_outcomes(shards);
  const std::size_t ops = shards.total_ops();
  sheet.extra("keys_no", static_cast<double>(count_outcome(reference, Outcome::no)),
              "count");
  if (args.traced()) fixture = flatten(shards);
  PeakRss rss;
  rss.start(args, sheet);

  std::unique_ptr<Engine> engine;
  const SetupTime setup = timed_setups([&] {
    EngineOptions options;
    options.threads = kBatchThreads;
    engine = std::make_unique<Engine>(options);
    sheet.check(compare_report(engine->verify(shards), reference).empty(),
                "warm-up verify matches the reference");
  });

  const LoopStats loop = closed_loop(args, args.seconds, [&](std::uint64_t) {
    Report report;
    {
      ScopedSpan span("engine.verify");
      report = engine->verify(shards);
    }
    const std::string diff = compare_report(report, reference);
    sheet.check(diff.empty(), "decide: " + diff);
    return ops;
  });
  emit_end_to_end(sheet, loop, setup, rss);
}

// ---------------------------------------------------------------------------
// monitor_live: the paper's Section VII use case. A clean strict-quorum
// stream with a canary key spliced in every 250 ops: a forced-separation
// episode (not 2-atomic), settled 100 ops later by a write far enough
// past the episode that the checker must decide it -- the trigger op.
// Every canary must be reported exactly once, and nothing else.
// ---------------------------------------------------------------------------

constexpr double kOpenLoopRate = 50'000;  // ops/s in phase 1
constexpr std::size_t kCanaryEvery = 250;
constexpr std::size_t kTriggerAfter = 100;

struct LiveStream {
  KeyedTrace ops;                           // arrival order
  std::vector<std::size_t> trigger_index;  // per canary: its trigger op
  std::map<std::string, std::size_t> canary_of;  // canary key -> id
  Outcomes reference;
  StreamBounds bounds;
};

LiveStream live_stream(std::uint64_t seed, int base_ops) {
  LiveStream stream;
  const KeyedTrace base = strict_quorum_trace(seed, base_ops);
  stream.bounds = derive_bounds(base);
  const History episode = kav::gen::generate_forced_separation(2);
  // The checker settles a chunk once the key's watermark (newest start
  // minus slack) passes its extent by the horizon.
  stream.bounds.horizon =
      std::max(stream.bounds.horizon, episode.max_time() - episode.min_time());
  const TimePoint settle_gap =
      stream.bounds.horizon + stream.bounds.slack + 10;

  struct Pending {
    std::size_t due;
    std::string key;
    Operation settle;
    std::size_t id;
  };
  std::vector<Pending> pending;
  char name[32];
  for (std::size_t i = 0; i < base.size(); ++i) {
    stream.ops.ops.push_back(base.ops[i]);
    if (!pending.empty() && pending.front().due == i) {
      stream.trigger_index[pending.front().id] = stream.ops.size();
      stream.ops.add(pending.front().key, pending.front().settle);
      pending.erase(pending.begin());
    }
    if ((i + 1) % kCanaryEvery != 0 || i + kTriggerAfter >= base.size()) continue;
    const std::size_t id = stream.trigger_index.size();
    std::snprintf(name, sizeof name, "canary/%06zu", id);
    const TimePoint shift = base.ops[i].op.start - episode.min_time();
    for (const Operation& op : episode.operations()) {
      Operation moved = op;
      moved.start += shift;
      moved.finish += shift;
      stream.ops.add(name, moved);
    }
    const TimePoint at = episode.max_time() + shift + settle_gap;
    pending.push_back({i + kTriggerAfter, name,
                       kav::make_write(at, at + 1, 1'000'000), id});
    stream.trigger_index.push_back(0);
    stream.canary_of.emplace(name, id);
  }
  stream.reference = reference_outcomes(kav::split_by_key(stream.ops));
  return stream;
}

// One live finding, as the on_finding sink saw it.
struct Finding {
  std::string key;
  kav::StreamingViolation::Kind kind;
  Clock::time_point at;
};

// Checks one monitor run: every canary reported exactly once as
// not_2atomic (live and in the report), nothing on any other key, and
// per-key verdicts equal to batch.
std::string check_monitor_run(const LiveStream& stream, const Report& report,
                              const std::vector<Finding>& live) {
  if (const std::string diff = compare_report(report, stream.reference);
      !diff.empty()) {
    return diff;
  }
  std::map<std::string, int> live_count;
  for (const Finding& f : live) {
    if (f.kind != kav::StreamingViolation::Kind::not_2atomic) {
      return "live finding of another kind on " + f.key;
    }
    ++live_count[f.key];
  }
  for (const auto& [key, result] : report.per_key) {
    const bool canary = stream.canary_of.count(key) != 0;
    const std::size_t expected = canary ? 1 : 0;
    if (result.findings.size() != expected) {
      return key + " has " + std::to_string(result.findings.size()) +
             " findings, expected " + std::to_string(expected);
    }
    if (canary && result.findings[0].kind !=
                      kav::StreamingViolation::Kind::not_2atomic) {
      return "canary " + key + " reported as another kind";
    }
    if (live_count[key] != static_cast<int>(expected)) {
      return key + " reported live " + std::to_string(live_count[key]) +
             " times, expected " + std::to_string(expected);
    }
  }
  return "";
}

struct MonitorRun {
  Report report;
  std::vector<Finding> live;
  Samples push_lag_ms;  // open loop only: push return - due time
  std::vector<Clock::time_point> due;  // open loop only: per op
};

// Streams `stream` through Engine::monitor over a push source: a
// generator thread pushes (at `rate` ops/s, or as fast as backpressure
// allows when rate is 0) while this thread runs monitor().
MonitorRun monitor_once(Engine& engine, const LiveStream& stream, double rate) {
  MonitorRun run;
  std::mutex live_mutex;
  RunOptions options;
  options.on_finding = [&](const std::string& key,
                           const kav::StreamingViolation& violation) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(live_mutex);
    run.live.push_back({key, violation.kind, now});
  };
  kav::PushTraceSource source;
  if (rate > 0) run.due.resize(stream.ops.size());
  std::vector<float> lag_ms(rate > 0 ? stream.ops.size() : 0);
  std::string producer_error;
  std::thread producer([&] {
    try {
      ScopedSpan span("generator.push");
      const auto t0 = Clock::now() + std::chrono::milliseconds(5);
      const auto period = std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0);
      for (std::size_t i = 0; i < stream.ops.size(); ++i) {
        if (rate > 0) {
          const auto due =
              t0 + std::chrono::duration_cast<Clock::duration>(period * i);
          run.due[i] = due;
          if (due - Clock::now() > std::chrono::microseconds(200)) {
            std::this_thread::sleep_until(due);
          }
          source.push(stream.ops.ops[i]);
          lag_ms[i] = static_cast<float>(
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count());
        } else {
          source.push(stream.ops.ops[i]);
        }
      }
    } catch (const std::exception& e) {
      producer_error = e.what();
    }
    source.close();
  });
  try {
    ScopedSpan span("engine.monitor");
    run.report = engine.monitor(source, options);
  } catch (...) {
    source.close();  // unblocks the producer
    producer.join();
    throw;
  }
  producer.join();
  if (!producer_error.empty()) throw std::runtime_error(producer_error);
  for (float lag : lag_ms) run.push_lag_ms.add(lag);
  return run;
}

void run_monitor_live(const Args& args, Sheet& sheet, KeyedTrace& fixture) {
  const double open_s = std::max(1.0, args.seconds / 2);
  const LiveStream open_stream = live_stream(
      args.seed * 2 + 1, static_cast<int>(kOpenLoopRate * open_s));
  const LiveStream closed_stream = live_stream(args.seed * 2, 500'000);
  sheet.extra("canaries", static_cast<double>(closed_stream.canary_of.size()),
              "count");
  if (args.traced()) fixture = closed_stream.ops;
  PeakRss rss;
  rss.start(args, sheet);

  auto engine_for = [](const LiveStream& stream) {
    EngineOptions options;
    options.threads = kLiveThreads;
    options.streaming.staleness_horizon = stream.bounds.horizon;
    options.reorder_slack = stream.bounds.slack;
    return std::make_unique<Engine>(options);
  };
  std::unique_ptr<Engine> engine;
  const SetupTime setup = timed_setups([&] {
    engine = engine_for(closed_stream);
    const MonitorRun warm = monitor_once(*engine, closed_stream, 0);
    sheet.check(check_monitor_run(closed_stream, warm.report, warm.live).empty(),
                "warm-up monitor run");
  });

  // Phase 1, open loop: a fixed arrival rate, each op timed from when it
  // was due; detection latency runs from a trigger op's due time to its
  // canary's live finding.
  {
    ScopedSpan span("phase1.open_loop");
    auto open_engine = engine_for(open_stream);
    const MonitorRun run = monitor_once(*open_engine, open_stream, kOpenLoopRate);
    const std::string diff = check_monitor_run(open_stream, run.report, run.live);
    sheet.check(diff.empty(), "open-loop monitor: " + diff);
    Samples detect_ms;
    for (const Finding& f : run.live) {
      const auto it = open_stream.canary_of.find(f.key);
      if (it == open_stream.canary_of.end()) continue;
      const auto due = run.due[open_stream.trigger_index[it->second]];
      detect_ms.add(std::chrono::duration<double, std::milli>(f.at - due).count());
    }
    if (!detect_ms.empty()) {
      sheet.extra("ingest.detect_ms_p50", detect_ms.median(), "ms");
      sheet.extra("ingest.detect_ms_p99", detect_ms.quantile(0.99), "ms");
    }
    sheet.extra("ingest.push_lag_ms_p99", run.push_lag_ms.quantile(0.99), "ms");
    sheet.extra("open_loop_ops", static_cast<double>(open_stream.ops.size()),
                "count");
  }

  // Phase 2, closed loop: the same monitor pushed as fast as
  // backpressure allows.
  const LoopStats loop =
      closed_loop(args, args.seconds - open_s, [&](std::uint64_t) {
        const MonitorRun run = monitor_once(*engine, closed_stream, 0);
        const std::string diff =
            check_monitor_run(closed_stream, run.report, run.live);
        sheet.check(diff.empty(), "closed-loop monitor: " + diff);
        return closed_stream.ops.size();
      });
  emit_end_to_end(sheet, loop, setup, rss);
}

// ---------------------------------------------------------------------------
// store_mixed: selective queries against a TraceStore while a writer
// appends a fresh-key segment every 64 queries and background
// compaction shares the Engine's pool -- a gain for one side that costs
// the other shows up here.
// ---------------------------------------------------------------------------

constexpr std::size_t kBaseSegments = 8;
constexpr std::size_t kBaseSegmentOps = 131'072;
constexpr std::size_t kAppendOps = 32'768;
constexpr std::size_t kQueriesPerAppend = 64;
constexpr std::size_t kQueryKeys = 4;

// A fresh-key batch for the writer: serial write/read pairs over 64
// keys never seen before, so base-key verdicts cannot change.
KeyedTrace append_batch(std::uint64_t seed, std::size_t batch) {
  kav::Rng rng(seed * 1'000'003 + batch);
  KeyedTrace trace;
  std::vector<TimePoint> clock(64, 0);
  char name[48];
  for (std::size_t i = 0; trace.size() < kAppendOps; ++i) {
    const std::size_t k = i % clock.size();
    std::snprintf(name, sizeof name, "append/%06zu/%02zu", batch, k);
    const TimePoint t = clock[k];
    const auto value = static_cast<kav::Value>(i + 1);
    trace.add(name, kav::make_write(t, t + 4, value));
    trace.add(name, kav::make_read(t + 5, t + 8, value,
                                   static_cast<kav::ClientId>(rng.bounded(8))));
    clock[k] = t + 12;
  }
  return trace;
}

void run_store_mixed(const Args& args, Sheet& sheet, KeyedTrace& fixture) {
  fixture = sloppy_quorum_trace(args.seed, 1024,
                                static_cast<int>(kBaseSegments * kBaseSegmentOps));
  fixture.ops.resize(std::min(fixture.size(), kBaseSegments * kBaseSegmentOps));
  const KeyedHistories base = kav::split_by_key(fixture);
  const Outcomes reference = reference_outcomes(base);
  std::vector<std::string> keys;
  std::vector<double> zipf_cdf;
  double total = 0;
  for (const auto& [key, history] : base.per_key) {
    keys.push_back(key);
    total += 1.0 / static_cast<double>(keys.size());
    zipf_cdf.push_back(total);
  }
  PeakRss rss;
  rss.start(args, sheet);

  const fs::path dir = args.work_dir / "store";
  std::unique_ptr<kav::TraceStore> store;
  std::unique_ptr<Engine> engine;
  kav::Rng rng(args.seed ^ 0x5eed);
  auto pick_keys = [&] {
    std::vector<std::string> picked;
    while (picked.size() < kQueryKeys) {
      const double u = rng.uniform_double() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      const std::string& key = keys[std::min(rank, keys.size() - 1)];
      if (std::find(picked.begin(), picked.end(), key) == picked.end()) {
        picked.push_back(key);
      }
    }
    return picked;
  };
  auto query = [&](const std::vector<std::string>& picked) {
    RunOptions run;
    run.key_filter = picked;
    std::unique_ptr<kav::IndexedTraceSource> source;
    {
      ScopedSpan span("store.open_source");
      source = store->open_source();
    }
    ScopedSpan span("engine.verify_selective");
    return engine->verify(*source, run);
  };

  const SetupTime setup = timed_setups([&] {
    store.reset();  // before its engine: it borrows the pool
    engine.reset();
    fs::remove_all(dir);
    EngineOptions options;
    options.threads = kLiveThreads;
    engine = std::make_unique<Engine>(options);
    store = engine->open_store(dir.string());
    for (std::size_t s = 0; s < kBaseSegments; ++s) {
      KeyedTrace part;
      part.ops.assign(
          fixture.ops.begin() + static_cast<std::ptrdiff_t>(s * kBaseSegmentOps),
          fixture.ops.begin() +
              static_cast<std::ptrdiff_t>((s + 1) * kBaseSegmentOps));
      store->append(part);
    }
    store->disable_background_compaction();  // waits for the folds
    store->enable_background_compaction(engine->pool());
    const std::vector<std::string> picked = pick_keys();
    sheet.check(compare_report(query(picked), reference, &picked).empty(),
                "warm-up query matches the reference");
  });
  const std::size_t segments_start = store->segment_count();

  // The writer: one fresh-key segment per kQueriesPerAppend queries, on
  // its own thread, so each append and the compaction it triggers
  // overlap the queries that follow. Tying the cadence to queries keeps
  // the read/write mix, and so the store's growth per query, the same
  // however fast the host runs.
  std::mutex writer_mutex;
  std::condition_variable writer_cv;
  std::uint64_t queries_done = 0;  // guarded by writer_mutex
  bool stop = false;               // guarded by writer_mutex
  Samples append_ms;
  std::string writer_error;
  std::size_t appended = 0;  // written by the writer only, read after join
  std::thread writer([&] {
    try {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(writer_mutex);
          writer_cv.wait(lock, [&] {
            return stop || queries_done >= (appended + 1) * kQueriesPerAppend;
          });
          if (stop) break;
        }
        const KeyedTrace batch = append_batch(args.seed, appended);
        ScopedSpan span("store.append");
        const auto t = Clock::now();
        store->append(batch);
        append_ms.add(1e3 * seconds_since(t));
        ++appended;
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });
  auto stop_writer = [&] {
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      stop = true;
    }
    writer_cv.notify_one();
    writer.join();
  };
  LoopStats loop;
  try {
    loop = closed_loop(args, args.seconds, [&](std::uint64_t) {
      const std::vector<std::string> picked = pick_keys();
      const Report report = query(picked);
      const std::string diff = compare_report(report, reference, &picked);
      sheet.check(diff.empty(), "query: " + diff);
      {
        std::lock_guard<std::mutex> lock(writer_mutex);
        ++queries_done;
      }
      writer_cv.notify_one();
      std::uint64_t ops = 0;
      for (const auto& key : picked) ops += base.per_key.at(key).size();
      return ops;
    });
  } catch (...) {
    stop_writer();
    throw;
  }
  stop_writer();
  sheet.check(writer_error.empty(), "appends succeed: " + writer_error);
  store->disable_background_compaction();
  sheet.check(store->last_maintenance_error().empty(),
              "background compaction: " + store->last_maintenance_error());
  sheet.check(store->fsck().ok(), "store fsck clean at exit");
  sheet.check(store->total_records() ==
                  fixture.size() + appended * kAppendOps,
              "store holds base + appended records");

  emit_end_to_end(sheet, loop, setup, rss, appended * kAppendOps);
  sheet.extra("store.query_ms_p99", loop.call_ms.quantile(0.99), "ms");
  if (!append_ms.empty()) {
    sheet.extra("store.append_ms_p50", append_ms.median(), "ms");
    sheet.extra("store.append_ms_p99", append_ms.quantile(0.99), "ms");
  }
  sheet.extra("appends", static_cast<double>(appended), "count");
  sheet.extra("store.segments_start", static_cast<double>(segments_start),
              "count");
  sheet.extra("store.segments_live_end",
              static_cast<double>(store->segment_count()), "count");
  store.reset();
  engine.reset();
}

// ---------------------------------------------------------------------------

using Workload = void (*)(const Args&, Sheet&, KeyedTrace&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"audit_file", run_audit_file},
      {"decide_contended", run_decide_contended},
      {"monitor_live", run_monitor_live},
      {"store_mixed", run_store_mixed},
  };
  return table;
}

int run(int argc, char** argv) {
  kav::Flags flags(argc, argv);
  Args args;
  args.workload = flags.get_string("workload", "");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  args.seconds = flags.get_double("seconds", 15);
  args.work_dir = flags.get_string("work-dir", "");
  args.trace_path = flags.get_string("trace", "");
  flags.check_unknown();
  const auto it = workloads().find(args.workload);
  if (it == workloads().end() || args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: kavbench --workload=audit_file|decide_contended|"
                 "monitor_live|store_mixed --seed=N --seconds=S "
                 "--work-dir=DIR [--trace=FILE]\n");
    return 2;
  }
  fs::create_directories(args.work_dir);
  spans().set_enabled(args.traced());

  Sheet sheet;
  sheet.info("workload", args.workload);
  sheet.info("seed", std::to_string(args.seed));
  sheet.info("build_type", KAVBENCH_BUILD_TYPE);
  sheet.info("compiler", __VERSION__);
  sheet.info("simd", kav::simd::to_string(kav::simd::active_level()));
  KeyedTrace fixture;
  {
    ScopedSpan span("workload");
    it->second(args, sheet, fixture);
  }
  if (args.traced()) {
    decompose(fixture, args.work_dir, sheet);
    sheet.metric("trace.spans", static_cast<double>(spans().size()), "count");
    spans().write(args.trace_path);
  }
  std::fprintf(stderr, "%s seed %llu: %llu checked, %llu failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(sheet.attempted()),
               static_cast<unsigned long long>(sheet.failed()));
  sheet.print_human(stderr);
  std::printf("%s\n", sheet.json().c_str());
  return 0;
}

}  // namespace
}  // namespace kavbench

int main(int argc, char** argv) {
  try {
    return kavbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kavbench: %s\n", e.what());
    return 1;
  }
}
