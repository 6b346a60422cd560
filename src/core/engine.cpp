#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "ingest/keyed_monitor.h"
#include "obs/span.h"
#include "pipeline/sharded_verifier.h"
#include "pipeline/thread_pool.h"
#include "store/trace_store.h"
#include "util/memory.h"
#include "util/thread_safety.h"

namespace kav {

// The ledger behind Engine::status() / GET /status: what the registry's
// counters cannot answer -- which runs, how recently, against which hot
// keys. Mutated once per run start/finish (never per operation), so one
// mutex is the right tool.
struct Engine::StatusCollector {
  // How many finished runs /status remembers.
  static constexpr std::size_t kRecentRuns = 8;

  const std::chrono::steady_clock::time_point engine_start =
      std::chrono::steady_clock::now();

  mutable util::Mutex mutex;
  std::uint64_t started KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t completed KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t cancelled KAV_GUARDED_BY(mutex) = 0;
  std::uint64_t in_flight KAV_GUARDED_BY(mutex) = 0;
  std::deque<obs::RunSummaryInfo> recent KAV_GUARDED_BY(mutex);  // newest front
  std::map<std::string, std::uint64_t> violations KAV_GUARDED_BY(mutex);

  void run_started() {
    util::MutexLock lock(mutex);
    ++started;
    ++in_flight;
  }

  // A run that threw: leaves no summary, but must not leak in_flight.
  void run_aborted() {
    util::MutexLock lock(mutex);
    --in_flight;
  }

  void run_finished(bool batch, const Report& report, double seconds) {
    obs::RunSummaryInfo summary;
    summary.mode = batch ? "batch" : "monitor";
    summary.outcome = report.cancelled ? "cancelled" : "completed";
    summary.seconds = seconds;
    summary.keys = report.per_key.size();
    for (const auto& [key, result] : report.per_key) {
      if (batch) {
        if (result.verdict.outcome == Outcome::no) ++summary.findings;
      } else {
        summary.findings += result.findings.size();
      }
    }

    util::MutexLock lock(mutex);
    --in_flight;
    (report.cancelled ? cancelled : completed) += 1;
    recent.push_front(std::move(summary));
    if (recent.size() > kRecentRuns) recent.pop_back();
    if (!batch) {
      for (const auto& [key, result] : report.per_key) {
        if (!result.findings.empty()) {
          violations[key] += result.findings.size();
        }
      }
    }
  }

  obs::StatusSnapshot snapshot(std::size_t top_n) const {
    obs::StatusSnapshot status;
    status.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      engine_start)
            .count();
    util::MutexLock lock(mutex);
    status.runs_started = started;
    status.runs_completed = completed;
    status.runs_cancelled = cancelled;
    status.runs_in_flight = in_flight;
    status.recent_runs.assign(recent.begin(), recent.end());
    status.violation_top.assign(violations.begin(), violations.end());
    std::sort(status.violation_top.begin(), status.violation_top.end(),
              [](const auto& a, const auto& b) {
                // Descending by count, key order breaking ties.
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (status.violation_top.size() > top_n) {
      status.violation_top.resize(top_n);
    }
    return status;
  }
};

// Run-lifecycle instruments. Counters are labeled by mode so one
// scrape distinguishes batch verification from online monitoring;
// verdict and finding breakdowns use one series per enum value so
// rates stay cheap to compute scraper-side.
struct Engine::Metrics {
  obs::Counter& runs_started_batch;
  obs::Counter& runs_started_monitor;
  obs::Counter& runs_completed_batch;
  obs::Counter& runs_completed_monitor;
  obs::Counter& runs_cancelled_batch;
  obs::Counter& runs_cancelled_monitor;
  obs::Histogram& run_seconds_batch;
  obs::Histogram& run_seconds_monitor;
  obs::Counter& keys_verified;
  obs::Counter& verdict_yes;
  obs::Counter& verdict_no;
  obs::Counter& verdict_undecided;
  obs::Counter& verdict_precondition_failed;
  obs::Counter& finding_not_2atomic;
  obs::Counter& finding_horizon_exceeded;
  obs::Counter& finding_hard_anomaly;
  obs::Counter& finding_late_arrival;

  explicit Metrics(obs::MetricsRegistry& r)
      : runs_started_batch(r.counter(
            "kav_engine_runs_started_total",
            "Verification/monitoring runs entered, by mode.",
            {{"mode", "batch"}})),
        runs_started_monitor(r.counter("kav_engine_runs_started_total",
                                       "Verification/monitoring runs entered, "
                                       "by mode.",
                                       {{"mode", "monitor"}})),
        runs_completed_batch(r.counter(
            "kav_engine_runs_completed_total",
            "Runs that returned a report without an early stop, by mode.",
            {{"mode", "batch"}})),
        runs_completed_monitor(r.counter(
            "kav_engine_runs_completed_total",
            "Runs that returned a report without an early stop, by mode.",
            {{"mode", "monitor"}})),
        runs_cancelled_batch(r.counter(
            "kav_engine_runs_cancelled_total",
            "Runs stopped early by a CancelToken or deadline, by mode.",
            {{"mode", "batch"}})),
        runs_cancelled_monitor(r.counter(
            "kav_engine_runs_cancelled_total",
            "Runs stopped early by a CancelToken or deadline, by mode.",
            {{"mode", "monitor"}})),
        run_seconds_batch(r.histogram(
            "kav_engine_run_seconds",
            "End-to-end wall time of one run, by mode.",
            {{"mode", "batch"}})),
        run_seconds_monitor(r.histogram(
            "kav_engine_run_seconds",
            "End-to-end wall time of one run, by mode.",
            {{"mode", "monitor"}})),
        keys_verified(r.counter(
            "kav_engine_keys_verified_total",
            "Per-key results produced across all runs (skips included).")),
        verdict_yes(r.counter("kav_engine_verdicts_total",
                              "Per-key verdicts produced, by outcome.",
                              {{"outcome", "yes"}})),
        verdict_no(r.counter("kav_engine_verdicts_total",
                             "Per-key verdicts produced, by outcome.",
                             {{"outcome", "no"}})),
        verdict_undecided(r.counter("kav_engine_verdicts_total",
                                    "Per-key verdicts produced, by outcome.",
                                    {{"outcome", "undecided"}})),
        verdict_precondition_failed(
            r.counter("kav_engine_verdicts_total",
                      "Per-key verdicts produced, by outcome.",
                      {{"outcome", "precondition_failed"}})),
        finding_not_2atomic(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "not_2atomic"}})),
        finding_horizon_exceeded(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "horizon_exceeded"}})),
        finding_hard_anomaly(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "hard_anomaly"}})),
        finding_late_arrival(r.counter(
            "kav_engine_findings_total",
            "Monitor-mode violations surfaced in reports, by kind.",
            {{"kind", "late_arrival"}})) {}

  obs::Counter& for_outcome(Outcome outcome) {
    switch (outcome) {
      case Outcome::yes:
        return verdict_yes;
      case Outcome::no:
        return verdict_no;
      case Outcome::undecided:
        return verdict_undecided;
      case Outcome::precondition_failed:
        break;
    }
    return verdict_precondition_failed;
  }

  obs::Counter& for_kind(StreamingViolation::Kind kind) {
    switch (kind) {
      case StreamingViolation::Kind::not_2atomic:
        return finding_not_2atomic;
      case StreamingViolation::Kind::horizon_exceeded:
        return finding_horizon_exceeded;
      case StreamingViolation::Kind::hard_anomaly:
        return finding_hard_anomaly;
      case StreamingViolation::Kind::late_arrival:
        break;
    }
    return finding_late_arrival;
  }

  // One per public entry point: counts the run as started immediately
  // (so a scraper can see runs in flight as started - completed -
  // cancelled), times it into run_seconds + an "engine.verify" /
  // "engine.monitor" span, and on finish() folds the finished Report's
  // verdicts and findings into the registry and the run into the
  // status ledger. A run that throws still records its start and
  // duration (and releases its in-flight slot), never a completion.
  class RunScope {
   public:
    RunScope(Metrics& metrics, StatusCollector& status, bool batch)
        : metrics_(metrics),
          status_(status),
          batch_(batch),
          start_(std::chrono::steady_clock::now()),
          timer_(batch ? &metrics.run_seconds_batch
                       : &metrics.run_seconds_monitor,
                 &obs::Tracer::global(),
                 batch ? "engine.verify" : "engine.monitor", "engine") {
      (batch ? metrics.runs_started_batch : metrics.runs_started_monitor)
          .add(1);
      status_.run_started();
    }

    ~RunScope() {
      if (!finished_) status_.run_aborted();
    }

    void finish(const Report& report) {
      finished_ = true;
      // Everything the run records lands before the ledger calls it
      // finished, so a scraper that sees it completed sees all of it.
      timer_.stop();
      obs::Counter& end =
          batch_ ? (report.cancelled ? metrics_.runs_cancelled_batch
                                     : metrics_.runs_completed_batch)
                 : (report.cancelled ? metrics_.runs_cancelled_monitor
                                     : metrics_.runs_completed_monitor);
      end.add(1);
      metrics_.keys_verified.add(report.per_key.size());
      for (const auto& [key, result] : report.per_key) {
        metrics_.for_outcome(result.verdict.outcome).add(1);
        for (const StreamingViolation& violation : result.findings) {
          metrics_.for_kind(violation.kind).add(1);
        }
      }
      status_.run_finished(
          batch_, report,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
    }

   private:
    Metrics& metrics_;
    StatusCollector& status_;
    bool batch_;
    bool finished_ = false;
    std::chrono::steady_clock::time_point start_;
    obs::ScopedTimer timer_;
  };
};

namespace {

// Normalized RunOptions::key_filter: the requested keys, deduplicated
// and ordered. Inactive (pass-everything) when the filter is empty.
struct KeyFilter {
  bool active = false;
  std::set<std::string, std::less<>> wanted;

  explicit KeyFilter(const RunOptions& run)
      : active(!run.key_filter.empty()),
        wanted(run.key_filter.begin(), run.key_filter.end()) {}

  bool pass(std::string_view key) const {
    return !active || wanted.count(key) > 0;
  }
};

// Fills Report's selection accounting given which keys the input
// actually offered. `requested` and `offered` are sorted sets, so
// missing_keys comes out sorted.
template <typename OfferedSet>
void account_selection(Report& report, const KeyFilter& filter,
                       const OfferedSet& offered) {
  if (!filter.active) return;
  report.selected = true;
  report.keys_available = offered.size();
  for (const std::string& key : filter.wanted) {
    if (offered.count(key) > 0) {
      ++report.keys_selected;
    } else {
      report.missing_keys.push_back(key);
    }
  }
}

// An input's keys seen as account_selection's offered set: how many
// keys it holds, and the kept keys -- under a filter, exactly the
// requested keys it holds. A streamed input's count is read from the
// consumer (KeyGrouper, KeyedStreamingMonitor) that made the keep
// decision, once per id, and its kept keys are the report's, which
// holds one result per kept key; an indexed source's from its key count
// and one index lookup per requested key.
template <typename KeptMap>
struct NamedKeys {
  std::size_t named;
  const KeptMap& kept;
  std::size_t size() const { return named; }
  std::size_t count(const std::string& key) const { return kept.count(key); }
};

// The key_filter as a grouper/monitor keep predicate; empty (keep
// everything, no call per key) when no filter is set.
std::function<bool(std::string_view)> keep_for(const KeyFilter& filter) {
  if (!filter.active) return {};
  return [&filter](std::string_view key) { return filter.pass(key); };
}

// RunOptions::timeout as an absolute cutoff, anchored at call entry.
std::optional<std::chrono::steady_clock::time_point> effective_deadline(
    const RunOptions& run) {
  if (run.timeout.count() <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() + run.timeout;
}

// Shared run-control scaffolding for every source-consuming loop.
constexpr std::chrono::milliseconds kPullWait{100};
// Operations per pull when reading a source for batch verification:
// large enough that the per-chunk costs (the stop check, the pull
// call) vanish, small enough that the chunk stays cache-resident.
constexpr std::size_t kVerifyChunkOps = 1'024;

// Non-empty stop reason when the run must stop now; checked once per
// pulled chunk.
std::string check_stop(
    const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& activity) {
  if (run.cancel.cancelled()) {
    return "cancelled by caller while " + activity;
  }
  if (deadline && std::chrono::steady_clock::now() >= *deadline) {
    return "wall-clock deadline exceeded while " + activity;
  }
  return {};
}

// Pulls `source` dry in chunks of at most `chunk_ops` operations,
// through bounded waits -- so a blocking source (PushTraceSource)
// cannot starve cancellation -- handing each chunk to `per_chunk`.
// Returns the empty string on a clean end of stream, else the stop
// reason. A stop cuts the read short only if something is left to
// read: one more pull, without waiting, tells.
template <typename PerChunk>
std::string drive_source(
    TraceSource& source, std::size_t chunk_ops, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& activity, PerChunk&& per_chunk) {
  KeyedChunk chunk;
  for (;;) {
    const TraceSource::Pull pull = source.pull(chunk, chunk_ops, kPullWait);
    if (pull == TraceSource::Pull::closed) return {};
    if (pull == TraceSource::Pull::ready) per_chunk(chunk);
    std::string stop = check_stop(run, deadline, activity);
    if (!stop.empty()) {
      return source.pull(chunk, 1, std::chrono::milliseconds(0)) ==
                     TraceSource::Pull::closed
                 ? std::string()
                 : stop;
    }
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::global()),
      em_(std::make_unique<Metrics>(*metrics_)),
      status_(std::make_unique<StatusCollector>()),
      pool_(std::make_unique<pipeline::ThreadPool>(options_.threads,
                                                   metrics_)) {
  verifier_ =
      std::make_unique<ShardedVerifier>(*pool_, *metrics_, options_.fail_fast);
}

Engine::~Engine() {
  // The server's handlers read status_ and the registry: stop it
  // before any other member goes down.
  telemetry_.reset();
}

obs::TelemetryServer& Engine::serve_telemetry(const std::string& address,
                                              int port) {
  if (telemetry_) return *telemetry_;
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("serve_telemetry: port " +
                                std::to_string(port) +
                                " is outside [0, 65535]");
  }
  obs::TelemetryOptions telemetry_options;
  telemetry_options.address = address;
  telemetry_options.port = static_cast<std::uint16_t>(port);
  telemetry_ =
      std::make_unique<obs::TelemetryServer>(*metrics_, telemetry_options);
  telemetry_->set_status_source([this] { return status(); });
  return *telemetry_;
}

obs::StatusSnapshot Engine::status(std::size_t top_n) const {
  return status_->snapshot(top_n);
}

std::size_t Engine::thread_count() const { return pool_->thread_count(); }

std::unique_ptr<TraceStore> Engine::open_store(const std::string& directory) {
  auto store = std::make_unique<TraceStore>(directory, metrics_);
  store->enable_background_compaction(*pool_);
  return store;
}

namespace {

// One pinned ShardSpec per shard that passes `filter`, in key order. Each
// History is pinned by pointer -- no copies; verify_shards waits for
// every task before returning, so the pointers never dangle.
std::vector<ShardSpec> pinned_specs(const KeyedHistories& shards,
                                    const KeyFilter& filter) {
  std::vector<ShardSpec> specs;
  specs.reserve(shards.per_key.size());
  for (const auto& [key, history] : shards.per_key) {
    if (!filter.pass(key)) continue;
    ShardSpec spec;
    spec.key = key;
    spec.op_count = history.size();
    spec.pinned = &history;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// A monitor run this long leaves megabytes of freed per-key state
// behind.
constexpr std::uint64_t kReleaseAfterMonitorOps = std::uint64_t{1} << 16;

// A stopped run still finishes cleanly: what was ingested is fully
// checked, so the partial report is sound for the prefix.
Report finish_monitor(KeyedStreamingMonitor& monitor, const std::string& stop) {
  Report report = monitor.finish();
  if (!stop.empty()) {
    report.cancelled = true;
    report.stop_reason = stop;
  }
  return report;
}

}  // namespace

Report Engine::run_specs(
    const std::vector<ShardSpec>& specs, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  return verifier_->verify_shards(
      specs, run.verify ? *run.verify : options_.verify, run.cancel, deadline);
}

Report Engine::verify_selective(
    const IndexedTraceSource& source, const RunOptions& run,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  const KeyFilter filter(run);
  // Only the requested keys are looked up, once each; the source's
  // other keys are never listed.
  std::set<std::string> present;
  std::vector<ShardSpec> specs;
  specs.reserve(filter.wanted.size());
  for (const std::string& key : filter.wanted) {
    const std::optional<KeyStat> stat = source.stat(key);
    if (!stat.has_value()) continue;
    present.insert(key);
    ShardSpec spec;
    spec.key = key;
    // Op count from index statistics: the scheduling decision happens
    // before a single record is decoded.
    spec.op_count = static_cast<std::size_t>(stat->records);
    spec.load = [&source, key]() { return source.load_key(key); };
    specs.push_back(std::move(spec));
  }
  Report report = run_specs(specs, run, deadline);
  account_selection(report, filter, NamedKeys{source.key_count(), present});
  return report;
}

Report Engine::verify(const KeyedTrace& trace, const RunOptions& run) {
  // Read in place, like monitor(): the streamed path groups the trace.
  MemoryTraceSource source(&trace);
  return verify(source, run);
}

Report Engine::verify(const KeyedHistories& shards, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/true);
  const KeyFilter filter(run);
  Report report =
      run_specs(pinned_specs(shards, filter), run, effective_deadline(run));
  account_selection(report, filter, shards.per_key);
  scope.finish(report);
  return report;
}

Report Engine::verify(TraceSource& source, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/true);
  // Anchored once at entry: the same cutoff governs reading the source
  // AND the shard phase, so a slow source cannot re-arm the timeout.
  const auto deadline = effective_deadline(run);
  // The selective fast path: an index-backed source hands out per-key
  // op counts and lazy loaders, so only the requested keys' blocks are
  // ever decoded -- no full-file materialization.
  if (!run.key_filter.empty()) {
    if (const auto* indexed = dynamic_cast<IndexedTraceSource*>(&source)) {
      Report report = verify_selective(*indexed, run, deadline);
      scope.finish(report);
      return report;
    }
  }
  // Any other source: group it by key while reading -- one pass, each
  // operation stored once, as a row in its key's vector, found by its
  // KeyId. A key_filter is applied once per key, when the key is first
  // named; every record is still decoded.
  const KeyFilter filter(run);
  KeyGrouper grouper(keep_for(filter));
  const std::string stop = drive_source(
      source, kVerifyChunkOps, run, deadline, "reading " + source.describe(),
      [&grouper](const KeyedChunk& chunk) { grouper.add(chunk); });
  const std::size_t named = grouper.key_count();
  // One lazy shard per kept key: the worker that decides a key builds
  // its History from the rows, freeing them, and repairs it in place,
  // so beside the rows only the Histories being decided are resident.
  std::vector<KeyRows> groups = grouper.finish();
  std::vector<ShardSpec> specs;
  specs.reserve(groups.size());
  for (KeyRows& group : groups) {
    ShardSpec spec;
    spec.key = std::move(group.key);
    spec.op_count = group.ops.size();
    spec.load = [ops = &group.ops] { return History(std::move(*ops)); };
    specs.push_back(std::move(spec));
  }
  Report report = run_specs(specs, run, deadline);
  account_selection(report, filter, NamedKeys{named, report.per_key});
  if (!stop.empty()) {
    report.cancelled = true;
    report.stop_reason = stop;
  }
  scope.finish(report);
  return report;
}

Report Engine::monitor(const KeyedTrace& trace, const RunOptions& run) {
  // Read in place: the trace is already in memory, so no O(trace) copy.
  MemoryTraceSource source(&trace);
  return monitor(source, run);
}

Report Engine::monitor(TraceSource& source, const RunOptions& run) {
  Metrics::RunScope scope(*em_, *status_, /*batch=*/false);
  const auto deadline = effective_deadline(run);
  const KeyFilter filter(run);
  Report report;
  std::size_t named = 0;
  {
    KeyedStreamingMonitor monitor(*pool_, *metrics_, options_, run.on_finding,
                                  keep_for(filter));
    // Chunks of at most queue_capacity operations keep every partition
    // queue under 2 x queue_capacity (ingest/keyed_monitor.h).
    const std::string stop = drive_source(
        source, std::max<std::size_t>(1, options_.queue_capacity), run,
        deadline, "monitoring " + source.describe(),
        [&monitor](const KeyedChunk& chunk) { monitor.ingest(chunk); });
    report = finish_monitor(monitor, stop);
    named = monitor.key_count();
  }  // the monitor retires its gauges before the run counts as finished
  // The drain tasks built each key's checker and reorder state in their
  // workers' malloc arenas; freed, it would stay resident there, and
  // repeated runs on one Engine touch ever more of those arenas
  // (util/memory.h). Hand it back, as ShardedVerifier does after a
  // large shard.
  if (report.monitor_totals.operations_ingested >= kReleaseAfterMonitorOps) {
    util::release_free_memory();
  }
  account_selection(report, filter, NamedKeys{named, report.per_key});
  scope.finish(report);
  return report;
}

}  // namespace kav
