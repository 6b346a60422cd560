// kav::Engine -- the library's one front door. A long-lived session
// object in the spirit of a production verifier (the paper's Section
// VII experiment run as a service, not a one-shot function call):
// constructed once from EngineOptions (core/options.h), owning ONE
// thread pool shared by sharded batch verification
// (pipeline/sharded_verifier.h) and keyed online monitoring
// (ingest/keyed_monitor.h), and consuming any input through the
// polymorphic TraceSource abstraction (ingest/trace_source.h). Both
// entry points return the unified Report (core/report.h) and accept
// per-call RunOptions: a VerifyOptions override, a CancelToken, a
// wall-clock timeout, a live per-violation callback (monitor), and a
// key_filter for selective runs (index-backed sources decode only the
// requested keys' blocks; see src/store/).
//
// Option precedence, from strongest to weakest:
//   1. RunOptions::verify (per call) overrides EngineOptions::verify.
//   2. EngineOptions::threads is the only pool size: the verifier and
//      every monitor borrow the engine's pool and never spawn their own.
//
// Determinism: Engine::verify inherits the sharded pipeline's
// guarantee -- with fail_fast off and no cancel/timeout trigger, the
// Report's verdicts are bit-identical to the serial reference
// verify_keyed_trace (core/verify.h) for any thread count
// (differentially fuzzed by tests/engine_fuzz_test.cpp).
//
// The only other multi-register entry point is that serial reference,
// kept as the differential oracle. Full surface map: docs/API.md.
#ifndef KAV_CORE_ENGINE_H
#define KAV_CORE_ENGINE_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/report.h"
#include "core/run_control.h"
#include "core/streaming.h"
#include "core/verify.h"
#include "history/keyed_trace.h"
#include "ingest/trace_source.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"

namespace kav::pipeline {
class ThreadPool;
}  // namespace kav::pipeline

namespace kav {

class IndexedTraceSource;
class ShardedVerifier;
struct ShardSpec;
class TraceStore;

// Per-call run options. Default-constructed RunOptions verify (or
// monitor) everything under EngineOptions, with no early stop.
struct RunOptions {
  // Overrides EngineOptions::verify for this call, e.g. auditing the
  // same shards at several k on one pool.
  std::optional<VerifyOptions> verify;
  // Selective run: verify (or monitor) only these keys. Over a source
  // backed by a per-key index (an indexed .kavb v2 segment or a
  // TraceStore -- see src/store/), each requested key's shard is
  // materialized lazily inside a pool worker straight from its index
  // blocks and the rest of the input is NEVER decoded; over any other
  // input the stream is filtered while read. Either way the verdicts
  // are bit-identical to filtering the full report of an unfiltered
  // run (differentially fuzzed by tests/store_fuzz_test.cpp), and
  // Report::keys_selected / keys_available / missing_keys account for
  // what the filter hit. Empty = verify everything.
  std::vector<std::string> key_filter;
  // Cooperative cancellation: keep a copy, call cancel() from any
  // thread. Shards that have not started answer UNDECIDED
  // (kSkipCancelledReason); a monitor run stops ingesting. Checked at
  // shard / pulled-chunk granularity -- running deciders complete.
  CancelToken cancel;
  // Wall-clock budget for this call, anchored once at call entry: one
  // cutoff covers reading the source and the shard phase. Shards that
  // have not started by then answer UNDECIDED (kSkipDeadlineReason); a
  // source read or monitor run stops between chunks. 0 = none.
  std::chrono::milliseconds timeout{0};
  // Monitor: live violation sink, invoked at detection time (see
  // KeyedStreamingMonitor's constructor for the threading contract).
  std::function<void(const std::string& key,
                     const StreamingViolation& violation)>
      on_finding;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Batch verification: split by key, verify shards on the shared
  // pool, merge in key order. Report::mode == batch. The KeyedTrace
  // overload reads the trace in place through a MemoryTraceSource, so
  // it takes the streamed path below; pre-split shards are decided
  // where they are, pinned by pointer.
  Report verify(const KeyedTrace& trace, const RunOptions& run = {});
  Report verify(const KeyedHistories& shards, const RunOptions& run = {});
  // Pulls the source dry first in chunks (TraceSource::pull;
  // cancellable between chunks), grouping each operation into its key's
  // rows by KeyId as it is read (KeyGrouper), then verifies: each key's
  // History is built from its rows, and repaired in place, on the pool
  // worker that decides it, so only the rows and the Histories in
  // flight are resident. Throws std::invalid_argument, before deciding
  // anything, for a kept key's operation with start >= finish. Unless
  // RunOptions::key_filter is set and the source is index-backed (an
  // IndexedTraceSource: an indexed .kavb file or a TraceStore), in which
  // case only the requested keys' blocks are ever decoded, each inside a
  // pool worker.
  Report verify(TraceSource& source, const RunOptions& run = {});

  // Online monitoring: stream the source, in chunks of at most
  // EngineOptions::queue_capacity operations, through a per-key
  // StreamingChecker array on the same shared pool (the KeyedTrace
  // overload reads the trace in place). Report::mode == monitor;
  // per-key findings and MonitorStats totals are filled in.
  // RunOptions::verify is ignored (the streaming checker is the k = 2
  // online decider).
  Report monitor(const KeyedTrace& trace, const RunOptions& run = {});
  Report monitor(TraceSource& source, const RunOptions& run = {});

  // Opens (creating if needed) a TraceStore at `directory` with
  // background tiered compaction enabled on this engine's shared pool
  // (store/trace_store.h) -- the session-owned way to run an
  // out-of-core store that maintains itself between verify calls.
  // Destroy the returned store before the engine: its destructor
  // quiesces the background pass, which needs the pool alive.
  std::unique_ptr<TraceStore> open_store(const std::string& directory);

  const EngineOptions& options() const { return options_; }
  std::size_t thread_count() const;
  // The one shared pool -- exposed so bespoke subsystems can schedule
  // side work without spawning their own.
  pipeline::ThreadPool& pool() { return *pool_; }

  // The registry this engine reports into (EngineOptions::metrics, or
  // the process-wide global). Safe to read/scrape from any thread.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  // Coherent point-in-time snapshot of every metric in this engine's
  // registry -- callable concurrently with running verify/monitor
  // calls (counters are monotone; a snapshot taken mid-run shows a
  // consistent prefix of the run's work). Feed it to
  // obs::render_prometheus / obs::render_json for the wire formats.
  obs::RegistrySnapshot snapshot() const { return metrics_->snapshot(); }

  // Starts serving this engine's telemetry over HTTP (GET /metrics,
  // /status, /healthz, /spans -- obs/telemetry_server.h) and wires
  // /status to this->status(). Port 0 = ephemeral; idempotent (the
  // running server is returned, the arguments of later calls are
  // ignored). Throws std::invalid_argument for a port outside
  // [0, 65535] and std::runtime_error on bind failure.
  obs::TelemetryServer& serve_telemetry(
      const std::string& address = "127.0.0.1", int port = 0);
  // The running server, or nullptr when none was started.
  obs::TelemetryServer* telemetry() { return telemetry_.get(); }

  // Point-in-time operator status: uptime, run counts (including
  // in-flight), the most recent run summaries, and the top-`top_n`
  // keys by monitor violations. Safe from any thread, concurrent with
  // running calls -- this is what GET /status serves.
  obs::StatusSnapshot status(std::size_t top_n = 10) const;

 private:
  // `deadline` is the already-anchored cutoff for the whole call --
  // computed once at the public entry point so a slow TraceSource read
  // phase cannot re-arm a relative timeout for the shard phase.
  Report run_specs(
      const std::vector<ShardSpec>& specs, const RunOptions& run,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);
  // key_filter over an index-backed source: one lazy spec per
  // requested key, decoded on the pool straight from the index.
  Report verify_selective(
      const IndexedTraceSource& source, const RunOptions& run,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  EngineOptions options_;
  obs::MetricsRegistry* metrics_;  // never null after construction
  // Run-lifecycle instruments (kav_engine_runs_*, run_seconds,
  // verdicts, findings); defined in engine.cpp, accounted by the
  // RunScope helper wrapping each public entry point.
  struct Metrics;
  std::unique_ptr<Metrics> em_;
  // Run ledger behind status(): counts, recent-run ring, per-key
  // violation totals; defined in engine.cpp, fed by RunScope.
  struct StatusCollector;
  std::unique_ptr<StatusCollector> status_;
  std::unique_ptr<pipeline::ThreadPool> pool_;
  std::unique_ptr<ShardedVerifier> verifier_;
  // Declared last: the server's /status handler reads status_ (and the
  // registry), so it must stop before anything above is torn down.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace kav

#endif  // KAV_CORE_ENGINE_H
