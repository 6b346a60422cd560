// Keyed online monitoring: the piece that lets a storage system stream
// live traffic through the checker. k-atomicity is local (paper
// Section II-B), so the monitor shards incoming operations to one
// StreamingChecker per key; a ReorderBuffer in front of each checker
// turns bounded arrival disorder into the watermark promise the
// checker needs, and a bounded per-key queue decouples producers from
// checking while capping memory (backpressure: ingest() blocks when a
// key's queue is full). Checking runs as tasks on a work-stealing
// pipeline::ThreadPool -- at most one drain task per key at a time, so
// per-key processing is serial (checkers are not thread-safe) while
// distinct keys check in parallel.
//
// The pool is borrowed: kav::Engine (core/engine.h, the library's front
// door) runs batch verification and monitoring on ONE shared pool, and
// Engine::monitor constructs one monitor per run. A monitor never shuts
// the pool down; its destructor only waits for its own in-flight drain
// tasks to quiesce.
//
// Soundness inherits from the two layers (see docs/ALGORITHMS.md):
// the reorder slack S gives each checker a valid watermark, and the
// staleness horizon H lets it evict settled chunks, so each per-key
// window is O(ops in flight within S + H ticks) -- not O(trace).
//
// Ingest may be called from many producer threads concurrently;
// per-key violation order is arrival order. finish() must be called
// from one thread after all producers stop.
#ifndef KAV_INGEST_KEYED_MONITOR_H
#define KAV_INGEST_KEYED_MONITOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/report.h"
#include "core/streaming.h"
#include "history/keyed_trace.h"
#include "ingest/reorder_buffer.h"
#include "obs/metrics.h"
#include "pipeline/bounded_queue.h"
#include "pipeline/thread_pool.h"
#include "util/thread_safety.h"

namespace kav {

// MonitorStats lives in core/report.h (the unified Report embeds it).

class KeyedStreamingMonitor {
 public:
  // Live violation sink (RunOptions::on_finding).
  using FindingSink = std::function<void(const std::string& key,
                                         const StreamingViolation& violation)>;

  // Checking tasks run on `pool`; the kav_monitor_* series (live
  // ingest/violation counters plus watermark-lag, reorder-occupancy,
  // and backlog gauges) go to `metrics`. Both must outlive the monitor.
  // Reads EngineOptions::streaming (per-key staleness horizon),
  // ::reorder_slack, and ::queue_capacity.
  //
  // `on_finding`, when set, is invoked as violations are detected
  // (drain time, not finish time), from pool workers, serialized per
  // key and holding that key's processing lock -- keep it cheap and
  // never call back into the monitor. Per-key order is detection order.
  // A sink that throws disables live emission for the rest of the run
  // (recorded as a hard_anomaly finding); the final report is never
  // affected.
  KeyedStreamingMonitor(pipeline::ThreadPool& pool,
                        obs::MetricsRegistry& metrics,
                        const EngineOptions& options,
                        FindingSink on_finding = {});
  ~KeyedStreamingMonitor();

  KeyedStreamingMonitor(const KeyedStreamingMonitor&) = delete;
  KeyedStreamingMonitor& operator=(const KeyedStreamingMonitor&) = delete;

  // Thread-safe; blocks when the key's queue is full (backpressure).
  // Throws std::logic_error after finish().
  void ingest(const std::string& key, const Operation& op)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);
  void ingest(const KeyedOperation& kop)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);

  // Drains every queue, flushes every reorder buffer, finishes every
  // checker, and returns a monitor-mode Report: per key, a verdict (YES
  // iff the key's stream produced no violations), its StreamingStats,
  // and its findings (monitor-level ones such as late arrivals
  // appended), plus MonitorStats totals. Call once, from one thread,
  // after all producers have stopped.
  Report finish() KAV_EXCLUDES(keys_mutex_);

  // Aggregated snapshot; safe to call from any thread mid-stream.
  MonitorStats stats() const KAV_EXCLUDES(keys_mutex_);

 private:
  // Per-key state. Defined here (not in the .cpp) so the KAV_REQUIRES
  // contracts on the helpers below can name state.process_mutex.
  struct KeyState {
    KeyState(std::string key_name, const EngineOptions& options)
        : key(std::move(key_name)),
          queue(options.queue_capacity),
          reorder(options.reorder_slack),
          checker(options.streaming) {}

    const std::string key;
    pipeline::BoundedQueue<Operation> queue;
    // True while a drain task is scheduled or running; together with
    // process_mutex this guarantees at most one drainer per key, so the
    // (non-thread-safe) reorder buffer and checker see serial access.
    std::atomic<bool> scheduled{false};
    std::atomic<std::int64_t> ingested{0};
    // This key's share of the kav_monitor_queue_backlog gauge (ops
    // pushed minus ops popped), so the destructor can retire exactly
    // what was never processed.
    std::atomic<std::int64_t> backlog{0};
    std::atomic<TimePoint> newest_start{kTimeMin};
    std::atomic<TimePoint> oldest_start{kTimeMax};

    util::Mutex process_mutex;
    ReorderBuffer reorder KAV_GUARDED_BY(process_mutex);
    StreamingChecker checker KAV_GUARDED_BY(process_mutex);
    // Violations detected by the monitor layer rather than the checker:
    // late arrivals, and drain-task failures (which must be surfaced as
    // findings -- a swallowed exception would wedge the key forever).
    std::vector<StreamingViolation> extra_violations
        KAV_GUARDED_BY(process_mutex);
    std::size_t peak_window KAV_GUARDED_BY(process_mutex) = 0;
    // High-water marks of violations already handed to the live
    // on_finding sink, so each finding is emitted exactly once.
    std::size_t reported_checker KAV_GUARDED_BY(process_mutex) = 0;
    std::size_t reported_extra KAV_GUARDED_BY(process_mutex) = 0;
    // High-water marks of what update_key_metrics() already folded into
    // the registry, so counter deltas are exact (checker totals are
    // monotone for the life of the key).
    std::size_t counted_checker KAV_GUARDED_BY(process_mutex) = 0;
    std::size_t counted_extra KAV_GUARDED_BY(process_mutex) = 0;
    std::uint64_t counted_chunks KAV_GUARDED_BY(process_mutex) = 0;
    std::int64_t last_reorder_pending KAV_GUARDED_BY(process_mutex) = 0;
  };

  KeyState& state_for(const std::string& key) KAV_EXCLUDES(keys_mutex_);
  void drain(KeyState& state) KAV_EXCLUDES(drains_mutex_);
  // Feeds one arrival through the reorder buffer into the checker.
  void process_one(KeyState& state, const Operation& op)
      KAV_REQUIRES(state.process_mutex);
  // Reports not-yet-reported violations to on_finding_.
  void emit_new_violations(KeyState& state) KAV_REQUIRES(state.process_mutex);
  // Folds the key's progress since the last call into the registry
  // (violation/chunk deltas via per-key high-water marks, gauge
  // refreshes).
  void update_key_metrics(KeyState& state) KAV_REQUIRES(state.process_mutex);
  // Blocks until no drain task of this monitor is queued or running.
  void quiesce() KAV_EXCLUDES(drains_mutex_);
  MonitorStats snapshot_totals() const KAV_EXCLUDES(keys_mutex_);

  const EngineOptions options_;
  const FindingSink on_finding_;
  // kav_monitor_* instruments (keyed_monitor.cpp); owned by the
  // registry, not by the monitor.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;
  pipeline::ThreadPool* pool_;

  // Shared for the per-ingest known-key lookup (the hot path stays
  // contention-free across producers), exclusive only when a key is
  // first seen.
  mutable util::SharedMutex keys_mutex_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>> keys_
      KAV_GUARDED_BY(keys_mutex_);
  std::chrono::steady_clock::time_point start_time_
      KAV_GUARDED_BY(keys_mutex_);
  bool started_ KAV_GUARDED_BY(keys_mutex_) = false;
  std::atomic<bool> finished_{false};
  // Set when the user's on_finding sink throws: live emission is
  // disabled for the rest of the run (recorded as a hard_anomaly
  // finding) rather than letting the exception destroy the report.
  std::atomic<bool> sink_failed_{false};

  // In-flight drain-task accounting, so a monitor can quiesce without
  // shutting the shared pool down.
  util::Mutex drains_mutex_;
  util::CondVar drains_cv_;
  std::size_t active_drains_ KAV_GUARDED_BY(drains_mutex_) = 0;
};

}  // namespace kav

#endif  // KAV_INGEST_KEYED_MONITOR_H
