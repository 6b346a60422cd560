// Keyed online monitoring: the piece that lets a storage system stream
// live traffic through the checker. k-atomicity is local (paper
// Section II-B), so the monitor shards incoming operations to one
// StreamingChecker per key; a ReorderBuffer in front of each checker
// turns bounded arrival disorder into the watermark promise the
// checker needs.
//
// The unit of ingest is a source chunk (KeyedChunk, from
// TraceSource::pull): operations named by a dense KeyId, plus the names
// of ids the chunk introduces. Per-key state lives in a vector indexed
// by id, so routing an operation is an index, not a hash probe or a
// lock. Keys are owned by a fixed set of partitions, one per pool
// thread: key id `i` belongs to partition i % P and never moves. Each
// partition has one bounded queue and one drain claim. ingest() splits
// a chunk by partition and appends each share to its partition queue
// under ONE lock acquisition per partition per chunk, publishes per-key
// stats and the ingest counters once per chunk, and submits a drain
// task for every partition whose claim is clear. A drain swaps out the
// partition's whole queue, feeds each operation through its key's
// ReorderBuffer and checker in arrival order, advances each touched
// key's watermark once for the batch, and refreshes the shared gauges
// once for the pass -- so the per-batch costs (the claim, the pool
// task, the watermark advance, the gauge writes) are paid per batch,
// not per operation. One drainer per partition keeps per-key processing
// serial (checkers are not thread-safe) while partitions check in
// parallel.
//
// In-flight bound: ingest() appends a share only once its partition
// queue is below queue_capacity (backpressure), so a partition queue
// holds at most queue_capacity - 1 plus one chunk's share of operations
// (MonitorStats::peak_queue records the most it held). Engine::monitor
// pulls chunks of at most queue_capacity operations, so there each
// queue stays under 2 x queue_capacity. (The bound needs a drainer:
// once the pool has refused a partition's drain task, ingest() appends
// without waiting, and finish() checks what piled up.)
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
// window is O(ops in flight within S + H ticks) -- not O(trace). The
// partitioning and the chunking change only how arrivals are batched:
// per-key verdicts do not depend on them, while under a horizon tighter
// than the stream's real staleness the findings can depend on where
// batches end (a read may arrive before or after its write's cluster
// was evicted).
//
// Single ingester: ingest() calls must not overlap (an overlapping call
// throws std::logic_error); producers on many threads share one
// monitor through a PushTraceSource and Engine::monitor. stats() is
// safe from any thread at any time. finish() must be called from one
// thread after the last ingest() returned.
#ifndef KAV_INGEST_KEYED_MONITOR_H
#define KAV_INGEST_KEYED_MONITOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/report.h"
#include "core/streaming.h"
#include "history/keyed_trace.h"
#include "ingest/reorder_buffer.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"
#include "util/thread_safety.h"

namespace kav {

// MonitorStats lives in core/report.h (the unified Report embeds it).

class KeyedStreamingMonitor {
 public:
  // Live violation sink (RunOptions::on_finding).
  using FindingSink = std::function<void(const std::string& key,
                                         const StreamingViolation& violation)>;
  // Asked once per key, when its id is named: false drops the key's
  // operations (RunOptions::key_filter). Empty keeps every key.
  using KeepKey = std::function<bool(std::string_view key)>;

  // Checking tasks run on `pool`; the kav_monitor_* series (live
  // ingest/violation counters plus watermark-lag, reorder-occupancy,
  // and backlog gauges) go to `metrics`. Both must outlive the monitor.
  // Reads EngineOptions::streaming (per-key staleness horizon),
  // ::reorder_slack, and ::queue_capacity (per partition). The pool's
  // thread count fixes the number of partitions.
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
                        FindingSink on_finding = {}, KeepKey keep = {});
  ~KeyedStreamingMonitor();

  KeyedStreamingMonitor(const KeyedStreamingMonitor&) = delete;
  KeyedStreamingMonitor& operator=(const KeyedStreamingMonitor&) = delete;

  // Names chunk.new_keys as this monitor's next ids (first_new_key
  // must equal the number of ids named so far), then routes each
  // operation to its key's partition queue. Blocks while a touched
  // partition queue holds queue_capacity operations (backpressure).
  // Throws std::logic_error after finish() or when another ingest() is
  // running, and std::invalid_argument when the chunk's ids do not
  // continue the monitor's id space (nothing of the chunk is ingested).
  // When the pool refuses a drain task (it was shut down), the whole
  // chunk is still queued and counted, the pool's exception is
  // rethrown, and finish() checks the queued operations.
  void ingest(const KeyedChunk& chunk)
      KAV_EXCLUDES(keys_mutex_, drains_mutex_);

  // Drains every queue, flushes every reorder buffer, finishes every
  // checker, and returns a monitor-mode Report: per key, a verdict (YES
  // iff the key's stream produced no violations), its StreamingStats,
  // and its findings (monitor-level ones such as late arrivals
  // appended), plus MonitorStats totals. Call once, from one thread,
  // after the last ingest() returned.
  Report finish() KAV_EXCLUDES(keys_mutex_);

  // Aggregated snapshot; safe to call from any thread mid-stream.
  MonitorStats stats() const KAV_EXCLUDES(keys_mutex_);

  // Ids named so far, kept or dropped by `keep`. Ingester-side state:
  // call it from the ingesting thread, between ingest() calls or after
  // finish().
  std::size_t key_count() const { return routes_.size(); }

 private:
  struct KeyState;
  using Queued = std::pair<KeyState*, Operation>;

  // A fixed share of the keys, drained by at most one task at a time.
  // Lock order: process_mutex before queue_mutex.
  struct Partition {
    explicit Partition(std::size_t queue_capacity)
        : capacity(queue_capacity == 0 ? 1 : queue_capacity) {}

    util::Mutex process_mutex;
    util::Mutex queue_mutex KAV_ACQUIRED_AFTER(process_mutex);
    util::CondVar not_full;
    std::vector<Queued> queue KAV_GUARDED_BY(queue_mutex);
    // True while a drain task is scheduled or running. Set by the
    // ingest that finds it clear, cleared by the drain that finds the
    // queue empty -- both under queue_mutex, so an arrival is never
    // stranded.
    bool draining KAV_GUARDED_BY(queue_mutex) = false;
    // Most operations the queue held at once (MonitorStats::peak_queue).
    std::size_t peak_queue KAV_GUARDED_BY(queue_mutex) = 0;
    const std::size_t capacity;
    // Drain scratch: the swapped-out batch and the keys it touched.
    std::vector<Queued> batch KAV_GUARDED_BY(process_mutex);
    std::vector<KeyState*> touched KAV_GUARDED_BY(process_mutex);
  };

  // Per-key state. Defined here (not in the .cpp) so the KAV_REQUIRES
  // contracts on the helpers below can name its partition's mutex.
  struct KeyState {
    KeyState(std::string key_name, Partition& owner,
             const EngineOptions& options)
        : key(std::move(key_name)),
          partition(owner),
          reorder(options.reorder_slack),
          checker(options.streaming) {}

    const std::string key;
    Partition& partition;
    // Published by the ingester once per chunk; atomics so stats() and
    // the drainer can read them without a lock.
    std::atomic<TimePoint> newest_start{kTimeMin};
    std::atomic<TimePoint> oldest_start{kTimeMax};

    ReorderBuffer reorder KAV_GUARDED_BY(partition.process_mutex);
    StreamingChecker checker KAV_GUARDED_BY(partition.process_mutex);
    // Violations detected by the monitor layer rather than the checker:
    // late arrivals, and drain failures (which must be surfaced as
    // findings -- a swallowed exception would wedge the key forever).
    std::vector<StreamingViolation> extra_violations
        KAV_GUARDED_BY(partition.process_mutex);
    std::size_t peak_window KAV_GUARDED_BY(partition.process_mutex) = 0;
    // In the current drain batch's touched list.
    bool touched KAV_GUARDED_BY(partition.process_mutex) = false;
    // High-water marks of violations already handed to the live
    // on_finding sink, so each finding is emitted exactly once.
    std::size_t reported_checker KAV_GUARDED_BY(partition.process_mutex) = 0;
    std::size_t reported_extra KAV_GUARDED_BY(partition.process_mutex) = 0;
    // High-water marks of what update_key_metrics() already folded into
    // the registry, so counter deltas are exact (checker totals are
    // monotone for the life of the key).
    std::size_t counted_checker KAV_GUARDED_BY(partition.process_mutex) = 0;
    std::size_t counted_extra KAV_GUARDED_BY(partition.process_mutex) = 0;
    std::uint64_t counted_chunks KAV_GUARDED_BY(partition.process_mutex) = 0;
    std::int64_t last_reorder_pending
        KAV_GUARDED_BY(partition.process_mutex) = 0;
  };

  // The ingester's view of one id: touched only by the thread inside
  // ingest(), so the hot path takes no lock.
  struct Route {
    KeyState* state = nullptr;  // nullptr: the key was dropped (keep)
    std::uint32_t partition = 0;
    // Running start bounds, published to the KeyState once per chunk.
    TimePoint newest = kTimeMin;
    TimePoint oldest = kTimeMax;
    bool in_chunk = false;  // listed in chunk_keys_
  };

  // Progress one drain pass (or finish()) folds into the registry: the
  // per-key deltas summed, so each shared instrument is written once
  // per pass.
  struct PassMetrics {
    std::uint64_t violations = 0;
    std::uint64_t chunks = 0;
    std::int64_t reorder_pending = 0;
    std::optional<TimePoint> max_lag;  // over the keys with a lag
  };

  // Names the chunk's new ids: a Route each, a KeyState for each kept
  // key.
  void register_keys(const KeyedChunk& chunk) KAV_EXCLUDES(keys_mutex_);
  // Appends `staged` to the partition queue under one lock (waiting
  // below capacity first) and schedules a drain if none is claimed.
  void enqueue(Partition& partition, std::vector<Queued>& staged)
      KAV_EXCLUDES(drains_mutex_);
  // Submits a drain task for a partition whose claim the caller took.
  void schedule_drain(Partition& partition) KAV_EXCLUDES(drains_mutex_);
  void drain(Partition& partition) KAV_EXCLUDES(drains_mutex_);
  // Swaps the partition's queue out into its batch; false if it was
  // empty, in which case the drainer (release_claim_if_empty) gives up
  // the partition's drain claim under the same lock.
  bool take_queue(Partition& partition, bool release_claim_if_empty)
      KAV_REQUIRES(partition.process_mutex) KAV_EXCLUDES(partition.queue_mutex);
  // Feeds the batch through each key's reorder buffer into its checker
  // and lists the keys it touched.
  void process_batch(Partition& partition)
      KAV_REQUIRES(partition.process_mutex);
  // Feeds one arrival through the reorder buffer into the checker.
  void process_one(KeyState& state, const Operation& op)
      KAV_REQUIRES(state.partition.process_mutex);
  // Moves every operation the reorder buffer released into the checker.
  void release_ready(KeyState& state)
      KAV_REQUIRES(state.partition.process_mutex);
  // Records an exception out of the key's processing as a finding.
  void record_failure(KeyState& state, const std::exception& error)
      KAV_REQUIRES(state.partition.process_mutex);
  // Reports not-yet-reported violations to on_finding_.
  void emit_new_violations(KeyState& state)
      KAV_REQUIRES(state.partition.process_mutex);
  // Adds the key's progress since the last call to `pass`
  // (violation/chunk/reorder deltas via per-key high-water marks, its
  // watermark lag).
  void update_key_metrics(KeyState& state, PassMetrics& pass)
      KAV_REQUIRES(state.partition.process_mutex);
  // Writes one pass's totals to the registry.
  void publish(const PassMetrics& pass);
  // Blocks until no drain task of this monitor is queued or running.
  void quiesce() KAV_EXCLUDES(drains_mutex_);
  MonitorStats snapshot_totals() const KAV_EXCLUDES(keys_mutex_);

  const EngineOptions options_;
  const FindingSink on_finding_;
  const KeepKey keep_;
  // kav_monitor_* instruments (keyed_monitor.cpp); owned by the
  // registry, not by the monitor.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;
  pipeline::ThreadPool* pool_;

  // Fixed at construction, one per pool thread.
  std::vector<std::unique_ptr<Partition>> partitions_;

  // Ingester-only state (single ingester, enforced by ingesting_):
  // routes by id, the per-partition shares of the chunk being ingested,
  // and the ids it touched.
  std::atomic<bool> ingesting_{false};
  std::vector<Route> routes_;
  std::vector<std::vector<Queued>> staged_;
  std::vector<KeyId> chunk_keys_;

  // Every kept key's state, in id order. Written only by the ingester,
  // when a chunk names new keys; the lock lets stats() and finish()
  // walk the list while it grows.
  mutable util::SharedMutex keys_mutex_;
  std::vector<std::unique_ptr<KeyState>> keys_ KAV_GUARDED_BY(keys_mutex_);
  std::chrono::steady_clock::time_point start_time_
      KAV_GUARDED_BY(keys_mutex_);
  bool started_ KAV_GUARDED_BY(keys_mutex_) = false;
  // Operations routed to a partition queue
  // (MonitorStats::operations_ingested).
  std::atomic<std::uint64_t> ingested_{0};
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
