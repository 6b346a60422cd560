#include "ingest/keyed_monitor.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace kav {

// Live series behind MonitorStats. Counters advance by per-key deltas
// computed against high-water marks stored in KeyState (always under
// that key's process_mutex), so registry totals equal the
// snapshot_totals() sums at every quiescent point -- the differential
// test in tests/engine_fuzz_test.cpp pins that equality. Gauges are
// refreshed on the same cadence (every drain pass), which is what
// makes them *live*: a scraper sees lag and occupancy move while the
// run is still in flight.
struct KeyedStreamingMonitor::Metrics {
  obs::Counter& ops_ingested;
  obs::Counter& late_arrivals;
  obs::Counter& violations;
  obs::Counter& chunks_verified;
  obs::Gauge& watermark_lag;
  obs::Gauge& reorder_pending;
  obs::Gauge& queue_backlog;
  obs::Gauge& active_keys;

  explicit Metrics(obs::MetricsRegistry& registry)
      : ops_ingested(registry.counter(
            "kav_monitor_ops_ingested_total",
            "Operations accepted by ingest(); live ops/sec is this "
            "series' rate.")),
        late_arrivals(registry.counter(
            "kav_monitor_late_arrivals_total",
            "Arrivals behind the reorder watermark (slack exceeded), "
            "recorded as late_arrival findings.")),
        violations(registry.counter(
            "kav_monitor_violations_total",
            "Streaming violations of every kind, checker- and "
            "monitor-level (late arrivals included).")),
        chunks_verified(registry.counter(
            "kav_monitor_chunks_verified_total",
            "Chunks the per-key streaming checkers settled.")),
        watermark_lag(registry.gauge(
            "kav_monitor_watermark_lag",
            "Verification lag in trace ticks (newest ingested start "
            "minus checker watermark) of the most recently drained "
            "key.")),
        reorder_pending(registry.gauge(
            "kav_monitor_reorder_pending",
            "Operations buffered in reorder buffers across keys.")),
        queue_backlog(registry.gauge(
            "kav_monitor_queue_backlog",
            "Operations ingested but not yet processed by a drain "
            "task, across keys.")),
        active_keys(registry.gauge("kav_monitor_active_keys",
                                   "Distinct keys seen by live monitors.")) {}
};

// KeyState and Partition are defined in keyed_monitor.h so the locking
// contracts (KAV_REQUIRES(state.partition.process_mutex)) can name
// their mutexes.

KeyedStreamingMonitor::KeyedStreamingMonitor(pipeline::ThreadPool& pool,
                                             obs::MetricsRegistry& metrics,
                                             const EngineOptions& options,
                                             FindingSink on_finding)
    : options_(options),
      on_finding_(std::move(on_finding)),
      metrics_(std::make_unique<Metrics>(metrics)),
      pool_(&pool) {
  const std::size_t partitions = std::max<std::size_t>(1, pool.thread_count());
  partitions_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>(options.queue_capacity));
  }
}

KeyedStreamingMonitor::~KeyedStreamingMonitor() {
  // Every queued or running drain task holds a pointer into
  // partitions_; wait for them all before anything is destroyed. The
  // pool is never shut down here -- it belongs to the caller (typically
  // a kav::Engine outliving many monitors).
  quiesce();
  // Retire this monitor's share of the level gauges so a shared
  // registry (several monitors over one Engine lifetime) returns to
  // zero between runs. Counters stay -- they are lifetime series.
  for (const auto& partition : partitions_) {
    util::MutexLock lock(partition->queue_mutex);
    metrics_->queue_backlog.sub(
        static_cast<std::int64_t>(partition->queue.size()));
  }
  util::ReaderMutexLock lock(keys_mutex_);
  for (const auto& [key, state] : keys_) {
    // last_reorder_pending is guarded by the partition's process_mutex;
    // the drain tasks have quiesced, but taking the lock keeps the
    // contract unconditional (and pairs with the acquire of anything
    // the last drainer published).
    util::MutexLock state_lock(state->partition.process_mutex);
    metrics_->reorder_pending.sub(state->last_reorder_pending);
  }
  metrics_->active_keys.sub(static_cast<std::int64_t>(keys_.size()));
}

void KeyedStreamingMonitor::quiesce() {
  util::MutexLock lock(drains_mutex_);
  while (active_drains_ != 0) drains_cv_.wait(drains_mutex_);
}

KeyedStreamingMonitor::KeyState& KeyedStreamingMonitor::state_for(
    const std::string& key) {
  {
    util::ReaderMutexLock lock(keys_mutex_);
    auto it = keys_.find(key);
    if (it != keys_.end()) return *it->second;
  }
  util::WriterMutexLock lock(keys_mutex_);
  if (!started_) {
    started_ = true;
    start_time_ = std::chrono::steady_clock::now();
  }
  auto it = keys_.find(key);  // re-check: another producer may have won
  if (it == keys_.end()) {
    // First-seen index modulo the partition count: fixed for the run.
    Partition& owner = *partitions_[keys_.size() % partitions_.size()];
    it = keys_.emplace(key, std::make_unique<KeyState>(key, owner, options_))
             .first;
    metrics_->active_keys.add(1);
  }
  return *it->second;
}

void KeyedStreamingMonitor::ingest(const std::string& key,
                                   const Operation& op) {
  if (finished_.load(std::memory_order_acquire)) {
    throw std::logic_error("KeyedStreamingMonitor::ingest after finish()");
  }
  KeyState& state = state_for(key);
  Partition& partition = state.partition;
  bool claimed = false;
  {
    util::MutexLock lock(partition.queue_mutex);
    // Backpressure: wait for the drainer to take the queue.
    while (partition.queue.size() >= partition.capacity) {
      partition.not_full.wait(partition.queue_mutex);
    }
    partition.queue.emplace_back(&state, op);
    // Producers of one partition serialize on queue_mutex, so plain
    // load/store pairs keep these exact without read-modify-write loops.
    state.ingested.store(state.ingested.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    if (op.start > state.newest_start.load(std::memory_order_relaxed)) {
      state.newest_start.store(op.start, std::memory_order_relaxed);
    }
    if (op.start < state.oldest_start.load(std::memory_order_relaxed)) {
      state.oldest_start.store(op.start, std::memory_order_relaxed);
    }
    if (!partition.draining) {
      partition.draining = true;
      claimed = true;
    }
  }
  metrics_->ops_ingested.add(1);
  metrics_->queue_backlog.add(1);
  if (claimed) schedule_drain(partition);
}

void KeyedStreamingMonitor::ingest(const KeyedOperation& kop) {
  ingest(kop.key, kop.op);
}

void KeyedStreamingMonitor::schedule_drain(Partition& partition) {
  {
    util::MutexLock lock(drains_mutex_);
    ++active_drains_;
  }
  try {
    pool_->submit([this, &partition] { drain(partition); });
  } catch (...) {
    // submit() can throw (e.g. the pool already shut down by its
    // owner). Undo the claim: no drain task will ever run to decrement
    // the counter or release it, and the destructor's quiesce() must
    // not wait forever on it. The queued operation stays for finish().
    {
      util::MutexLock lock(drains_mutex_);
      --active_drains_;
      drains_cv_.notify_all();
    }
    {
      util::MutexLock lock(partition.queue_mutex);
      partition.draining = false;
    }
    throw;
  }
}

bool KeyedStreamingMonitor::take_queue(Partition& partition,
                                       bool release_claim_if_empty) {
  partition.batch.clear();
  util::MutexLock lock(partition.queue_mutex);
  if (partition.queue.empty()) {
    // An arrival after this point finds the claim clear and schedules
    // a successor, so nothing is ever stranded.
    if (release_claim_if_empty) partition.draining = false;
    return false;
  }
  // Producers wait only at capacity, so only a full queue has waiters.
  const bool was_full = partition.queue.size() >= partition.capacity;
  partition.batch.swap(partition.queue);
  if (was_full) partition.not_full.notify_all();
  return true;
}

void KeyedStreamingMonitor::process_batch(Partition& partition) {
  metrics_->queue_backlog.sub(
      static_cast<std::int64_t>(partition.batch.size()));
  for (const auto& [state, op] : partition.batch) {
    if (!state->touched) {
      state->touched = true;
      partition.touched.push_back(state);
    }
    process_one(*state, op);
  }
}

void KeyedStreamingMonitor::process_one(KeyState& state, const Operation& op) {
  if (!state.reorder.push(op)) {
    metrics_->late_arrivals.add(1);
    state.extra_violations.push_back(
        {StreamingViolation::Kind::late_arrival, state.reorder.watermark(),
         "arrival with start " + std::to_string(op.start) +
             " behind watermark " + std::to_string(state.reorder.watermark()) +
             " (reorder slack " + std::to_string(options_.reorder_slack) +
             " exceeded)"});
    // Emitted now, so the live sink's per-key order stays detection
    // order: checker findings only appear at watermark advances.
    emit_new_violations(state);
    return;
  }
  release_ready(state);
}

void KeyedStreamingMonitor::release_ready(KeyState& state) {
  Operation released;
  while (state.reorder.pop(released)) {
    // A rejected operation (start >= finish) becomes a finding; the
    // rest of the stream goes on.
    try {
      state.checker.add(released);
    } catch (const std::exception& e) {
      record_failure(state, e);
    }
  }
}

void KeyedStreamingMonitor::record_failure(KeyState& state,
                                           const std::exception& error) {
  state.extra_violations.push_back(
      {StreamingViolation::Kind::hard_anomaly, state.reorder.watermark(),
       std::string("monitor drain failed: ") + error.what()});
}

void KeyedStreamingMonitor::emit_new_violations(KeyState& state) {
  if (!on_finding_ ||
      sink_failed_.load(std::memory_order_acquire)) {
    return;
  }
  // A throwing sink must never take the run down with it: finish()
  // could otherwise lose the whole report (finished_ is already set, so
  // a retry throws). One failure records a finding and permanently
  // disables live emission for this monitor; the report itself is
  // unaffected.
  try {
    const std::vector<StreamingViolation>& found = state.checker.violations();
    while (state.reported_checker < found.size()) {
      on_finding_(state.key, found[state.reported_checker]);
      ++state.reported_checker;
    }
    while (state.reported_extra < state.extra_violations.size()) {
      on_finding_(state.key, state.extra_violations[state.reported_extra]);
      ++state.reported_extra;
    }
  } catch (...) {
    sink_failed_.store(true, std::memory_order_release);
    state.extra_violations.push_back(
        {StreamingViolation::Kind::hard_anomaly, state.reorder.watermark(),
         "on_finding sink threw; live emission disabled for this monitor"});
  }
}

void KeyedStreamingMonitor::update_key_metrics(KeyState& state) {
  // Counter deltas against per-key high-water marks: checker violation
  // and chunk totals only grow for a live key, so each call adds
  // exactly the progress since the previous one. This mirrors the sums
  // snapshot_totals() computes, keeping registry totals equal to
  // MonitorStats at quiescence.
  const std::size_t checker_now = state.checker.violations().size();
  const std::size_t extra_now = state.extra_violations.size();
  metrics_->violations.add((checker_now - state.counted_checker) +
                           (extra_now - state.counted_extra));
  state.counted_checker = checker_now;
  state.counted_extra = extra_now;

  const std::uint64_t chunks_now = state.checker.stats().chunks_verified;
  metrics_->chunks_verified.add(chunks_now - state.counted_chunks);
  state.counted_chunks = chunks_now;

  const std::int64_t pending_now =
      static_cast<std::int64_t>(state.reorder.pending());
  metrics_->reorder_pending.add(pending_now - state.last_reorder_pending);
  state.last_reorder_pending = pending_now;

  // Same lag definition as MonitorStats::max_watermark_lag, but as the
  // current level of the key just drained -- the live view.
  const TimePoint newest = state.newest_start.load(std::memory_order_relaxed);
  const TimePoint oldest = state.oldest_start.load(std::memory_order_relaxed);
  if (newest != kTimeMin) {
    const TimePoint floor = std::max(state.checker.watermark(), oldest);
    metrics_->watermark_lag.set(newest - floor);
  }
}

void KeyedStreamingMonitor::drain(Partition& partition) {
  // The in-flight count must drop on EVERY exit path, exceptional ones
  // included -- a leaked increment would hang the destructor's
  // quiesce() forever. Notify while still holding the mutex: quiesce()
  // may observe active_drains_ == 0 and start destroying this monitor
  // the moment the mutex is released, so the condition variable must
  // not be touched after that point.
  struct DrainGuard {
    KeyedStreamingMonitor* self;
    ~DrainGuard() {
      util::MutexLock lock(self->drains_mutex_);
      --self->active_drains_;
      self->drains_cv_.notify_all();
    }
  } guard{this};

  try {
    for (;;) {
      util::MutexLock lock(partition.process_mutex);
      if (!take_queue(partition, /*release_claim_if_empty=*/true)) return;
      process_batch(partition);
      // One watermark advance per touched key per batch. Failures
      // become findings: nothing may escape, or the claim would stay
      // set and wedge the partition.
      for (KeyState* state : partition.touched) {
        state->touched = false;
        try {
          state->checker.advance_watermark(state->reorder.watermark());
        } catch (const std::exception& e) {
          record_failure(*state, e);
        }
        emit_new_violations(*state);  // violations found while settling
        state->peak_window =
            std::max(state->peak_window,
                     state->checker.window_size() + state->reorder.pending());
        update_key_metrics(*state);
      }
      partition.touched.clear();
    }
  } catch (...) {
    // Last resort: even the recorder threw (bad_alloc building a
    // finding). Nothing sane can be recorded; release the claim so a
    // later ingest can reschedule instead of wedging the partition.
    util::MutexLock queue_lock(partition.queue_mutex);
    partition.draining = false;
  }
}

Report KeyedStreamingMonitor::finish() {
  if (finished_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("KeyedStreamingMonitor::finish called twice");
  }

  // Whatever producers left queued is processed first, partition by
  // partition; a drain task still in flight either already took it or
  // finds its queue empty.
  for (const auto& partition : partitions_) {
    util::MutexLock lock(partition->process_mutex);
    if (!take_queue(*partition, /*release_claim_if_empty=*/false)) continue;
    process_batch(*partition);
    for (KeyState* state : partition->touched) state->touched = false;
    partition->touched.clear();
  }

  std::vector<std::pair<std::string, KeyState*>> states;
  {
    util::ReaderMutexLock lock(keys_mutex_);
    states.reserve(keys_.size());
    for (auto& [key, state] : keys_) states.emplace_back(key, state.get());
  }

  Report report;
  report.mode = Report::Mode::monitor;
  for (auto& [key, state] : states) {
    util::MutexLock lock(state->partition.process_mutex);
    state->reorder.flush();
    release_ready(*state);
    state->peak_window =
        std::max(state->peak_window, state->checker.window_size());

    KeyResult result;
    result.verdict = state->checker.finish();
    emit_new_violations(*state);
    result.stream = state->checker.stats();
    result.findings = state->checker.violations();
    result.findings.insert(result.findings.end(),
                           state->extra_violations.begin(),
                           state->extra_violations.end());
    if (result.verdict.yes() && !result.findings.empty()) {
      result.verdict = Verdict::make_no(
          std::to_string(state->extra_violations.size()) +
          " monitor-level violation(s); first: " +
          state->extra_violations.front().detail);
    }
    update_key_metrics(*state);
    report.per_key.emplace(key, std::move(result));
  }
  report.monitor_totals = snapshot_totals();
  return report;
}

MonitorStats KeyedStreamingMonitor::stats() const { return snapshot_totals(); }

MonitorStats KeyedStreamingMonitor::snapshot_totals() const {
  MonitorStats totals;
  std::vector<std::pair<std::string, KeyState*>> states;
  bool started = false;
  std::chrono::steady_clock::time_point start_time;
  {
    util::ReaderMutexLock lock(keys_mutex_);
    states.reserve(keys_.size());
    for (const auto& [key, state] : keys_) {
      states.emplace_back(key, state.get());
    }
    started = started_;
    start_time = start_time_;
  }
  totals.keys = states.size();
  for (const auto& [key, state] : states) {
    totals.operations_ingested += static_cast<std::uint64_t>(
        state->ingested.load(std::memory_order_relaxed));
    util::MutexLock lock(state->partition.process_mutex);
    for (const StreamingViolation& violation : state->extra_violations) {
      if (violation.kind == StreamingViolation::Kind::late_arrival) {
        ++totals.late_arrivals;
      }
    }
    const std::uint64_t key_violations =
        state->checker.violations().size() + state->extra_violations.size();
    totals.violations += key_violations;
    if (key_violations > 0) totals.violations_per_key[key] = key_violations;
    totals.chunks_verified += state->checker.stats().chunks_verified;
    totals.peak_window = std::max(totals.peak_window, state->peak_window);
    // Lag of verification behind ingest: newest enqueued start minus
    // the checker's watermark (clamped to the oldest start while the
    // watermark has not left kTimeMin yet).
    const TimePoint newest =
        state->newest_start.load(std::memory_order_relaxed);
    const TimePoint oldest =
        state->oldest_start.load(std::memory_order_relaxed);
    if (newest != kTimeMin) {
      const TimePoint floor = std::max(state->checker.watermark(), oldest);
      totals.max_watermark_lag =
          std::max(totals.max_watermark_lag, newest - floor);
    }
  }
  if (started) {
    const auto elapsed = std::chrono::steady_clock::now() - start_time;
    totals.elapsed_seconds =
        std::chrono::duration<double>(elapsed).count();
    if (totals.elapsed_seconds > 0.0) {
      totals.ops_per_second = static_cast<double>(totals.operations_ingested) /
                              totals.elapsed_seconds;
    }
  }
  return totals;
}

}  // namespace kav
