#include "ingest/keyed_monitor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace kav {

// Live series behind MonitorStats. Counters advance by per-key deltas
// computed against high-water marks stored in KeyState (always under
// that key's process_mutex), so registry totals equal the
// snapshot_totals() sums at every quiescent point -- the differential
// test in tests/engine_fuzz_test.cpp pins that equality. A drain pass
// sums its keys' deltas and writes each shared instrument once; that
// cadence is what makes the gauges *live*: a scraper sees lag and
// occupancy move while the run is still in flight. The ingest side
// (ops_ingested, queue_backlog) is written once per chunk.
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
            "Operations the monitors accepted (added once per ingested "
            "chunk); live ops/sec is this series' rate.")),
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
            "minus checker watermark): the largest among the keys of "
            "the latest drain pass.")),
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
                                             FindingSink on_finding,
                                             KeepKey keep)
    : options_(options),
      on_finding_(std::move(on_finding)),
      keep_(std::move(keep)),
      metrics_(std::make_unique<Metrics>(metrics)),
      pool_(&pool) {
  const std::size_t partitions = std::max<std::size_t>(1, pool.thread_count());
  partitions_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>(options.queue_capacity));
  }
  staged_.resize(partitions);
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
  std::int64_t pending = 0;
  for (const auto& state : keys_) {
    // last_reorder_pending is guarded by the partition's process_mutex;
    // the drain tasks have quiesced, but taking the lock keeps the
    // contract unconditional (and pairs with the acquire of anything
    // the last drainer published).
    util::MutexLock state_lock(state->partition.process_mutex);
    pending += state->last_reorder_pending;
  }
  metrics_->reorder_pending.sub(pending);
  metrics_->active_keys.sub(static_cast<std::int64_t>(keys_.size()));
}

void KeyedStreamingMonitor::quiesce() {
  util::MutexLock lock(drains_mutex_);
  while (active_drains_ != 0) drains_cv_.wait(drains_mutex_);
}

void KeyedStreamingMonitor::register_keys(const KeyedChunk& chunk) {
  // State is built outside the lock; stats() waits only for the append.
  std::vector<std::unique_ptr<KeyState>> fresh;
  for (const std::string& name : chunk.new_keys) {
    const auto id = static_cast<KeyId>(routes_.size());
    Route route;
    route.partition = static_cast<std::uint32_t>(id % partitions_.size());
    if (!keep_ || keep_(name)) {
      fresh.push_back(std::make_unique<KeyState>(
          name, *partitions_[route.partition], options_));
      route.state = fresh.back().get();
    }
    routes_.push_back(route);
  }
  util::WriterMutexLock lock(keys_mutex_);
  if (!started_) {
    started_ = true;
    start_time_ = std::chrono::steady_clock::now();
  }
  for (auto& state : fresh) keys_.push_back(std::move(state));
  metrics_->active_keys.add(static_cast<std::int64_t>(fresh.size()));
}

void KeyedStreamingMonitor::ingest(const KeyedChunk& chunk) {
  if (finished_.load(std::memory_order_acquire)) {
    throw std::logic_error("KeyedStreamingMonitor::ingest after finish()");
  }
  if (ingesting_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "KeyedStreamingMonitor::ingest called concurrently (single "
        "ingester)");
  }
  struct IngestGuard {
    std::atomic<bool>& flag;
    ~IngestGuard() { flag.store(false, std::memory_order_release); }
  } guard{ingesting_};

  // Validate before anything is named or queued, so a rejected chunk
  // leaves the monitor untouched.
  chunk.check_continues(routes_.size(), "KeyedStreamingMonitor::ingest");
  if (!chunk.new_keys.empty()) register_keys(chunk);

  std::size_t routed = 0;
  for (const IdOperation& iop : chunk.ops) {
    Route& route = routes_[iop.key];
    if (route.state == nullptr) continue;
    if (!route.in_chunk) {
      route.in_chunk = true;
      chunk_keys_.push_back(iop.key);
    }
    route.newest = std::max(route.newest, iop.op.start);
    route.oldest = std::min(route.oldest, iop.op.start);
    staged_[route.partition].emplace_back(route.state, iop.op);
    ++routed;
  }
  // Per-key stats and the ingest counters: once per chunk, not per
  // operation. Published before the operations are queued, so a
  // drainer never sees an operation its key's stats do not cover.
  for (const KeyId id : chunk_keys_) {
    Route& route = routes_[id];
    route.in_chunk = false;
    route.state->newest_start.store(route.newest, std::memory_order_relaxed);
    route.state->oldest_start.store(route.oldest, std::memory_order_relaxed);
  }
  chunk_keys_.clear();
  if (routed == 0) return;
  ingested_.fetch_add(routed, std::memory_order_relaxed);
  metrics_->ops_ingested.add(routed);
  metrics_->queue_backlog.add(static_cast<std::int64_t>(routed));
  // Every share is queued even when scheduling a drain fails (the pool
  // was shut down under the monitor): the counters above already cover
  // the whole chunk, and finish() checks whatever the queues hold. The
  // first failure is rethrown once all shares are in.
  std::exception_ptr failure;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (staged_[p].empty()) continue;
    try {
      enqueue(*partitions_[p], staged_[p]);
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

void KeyedStreamingMonitor::enqueue(Partition& partition,
                                    std::vector<Queued>& staged) {
  bool claimed = false;
  {
    util::MutexLock lock(partition.queue_mutex);
    // Backpressure: wait for the drainer to take the queue. The whole
    // share goes in at once, so the queue may end up to one chunk's
    // share above capacity. With no drain claimed (only after a failed
    // schedule_drain) nobody would wake us: append, and try to claim.
    while (partition.queue.size() >= partition.capacity &&
           partition.draining) {
      partition.not_full.wait(partition.queue_mutex);
    }
    if (partition.queue.empty()) {
      partition.queue.swap(staged);  // no copy; staged gets a spare buffer
    } else {
      partition.queue.insert(partition.queue.end(), staged.begin(),
                             staged.end());
    }
    partition.peak_queue =
        std::max(partition.peak_queue, partition.queue.size());
    if (!partition.draining) {
      partition.draining = true;
      claimed = true;
    }
  }
  staged.clear();
  if (claimed) schedule_drain(partition);
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
    // not wait forever on it. The queued operations stay for finish().
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

void KeyedStreamingMonitor::update_key_metrics(KeyState& state,
                                               PassMetrics& pass) {
  // Deltas against per-key high-water marks: checker violation and
  // chunk totals only grow for a live key, so each call adds exactly
  // the progress since the previous one. This mirrors the sums
  // snapshot_totals() computes, keeping registry totals equal to
  // MonitorStats at quiescence.
  const std::size_t checker_now = state.checker.violations().size();
  const std::size_t extra_now = state.extra_violations.size();
  pass.violations += (checker_now - state.counted_checker) +
                     (extra_now - state.counted_extra);
  state.counted_checker = checker_now;
  state.counted_extra = extra_now;

  const std::uint64_t chunks_now = state.checker.stats().chunks_verified;
  pass.chunks += chunks_now - state.counted_chunks;
  state.counted_chunks = chunks_now;

  const std::int64_t pending_now =
      static_cast<std::int64_t>(state.reorder.pending());
  pass.reorder_pending += pending_now - state.last_reorder_pending;
  state.last_reorder_pending = pending_now;

  // Same lag definition as MonitorStats::max_watermark_lag, as the
  // current level of the pass's keys -- the live view.
  const TimePoint newest = state.newest_start.load(std::memory_order_relaxed);
  const TimePoint oldest = state.oldest_start.load(std::memory_order_relaxed);
  if (newest != kTimeMin) {
    const TimePoint floor = std::max(state.checker.watermark(), oldest);
    const TimePoint lag = newest - floor;
    pass.max_lag = std::max(pass.max_lag.value_or(lag), lag);
  }
}

void KeyedStreamingMonitor::publish(const PassMetrics& pass) {
  if (pass.violations != 0) metrics_->violations.add(pass.violations);
  if (pass.chunks != 0) metrics_->chunks_verified.add(pass.chunks);
  if (pass.reorder_pending != 0) {
    metrics_->reorder_pending.add(pass.reorder_pending);
  }
  if (pass.max_lag) metrics_->watermark_lag.set(*pass.max_lag);
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
      // One watermark advance per touched key per batch, one registry
      // write per instrument per pass. Failures become findings:
      // nothing may escape, or the claim would stay set and wedge the
      // partition.
      PassMetrics pass;
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
        update_key_metrics(*state, pass);
      }
      partition.touched.clear();
      publish(pass);
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

  std::vector<KeyState*> states;
  {
    util::ReaderMutexLock lock(keys_mutex_);
    states.reserve(keys_.size());
    for (const auto& state : keys_) states.push_back(state.get());
  }

  Report report;
  report.mode = Report::Mode::monitor;
  PassMetrics pass;
  for (KeyState* state : states) {
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
    update_key_metrics(*state, pass);
    report.per_key.emplace(state->key, std::move(result));
  }
  publish(pass);
  report.monitor_totals = snapshot_totals();
  return report;
}

MonitorStats KeyedStreamingMonitor::stats() const { return snapshot_totals(); }

MonitorStats KeyedStreamingMonitor::snapshot_totals() const {
  MonitorStats totals;
  std::vector<const KeyState*> states;
  bool started = false;
  std::chrono::steady_clock::time_point start_time;
  {
    util::ReaderMutexLock lock(keys_mutex_);
    states.reserve(keys_.size());
    for (const auto& state : keys_) states.push_back(state.get());
    started = started_;
    start_time = start_time_;
  }
  totals.operations_ingested = ingested_.load(std::memory_order_relaxed);
  for (const auto& partition : partitions_) {
    util::MutexLock lock(partition->queue_mutex);
    totals.peak_queue = std::max(totals.peak_queue, partition->peak_queue);
  }
  totals.keys = states.size();
  for (const KeyState* state : states) {
    util::MutexLock lock(state->partition.process_mutex);
    for (const StreamingViolation& violation : state->extra_violations) {
      if (violation.kind == StreamingViolation::Kind::late_arrival) {
        ++totals.late_arrivals;
      }
    }
    const std::uint64_t key_violations =
        state->checker.violations().size() + state->extra_violations.size();
    totals.violations += key_violations;
    if (key_violations > 0) {
      totals.violations_per_key[state->key] = key_violations;
    }
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
