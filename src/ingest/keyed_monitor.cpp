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

// KeyState is defined in keyed_monitor.h so the locking contracts
// (KAV_REQUIRES(state.process_mutex)) can name its mutex.

KeyedStreamingMonitor::KeyedStreamingMonitor(pipeline::ThreadPool& pool,
                                             obs::MetricsRegistry& metrics,
                                             const EngineOptions& options,
                                             FindingSink on_finding)
    : options_(options),
      on_finding_(std::move(on_finding)),
      metrics_(std::make_unique<Metrics>(metrics)),
      pool_(&pool) {}

KeyedStreamingMonitor::~KeyedStreamingMonitor() {
  // Every queued or running drain task holds a pointer into keys_; wait
  // for them all before the key states are destroyed. The pool is never
  // shut down here -- it belongs to the caller (typically a kav::Engine
  // outliving many monitors).
  quiesce();
  // Retire this monitor's share of the level gauges so a shared
  // registry (several monitors over one Engine lifetime) returns to
  // zero between runs. Counters stay -- they are lifetime series.
  util::ReaderMutexLock lock(keys_mutex_);
  for (const auto& [key, state] : keys_) {
    metrics_->queue_backlog.sub(state->backlog.load(std::memory_order_relaxed));
    // last_reorder_pending is guarded by the key's process_mutex; the
    // drain tasks have quiesced, but taking the lock keeps the contract
    // unconditional (and pairs with the acquire of anything the last
    // drainer published).
    util::MutexLock state_lock(state->process_mutex);
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
    it = keys_.emplace(key, std::make_unique<KeyState>(key, options_)).first;
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
  state.queue.push(op);  // blocks when full: backpressure
  state.ingested.fetch_add(1, std::memory_order_relaxed);
  state.backlog.fetch_add(1, std::memory_order_relaxed);
  metrics_->ops_ingested.add(1);
  metrics_->queue_backlog.add(1);
  TimePoint seen = state.newest_start.load(std::memory_order_relaxed);
  while (op.start > seen &&
         !state.newest_start.compare_exchange_weak(
             seen, op.start, std::memory_order_relaxed)) {
  }
  seen = state.oldest_start.load(std::memory_order_relaxed);
  while (op.start < seen &&
         !state.oldest_start.compare_exchange_weak(
             seen, op.start, std::memory_order_relaxed)) {
  }
  // Claim the drainer role for this key if nobody holds it. The drain
  // task re-checks the queue after releasing the role, so an arrival
  // that lands between its last pop and the release is never stranded.
  if (!state.scheduled.exchange(true, std::memory_order_acq_rel)) {
    {
      util::MutexLock lock(drains_mutex_);
      ++active_drains_;
    }
    try {
      pool_->submit([this, &state] { drain(state); });
    } catch (...) {
      // submit() can throw (e.g. the pool already shut down by its
      // owner). Undo the claim: no drain task will ever run to
      // decrement the counter or release the drainer role, and the
      // destructor's quiesce() must not wait forever on it.
      {
        util::MutexLock lock(drains_mutex_);
        --active_drains_;
        drains_cv_.notify_all();
      }
      state.scheduled.store(false, std::memory_order_release);
      throw;
    }
  }
}

void KeyedStreamingMonitor::ingest(const KeyedOperation& kop) {
  ingest(kop.key, kop.op);
}

void KeyedStreamingMonitor::process_one(KeyState& state, const Operation& op) {
  state.backlog.fetch_sub(1, std::memory_order_relaxed);
  metrics_->queue_backlog.sub(1);
  if (!state.reorder.push(op)) {
    metrics_->late_arrivals.add(1);
    state.extra_violations.push_back(
        {StreamingViolation::Kind::late_arrival, state.reorder.watermark(),
         "arrival with start " + std::to_string(op.start) +
             " behind watermark " + std::to_string(state.reorder.watermark()) +
             " (reorder slack " + std::to_string(options_.reorder_slack) +
             " exceeded)"});
  } else {
    Operation released;
    while (state.reorder.pop(released)) state.checker.add(released);
  }
  // Emitting here, per operation, keeps the live sink's per-key order
  // equal to detection order: a single op adds either a late_arrival or
  // checker violations, never both.
  emit_new_violations(state);
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

void KeyedStreamingMonitor::drain(KeyState& state) {
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
      // Nothing may escape this loop: the task's future is discarded,
      // and an unwound drain would leave `scheduled` stuck true -- no
      // later ingest would ever schedule another drainer, wedging the
      // key and deadlocking producers on its full queue. Failures
      // become hard_anomaly findings instead.
      try {
        util::MutexLock lock(state.process_mutex);
        Operation op;
        bool any = false;
        while (state.queue.try_pop(op)) {
          process_one(state, op);
          any = true;
        }
        if (any) {
          state.checker.advance_watermark(state.reorder.watermark());
          emit_new_violations(state);  // violations found while settling
        }
        state.peak_window =
            std::max(state.peak_window,
                     state.checker.window_size() + state.reorder.pending());
        update_key_metrics(state);
      } catch (const std::exception& e) {
        util::MutexLock lock(state.process_mutex);
        state.extra_violations.push_back(
            {StreamingViolation::Kind::hard_anomaly, state.reorder.watermark(),
             std::string("monitor drain failed: ") + e.what()});
      }
      state.scheduled.store(false, std::memory_order_release);
      if (state.queue.empty()) break;
      // An arrival slipped in after the final pop; re-claim the drainer
      // role unless its producer already scheduled a successor.
      if (state.scheduled.exchange(true, std::memory_order_acq_rel)) break;
    }
  } catch (...) {
    // Last resort: even the recorder threw (bad_alloc building the
    // finding, or a non-std exception out of the user's on_finding
    // sink). Nothing sane can be recorded; release the drainer role so
    // a later ingest can reschedule instead of wedging the key.
    state.scheduled.store(false, std::memory_order_release);
  }
}

Report KeyedStreamingMonitor::finish() {
  if (finished_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("KeyedStreamingMonitor::finish called twice");
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
    util::MutexLock lock(state->process_mutex);
    Operation op;
    while (state->queue.try_pop(op)) process_one(*state, op);
    state->reorder.flush();
    while (state->reorder.pop(op)) state->checker.add(op);
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
    util::MutexLock lock(state->process_mutex);
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
