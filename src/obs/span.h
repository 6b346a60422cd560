// Span tracing: where metrics answer "how much / how fast overall",
// spans answer "what was this thread doing at t". A Tracer keeps a
// fixed-size ring of completed spans (oldest dropped first, drops
// counted) that dump_chrome_json() renders as a chrome://tracing /
// Perfetto-loadable document.
//
// The taxonomy is intentionally small (see docs/OBSERVABILITY.md):
// engine.verify / engine.monitor wrap whole runs, shard.verify and
// shard.decode wrap per-shard pipeline work, store.maintenance wraps
// background compaction passes. Everything is keyed off the process
// tracer, which is disabled unless KAV_TRACE is set in the environment
// (or enable() is called) -- a disabled tracer costs one relaxed bool
// load per span, and ScopedTimer skips clock reads entirely when
// neither its histogram nor its tracer is live.
#ifndef KAV_OBS_SPAN_H
#define KAV_OBS_SPAN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_safety.h"

namespace kav::obs {

// One completed span. Times are nanoseconds on the steady clock, tid
// is the obs thread slot (small, stable per thread).
struct TraceEvent {
  const char* name = "";      // static-storage strings only
  const char* category = "";  // ditto
  std::uint64_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

class Tracer {
 public:
  // Ring capacity is fixed at construction; the process tracer keeps
  // the last 64Ki spans (~3 MiB).
  explicit Tracer(std::size_t capacity = 64 * 1024);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }

  void record(const TraceEvent& event);

  // Completed spans, oldest first, plus how many were evicted before
  // them. Safe concurrently with record().
  std::vector<TraceEvent> events() const;
  std::uint64_t dropped() const;

  void clear();

  // Chrome trace-event JSON ("X" complete events, ts/dur in
  // microseconds): load via chrome://tracing or ui.perfetto.dev.
  std::string dump_chrome_json() const;

  // Process-wide tracer; enabled at startup iff KAV_TRACE is set to
  // anything other than empty/"0". Never destroyed, same rationale as
  // MetricsRegistry::global().
  static Tracer& global();

 private:
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mutex_;
  std::vector<TraceEvent> ring_ KAV_GUARDED_BY(mutex_);
  // Immutable after construction; readable without the lock.
  const std::size_t capacity_;
  // Ring write position once full.
  std::size_t next_ KAV_GUARDED_BY(mutex_) = 0;
  // Lifetime record() count.
  std::uint64_t total_ KAV_GUARDED_BY(mutex_) = 0;
};

// RAII span: records [construction, destruction) into `tracer` under
// `name`/`category`. Inert (no clock reads) when the tracer is null or
// disabled at construction time.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* category) noexcept
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        category_(category) {
    if (tracer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void finish() noexcept;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_{};
};

// One timing, two sinks: observes elapsed seconds into `histogram`
// (if non-null and its registry is enabled) and emits a span into
// `tracer` (if non-null, named, and enabled). When both sinks are
// inactive no clock is read -- this is what instrumented hot paths use
// so KAV_NO_METRICS really does strip the timing cost.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, Tracer* tracer = nullptr,
                       const char* name = nullptr,
                       const char* category = "kav") noexcept
      : histogram_(histogram != nullptr && histogram->enabled() ? histogram
                                                                : nullptr),
        tracer_(tracer != nullptr && name != nullptr && tracer->enabled()
                    ? tracer
                    : nullptr),
        name_(name),
        category_(category) {
    if (histogram_ != nullptr || tracer_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Idempotent; returns elapsed seconds (0.0 when inactive).
  double stop() noexcept;

 private:
  Histogram* histogram_;
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace kav::obs

#endif  // KAV_OBS_SPAN_H
