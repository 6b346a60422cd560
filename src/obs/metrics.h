// kav::obs -- the always-on observability spine. One MetricsRegistry
// per process (or per Engine, when injected via EngineOptions::metrics)
// holds every instrument the engine, pipeline, monitor, and store
// update while they run; the telemetry server (obs/telemetry_server.h)
// scrapes it through obs/export.h's pure renderers.
//
// Design constraints, in order:
//
//   1. Hot paths pay one relaxed atomic add. Counter and Histogram are
//      sharded into cache-line-sized per-thread cells (a thread hashes
//      to a cell once, via a thread_local slot id), so concurrent
//      writers on the zero-copy decode/verify path and the monitor's ingest
//      path never contend on one cache line. Totals are exact: cells
//      are summed on read.
//   2. Reads never stop writers. snapshot() takes the registration
//      mutex (instrument creation is cold) and reads each cell with a
//      relaxed load -- a scrape concurrent with a run sees a value
//      between the run's start and end states, which is what a
//      monotonic counter means.
//   3. Disabled means cheap, not absent. KAV_NO_METRICS=1 (env, read
//      at registry construction) or set_enabled(false) turns every
//      add/observe into a relaxed bool load + branch, so the 2%
//      overhead guardrail in bench/run_bench.sh has a true baseline to
//      compare against without recompiling.
//
// Instruments follow Prometheus semantics: Counter (monotonic, u64),
// Gauge (settable, i64), Histogram (log-bucketed, base-2 bounds
// 2^(b-30) -- ~1ns to ~272yr when observing seconds, still usable for
// sizes/occupancies). Same (name, labels) pair always returns the same
// instrument; a type conflict on a name throws.
//
// Metric catalog, naming rules, and exporter formats: docs/OBSERVABILITY.md.
#ifndef KAV_OBS_METRICS_H
#define KAV_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_safety.h"

namespace kav::obs {

// Label set of one instrument, e.g. {{"mode", "batch"}}. Stored sorted
// by key; duplicate keys are rejected at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : unsigned char { counter, gauge, histogram };

const char* to_string(MetricType type);

namespace detail {

// Process-unique small id per thread, assigned on first use: the cell
// index every sharded instrument derives from. Monotonically growing,
// so long-lived pools map to stable cells.
inline std::atomic<std::size_t> g_next_thread_slot{0};
inline std::size_t thread_slot() noexcept {
  thread_local const std::size_t slot =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

inline constexpr std::size_t kCounterCells = 16;   // power of two
inline constexpr std::size_t kHistogramCells = 4;  // power of two

}  // namespace detail

// Monotonic event count. add() is wait-free: one relaxed fetch_add on
// the calling thread's cell.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[detail::thread_slot() & (detail::kCounterCells - 1)]
        .value.fetch_add(n, std::memory_order_relaxed);
  }

  // Exact sum over cells (each increment lands in exactly one cell).
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::array<detail::CounterCell, detail::kCounterCells> cells_;
  const std::atomic<bool>* enabled_;
};

// Point-in-time level (queue depth, bytes on disk, watermark lag).
// Signed so paired add/sub never saturates; one atomic, not sharded --
// gauges are updated per task / per drain pass, not per operation.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::int64_t d) noexcept { add(-d); }

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

inline constexpr int kHistogramBuckets = 64;

struct HistogramSnapshot {
  // Per-bucket (NOT cumulative) observation counts; bucket b covers
  // (upper_bound(b-1), upper_bound(b)], bucket 0 additionally takes
  // everything <= upper_bound(0) (zeros and negatives included), and
  // the last bucket takes everything above the penultimate bound
  // (rendered as le="+Inf").
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  double sum = 0.0;
  std::uint64_t count = 0;  // == sum of buckets, by construction
};

// Log-bucketed distribution with exact count/sum. Bucket upper bounds
// are powers of two, 2^(b-30): observing seconds, bucket 0 ends at
// ~0.93ns and bucket 62 at 2^32 s; the last bucket is the +Inf
// overflow. Base-2 bounds make bucket_index() branch-light and
// float-exact (frexp), which the bucket-boundary property test pins.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Upper bound of bucket b in native units: 2^(b - 30).
  static double bucket_upper_bound(int b) noexcept {
    return std::ldexp(1.0, b - 30);
  }

  // Smallest b with v <= bucket_upper_bound(b), clamped to the last
  // bucket; NaN and everything <= the smallest bound land in bucket 0.
  static int bucket_index(double v) noexcept {
    if (!(v > 0x1p-30)) return 0;
    if (v > 0x1p33) return kHistogramBuckets - 1;  // past bucket 62's bound
    int exp = 0;
    // v * 2^30 = frac * 2^exp with frac in [0.5, 1): exact for any
    // finite double (scaling by a power of two never rounds).
    const double frac = std::frexp(std::ldexp(v, 30), &exp);
    const int b = (frac == 0.5) ? exp - 1 : exp;
    return b < 0 ? 0 : b;
  }

  void observe(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    Cell& cell =
        cells_[detail::thread_slot() & (detail::kHistogramCells - 1)];
    cell.buckets[static_cast<std::size_t>(bucket_index(v))].fetch_add(
        1, std::memory_order_relaxed);
    cell.sum.fetch_add(v, std::memory_order_relaxed);  // C++20 atomic<double>
  }

  bool enabled() const noexcept {
    return enabled_->load(std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    for (const Cell& cell : cells_) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[static_cast<std::size_t>(b)] +=
            cell.buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
      out.sum += cell.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t n : out.buckets) out.count += n;
    return out;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Cell, detail::kHistogramCells> cells_;
  const std::atomic<bool>* enabled_;
};

// One instrument's state at snapshot time. `value` carries counters
// (cast from u64) and gauges; `histogram` carries histograms.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::counter;
  Labels labels;  // sorted by key
  double value = 0.0;
  HistogramSnapshot histogram;
};

// Point-in-time view of a whole registry, sorted by (name, labels) so
// renders and golden tests are deterministic. Counters are monotonic,
// so a snapshot taken during a run is a valid state between the run's
// start and end -- Engine::snapshot() leans on exactly this.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;
};

class MetricsRegistry {
 public:
  // Enabled unless the environment says KAV_NO_METRICS=1 (any value
  // other than empty/"0" disables); set_enabled overrides either way.
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The same (name, labels) always returns the same
  // instrument (help is taken from the first registration); a name
  // already registered as a different type throws std::logic_error,
  // as do duplicate label keys. Returned references live as long as
  // the registry. Registration takes a mutex -- create instruments at
  // construction time, not on hot paths.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {});

  RegistrySnapshot snapshot() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // The process-wide default registry every subsystem instruments into
  // unless handed another one (EngineOptions::metrics). Never
  // destroyed: instruments handed out from it stay valid through
  // static teardown.
  static MetricsRegistry& global();

 private:
  struct Entry;

  Entry& find_or_create(const std::string& name, const std::string& help,
                        const Labels& labels, MetricType type)
      KAV_EXCLUDES(mutex_);

  // Registration-side lock only: instrument creation and snapshot()
  // serialize here, while add/observe on handed-out instruments stay
  // lock-free (per-thread atomic cells).
  mutable util::Mutex mutex_;
  // Keyed by name + serialized labels: map order IS snapshot order.
  std::map<std::string, std::unique_ptr<Entry>> entries_
      KAV_GUARDED_BY(mutex_);
  // One type per name.
  std::map<std::string, MetricType> types_ KAV_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{true};
};

}  // namespace kav::obs

#endif  // KAV_OBS_METRICS_H
