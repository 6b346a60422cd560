// The unified verification report -- the one result shape of the
// library. Engine::verify and Engine::monitor (core/engine.h) and the
// serial reference verify_keyed_trace (core/verify.h) all return it:
// per-key Verdicts plus (in monitor mode) per-key streaming findings,
// aggregate VerifyStats / MonitorStats totals, and one summary()
// format, so batch and monitor output are grep-compatible. Every tally
// line this library prints has the shape
//
//   <yes>/<total> keys atomic within bound, <no> NO, <undecided>
//   undecided, <invalid> invalid
#ifndef KAV_CORE_REPORT_H
#define KAV_CORE_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/streaming.h"
#include "core/verdict.h"
#include "util/time_types.h"

namespace kav {

// One-line rendering of a single verdict, e.g.
//   "YES (witness over 12 ops)"
//   "NO: chunk {3,4,7} is not 2-atomic"
std::string describe(const Verdict& verdict);

// Aggregated monitoring snapshot across all keys; available mid-stream
// via KeyedStreamingMonitor::stats() and as Report::monitor_totals
// after a run. (Defined here rather than in
// ingest/keyed_monitor.h so the unified Report can embed it without
// pulling the whole monitor machinery into every report consumer.)
struct MonitorStats {
  std::uint64_t operations_ingested = 0;  // operations accepted
  std::uint64_t late_arrivals = 0;        // beyond the reorder slack
  std::uint64_t violations = 0;           // all kinds, all keys
  std::uint64_t chunks_verified = 0;
  std::size_t keys = 0;
  // Max over keys of (checker window + reorder pending): the memory
  // high-water mark, bounded by O(slack + horizon) ops in flight.
  std::size_t peak_window = 0;
  // Max over keys of (newest start enqueued - checker watermark): how
  // far verification trails ingest.
  TimePoint max_watermark_lag = 0;
  // Most operations one partition queue held at once: below
  // queue_capacity plus one ingested chunk's share
  // (ingest/keyed_monitor.h).
  std::size_t peak_queue = 0;
  double elapsed_seconds = 0.0;  // since the first ingested chunk
  double ops_per_second = 0.0;
  // Keys with at least one violation and their counts.
  std::map<std::string, std::uint64_t> violations_per_key;
};

// One key's result. Batch runs fill only the verdict; monitor runs add
// the key's streaming statistics and the individual findings
// (violations) behind a NO verdict.
struct KeyResult {
  Verdict verdict;
  StreamingStats stream;                     // monitor mode; zeros in batch
  std::vector<StreamingViolation> findings;  // monitor mode; empty in batch
};

struct Report {
  enum class Mode : unsigned char { batch, monitor };

  Mode mode = Mode::batch;
  std::map<std::string, KeyResult> per_key;
  // Batch: per-key decision-procedure work counters summed over all
  // keys (comparable between serial and sharded runs). Zeros in
  // monitor mode.
  VerifyStats verify_totals;
  // Monitor: throughput / window aggregates. Zeros in batch mode.
  MonitorStats monitor_totals;
  // True when the run stopped early -- a CancelToken fired or the
  // RunOptions::timeout ran out. Skipped shards appear in per_key as
  // UNDECIDED with the exact reasons in core/run_control.h.
  bool cancelled = false;
  std::string stop_reason;  // why, when cancelled
  // Selective-run accounting (RunOptions::key_filter): how many of the
  // requested keys the input actually held, how many distinct keys the
  // input offered in total, and the requested keys it did not contain
  // (sorted; such keys have no per_key entry). All zero/empty when no
  // filter was set -- selected == false then.
  bool selected = false;
  std::size_t keys_selected = 0;
  std::size_t keys_available = 0;
  std::vector<std::string> missing_keys;

  bool all_yes() const;
  std::size_t count(Outcome outcome) const;
  std::string summary() const;  // the tally line above, plus run state
};

}  // namespace kav

#endif  // KAV_CORE_REPORT_H
