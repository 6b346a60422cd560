// Test-only reference: the window-rescanning StreamingChecker that
// core/streaming.cpp replaced, kept verbatim (renamed) so the
// differential test in streaming_fuzz_test.cpp can pin the incremental
// checker to it bit for bit -- every violation's (kind, when, detail),
// window_size() after every advance, the finish() verdict, and every
// StreamingStats field.
//
// Every flush re-clusters the whole window by value, re-sorts every
// zone, rebuilds the chunk runs and decides each final run with
// normalize() + FZF. It throws std::invalid_argument when a final chunk
// holds a read that precedes its dictating write (normalize() rejects
// hard anomalies); callers feed it only inputs it does not throw on.
#ifndef KAV_TESTS_REFERENCE_STREAMING_CHECKER_H
#define KAV_TESTS_REFERENCE_STREAMING_CHECKER_H

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/fzf.h"
#include "core/streaming.h"
#include "history/anomaly.h"
#include "history/cluster.h"

namespace kav {

class ReferenceStreamingChecker {
 public:
  explicit ReferenceStreamingChecker(const StreamingOptions& options = {});

  void add(const Operation& op);
  void advance_watermark(TimePoint t);
  Verdict finish();
  void reset();

  bool clean_so_far() const { return violations_.empty(); }
  TimePoint watermark() const { return watermark_; }
  const std::vector<StreamingViolation>& violations() const {
    return violations_;
  }
  const StreamingStats& stats() const { return stats_; }
  std::size_t window_size() const { return window_.size(); }

 private:
  void flush_settled(TimePoint settled_before);

  StreamingOptions options_;
  std::vector<Operation> window_;
  std::unordered_set<Value> evicted_write_values_;  // horizon diagnostics
  std::vector<StreamingViolation> violations_;
  StreamingStats stats_;
  TimePoint watermark_ = kTimeMin;
  TimePoint min_window_finish_ = kTimeMax;  // flush fast-path guard
  bool finished_ = false;
};


namespace reference_detail {

// Raw (pre-normalization) zone of a cluster given window positions.
struct RawCluster {
  std::size_t write_pos = 0;
  std::vector<std::size_t> read_pos;
  TimePoint min_finish = kTimeMax;
  TimePoint max_start = kTimeMin;
  bool settled = false;  // no further reads can arrive

  TimePoint low() const { return std::min(min_finish, max_start); }
  TimePoint high() const { return std::max(min_finish, max_start); }
  bool forward() const { return min_finish < max_start; }
};

}  // namespace reference_detail

inline ReferenceStreamingChecker::ReferenceStreamingChecker(
    const StreamingOptions& options)
    : options_(options) {}

inline void ReferenceStreamingChecker::add(const Operation& op) {
  if (finished_) {
    throw std::logic_error(
        "ReferenceStreamingChecker::add after finish()");
  }
  window_.push_back(op);
  min_window_finish_ = std::min(min_window_finish_, op.finish);
  ++stats_.operations_ingested;
  stats_.peak_window = std::max(stats_.peak_window, window_.size());
}

inline void ReferenceStreamingChecker::advance_watermark(TimePoint t) {
  watermark_ = std::max(watermark_, t);
  flush_settled(watermark_);
}

inline Verdict ReferenceStreamingChecker::finish() {
  finished_ = true;
  watermark_ = kTimeMax;
  flush_settled(kTimeMax);
  stats_.operations_evicted += window_.size();
  window_.clear();
  if (violations_.empty()) {
    return Verdict::make_yes({});  // streaming verdicts carry no witness
  }
  return Verdict::make_no("streaming monitor recorded " +
                          std::to_string(violations_.size()) +
                          " violation(s); first: " +
                          violations_.front().detail);
}

inline void ReferenceStreamingChecker::reset() {
  window_.clear();
  evicted_write_values_.clear();
  violations_.clear();
  stats_ = StreamingStats{};
  watermark_ = kTimeMin;
  min_window_finish_ = kTimeMax;
  finished_ = false;
}

inline void ReferenceStreamingChecker::flush_settled(
    TimePoint settled_before) {
  ++stats_.flushes;
  if (window_.empty()) return;

  // Cheap skip: no cluster can settle while even the earliest finish in
  // the window is inside the horizon (unmatched-read findings are then
  // deferred to the next effective flush or finish(), which always runs
  // with an infinite watermark). Keeps advance_watermark O(1) when the
  // window is young.
  const TimePoint cheap_threshold =
      watermark_ == kTimeMax
          ? kTimeMax
          : (watermark_ <= kTimeMin + options_.staleness_horizon
                 ? kTimeMin
                 : watermark_ - options_.staleness_horizon);
  if (min_window_finish_ >= cheap_threshold) return;

  // --- Cluster the window by value (raw times). -----------------------
  std::unordered_map<Value, reference_detail::RawCluster> clusters;
  std::vector<std::size_t> unmatched_reads;
  std::unordered_set<Value> window_write_values;
  for (std::size_t pos = 0; pos < window_.size(); ++pos) {
    const Operation& op = window_[pos];
    if (!op.is_write()) continue;
    auto [it, inserted] = clusters.try_emplace(op.value);
    if (!inserted) {
      violations_.push_back(
          {StreamingViolation::Kind::hard_anomaly, watermark_,
           "duplicate write value " + std::to_string(op.value) +
               " in window"});
      continue;  // later duplicate ignored; first write keeps the value
    }
    window_write_values.insert(op.value);
    it->second.write_pos = pos;
    it->second.min_finish = op.finish;
    it->second.max_start = op.start;
  }
  for (std::size_t pos = 0; pos < window_.size(); ++pos) {
    const Operation& op = window_[pos];
    if (!op.is_read()) continue;
    auto it = clusters.find(op.value);
    if (it == clusters.end()) {
      unmatched_reads.push_back(pos);
      continue;
    }
    it->second.read_pos.push_back(pos);
    it->second.min_finish = std::min(it->second.min_finish, op.finish);
    it->second.max_start = std::max(it->second.max_start, op.start);
  }

  // --- Settlement line. ------------------------------------------------
  // A cluster is settled once no further read of it can start:
  // (write.finish + horizon) < watermark, while future ops start after
  // the watermark. New zones and zone growth land entirely above the
  // minimum zone-low among unsettled clusters (zone lows never sink),
  // so anything wholly below `settle_line` is immutable.
  TimePoint settle_line = std::min(settled_before, watermark_);
  const TimePoint settle_threshold =
      watermark_ == kTimeMax
          ? kTimeMax
          : (watermark_ <= kTimeMin + options_.staleness_horizon
                 ? kTimeMin
                 : watermark_ - options_.staleness_horizon);
  for (auto& [value, cluster] : clusters) {
    const Operation& w = window_[cluster.write_pos];
    cluster.settled = w.finish < settle_threshold;
    if (!cluster.settled) {
      settle_line = std::min(settle_line, cluster.low());
    }
  }

  // --- Unmatched reads. -------------------------------------------------
  // A read whose dictating write is absent and which finished before the
  // watermark can never be matched (a future write would start after the
  // read finished, i.e. the read would precede its dictating write).
  std::vector<char> evict(window_.size(), 0);
  for (std::size_t pos : unmatched_reads) {
    const Operation& r = window_[pos];
    if (r.finish >= watermark_) continue;  // its write may still arrive
    const bool horizon = evicted_write_values_.count(r.value) > 0;
    violations_.push_back(
        {horizon ? StreamingViolation::Kind::horizon_exceeded
                 : StreamingViolation::Kind::hard_anomaly,
         watermark_,
         (horizon ? "read exceeded the staleness horizon: value "
                  : "read without dictating write: value ") +
             std::to_string(r.value)});
    evict[pos] = 1;
  }

  // --- Chunk runs over settled forward zones. ---------------------------
  // Sort forward zones by low endpoint and merge transitive overlaps
  // (Stage 1 of FZF on the window). Only runs lying wholly below the
  // settle line with every member cluster settled are final.
  std::vector<const reference_detail::RawCluster*> forward;
  std::vector<const reference_detail::RawCluster*> backward;
  for (const auto& [value, cluster] : clusters) {
    (cluster.forward() ? forward : backward).push_back(&cluster);
  }
  auto by_low = [](const reference_detail::RawCluster* a,
                   const reference_detail::RawCluster* b) {
    return a->low() != b->low() ? a->low() < b->low()
                                : a->write_pos < b->write_pos;
  };
  std::sort(forward.begin(), forward.end(), by_low);
  std::sort(backward.begin(), backward.end(), by_low);

  struct Run {
    TimePoint lo, hi;
    std::vector<const reference_detail::RawCluster*> members;
    bool all_settled = true;
  };
  std::vector<Run> runs;
  for (const reference_detail::RawCluster* cluster : forward) {
    if (!runs.empty() && cluster->low() < runs.back().hi) {
      runs.back().hi = std::max(runs.back().hi, cluster->high());
      runs.back().members.push_back(cluster);
      runs.back().all_settled &= cluster->settled;
    } else {
      runs.push_back(
          {cluster->low(), cluster->high(), {cluster}, cluster->settled});
    }
  }
  // Attach contained backward clusters; the rest dangle.
  std::vector<const reference_detail::RawCluster*> dangling;
  for (const reference_detail::RawCluster* cluster : backward) {
    auto it = std::upper_bound(
        runs.begin(), runs.end(), cluster->low(),
        [](TimePoint t, const Run& run) { return t < run.lo; });
    if (it != runs.begin() && (it - 1)->lo < cluster->low() &&
        cluster->high() < (it - 1)->hi) {
      (it - 1)->members.push_back(cluster);
      (it - 1)->all_settled &= cluster->settled;
    } else {
      dangling.push_back(cluster);
    }
  }

  // --- Verify and evict final chunks. ------------------------------------
  for (const Run& run : runs) {
    if (!run.all_settled || run.hi >= settle_line) continue;
    std::vector<Operation> chunk_ops;
    for (const reference_detail::RawCluster* cluster : run.members) {
      chunk_ops.push_back(window_[cluster->write_pos]);
      for (std::size_t pos : cluster->read_pos) {
        chunk_ops.push_back(window_[pos]);
      }
    }
    const History chunk_history = normalize(History(std::move(chunk_ops)));
    const Verdict verdict = check_2atomicity_fzf(chunk_history);
    ++stats_.chunks_verified;
    if (!verdict.yes()) {
      violations_.push_back(
          {StreamingViolation::Kind::not_2atomic, watermark_,
           "settled chunk over [" + std::to_string(run.lo) + ", " +
               std::to_string(run.hi) + "] is not 2-atomic: " +
               verdict.reason});
    }
    for (const reference_detail::RawCluster* cluster : run.members) {
      evict[cluster->write_pos] = 1;
      evicted_write_values_.insert(window_[cluster->write_pos].value);
      for (std::size_t pos : cluster->read_pos) evict[pos] = 1;
    }
  }

  // Settled dangling backward clusters below the settle line are
  // trivially 2-atomic in isolation (Lemma 4.1's concatenation).
  for (const reference_detail::RawCluster* cluster : dangling) {
    if (!cluster->settled || cluster->high() >= settle_line) continue;
    ++stats_.dangling_clusters;
    evict[cluster->write_pos] = 1;
    evicted_write_values_.insert(window_[cluster->write_pos].value);
    for (std::size_t pos : cluster->read_pos) evict[pos] = 1;
  }

  // --- Compact the window. ------------------------------------------------
  std::vector<Operation> remaining;
  remaining.reserve(window_.size());
  min_window_finish_ = kTimeMax;
  for (std::size_t pos = 0; pos < window_.size(); ++pos) {
    if (evict[pos]) {
      ++stats_.operations_evicted;
    } else {
      min_window_finish_ = std::min(min_window_finish_, window_[pos].finish);
      remaining.push_back(window_[pos]);
    }
  }
  window_ = std::move(remaining);
}

}  // namespace kav

#endif  // KAV_TESTS_REFERENCE_STREAMING_CHECKER_H
