#include "history/anomaly.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace kav {

namespace {

// Whether ANY two of the 2n event timestamps collide: merge the start
// times (in by_start order) with the finish times (in by_finish order)
// into one ascending sequence, and look for two equal neighbours. O(n),
// no hash table -- the clean-history case, which is every case after
// normalization, never allocates. Reporting WHICH events collide (and
// in the historical encounter order) is the slow path's job.
bool has_duplicate_timestamp(const History& history) {
  const std::span<const OpId> by_start = history.by_start();
  const std::span<const OpId> by_finish = history.by_finish();
  const std::size_t n = history.size();
  std::size_t i = 0;
  std::size_t j = 0;
  TimePoint previous = 0;
  while (i < n || j < n) {
    // Finishes go first on ties, so a start equal to a finish lands
    // right after it.
    const TimePoint t =
        j == n || (i < n && history.start(by_start[i]) <
                                history.finish(by_finish[j]))
            ? history.start(by_start[i++])
            : history.finish(by_finish[j++]);
    if (i + j > 1 && t == previous) return true;
    previous = t;
  }
  return false;
}

}  // namespace

const char* to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::read_without_dictating_write:
      return "read-without-dictating-write";
    case AnomalyKind::read_precedes_dictating_write:
      return "read-precedes-dictating-write";
    case AnomalyKind::duplicate_write_value:
      return "duplicate-write-value";
    case AnomalyKind::duplicate_timestamp:
      return "duplicate-timestamp";
    case AnomalyKind::write_outlives_dictated_read:
      return "write-outlives-dictated-read";
  }
  return "unknown";
}

std::string describe(const Anomaly& anomaly, const History& history) {
  std::string out = to_string(anomaly.kind);
  out += ": op " + std::to_string(anomaly.op_a) + " " +
         describe(history.op(anomaly.op_a));
  if (anomaly.op_b != kInvalidOp) {
    out += " vs op " + std::to_string(anomaly.op_b) + " " +
           describe(history.op(anomaly.op_b));
  }
  return out;
}

bool AnomalyReport::repairable() const {
  return std::all_of(anomalies.begin(), anomalies.end(), [](const Anomaly& a) {
    return a.kind == AnomalyKind::duplicate_timestamp ||
           a.kind == AnomalyKind::write_outlives_dictated_read;
  });
}

AnomalyReport find_anomalies(const History& history) {
  AnomalyReport report;

  // Duplicate write values.
  if (history.has_duplicate_write_values()) {
    std::unordered_map<Value, OpId> seen;
    for (OpId w : history.writes_by_start()) {
      auto [it, inserted] = seen.try_emplace(history.value(w), w);
      if (!inserted) {
        report.anomalies.push_back(
            {AnomalyKind::duplicate_write_value, w, it->second});
      }
    }
  }

  // Read anomalies.
  for (OpId r : history.reads()) {
    const OpId w = history.dictating_write(r);
    if (w == kInvalidOp) {
      report.anomalies.push_back(
          {AnomalyKind::read_without_dictating_write, r, kInvalidOp});
    } else if (history.precedes(r, w)) {
      report.anomalies.push_back(
          {AnomalyKind::read_precedes_dictating_write, r, w});
    }
  }

  // Duplicate timestamps across all 2n events. The sorted-column scan
  // above decides existence in O(n); only when a collision exists does
  // the hash walk below run, reproducing the exact historical anomaly
  // list (offender vs first-seen, in encounter order).
  if (has_duplicate_timestamp(history)) {
    std::unordered_map<TimePoint, OpId> seen;
    seen.reserve(history.size() * 4);
    auto check = [&](TimePoint t, OpId id) {
      auto [it, inserted] = seen.try_emplace(t, id);
      if (!inserted) {
        report.anomalies.push_back(
            {AnomalyKind::duplicate_timestamp, id, it->second});
      }
    };
    for (OpId id = 0; id < history.size(); ++id) {
      check(history.start(id), id);
      check(history.finish(id), id);
    }
  }

  // Writes that outlive a dictated read's finish.
  for (OpId w : history.writes_by_start()) {
    for (OpId r : history.dictated_reads(w)) {
      if (history.finish(w) >= history.finish(r)) {
        report.anomalies.push_back(
            {AnomalyKind::write_outlives_dictated_read, w, r});
        break;
      }
    }
  }

  return report;
}

bool detail::has_hard_anomaly(const History& history) {
  if (history.has_duplicate_write_values()) return true;
  for (OpId r : history.reads()) {
    const OpId w = history.dictating_write(r);
    if (w == kInvalidOp || history.precedes(r, w)) return true;
  }
  return false;
}

bool is_normalized(const History& history) {
  if (has_duplicate_timestamp(history)) return false;
  for (OpId w : history.writes_by_start()) {
    for (OpId r : history.dictated_reads(w)) {
      if (history.finish(w) >= history.finish(r)) return false;
    }
  }
  return true;
}

History normalize(const History& history) {
  if (detail::has_hard_anomaly(history)) {
    throw std::invalid_argument(
        "normalize: history has hard anomalies; see find_anomalies");
  }
  return detail::normalize_repairable(history);
}

History detail::normalize_repairable(const History& history) {
  History out;
  repair(history, out);
  return out;
}

void detail::repair(const History& source, History& out) {
  const std::size_t n = source.size();
  const std::vector<OpId>& by_start = source.by_start_;
  const std::vector<OpId>& by_finish = source.by_finish_;
  if (&out != &source) {
    out.cols_.starts.resize(n);
    out.cols_.finishes.resize(n);
    out.cols_.values = source.cols_.values;
    out.cols_.clients = source.cols_.clients;
    out.cols_.types = source.cols_.types;
    // Pass A keeps the start order and pass B no start, and neither
    // touches a value or a type, so every index built from the start
    // order and the values carries over unchanged.
    out.by_start_ = by_start;
    out.writes_by_start_ = source.writes_by_start_;
    out.reads_ = source.reads_;
    out.dictating_write_ = source.dictating_write_;
    out.dictated_flat_ = source.dictated_flat_;
    out.read_begin_ = source.read_begin_;
    out.has_duplicate_write_values_ = source.has_duplicate_write_values_;
  }
  std::vector<TimePoint>& starts = out.cols_.starts;
  std::vector<TimePoint>& finishes = out.cols_.finishes;

  // Pass A: uniquify timestamps while preserving "precedes" exactly.
  // Rank all 2n events by (time, kind, id) with starts before finishes
  // at equal time, and renumber them sequentially: merging by_start and
  // by_finish, which already break ties by id, taking the start on a
  // tie, yields exactly that order. Strict inequalities are preserved;
  // an old tie f == s (concurrent: precedence needs f < s) becomes
  // f > s, keeping the pair concurrent. Consecutive events are spaced
  // by a gap wide enough that pass B's "-1" adjustments land strictly
  // between existing stamps. The latest event is a finish, so the
  // starts run out first. Each event's old stamp is read for the last
  // time when it is taken, just before its new stamp is written, so
  // `out` may be `source`.
  const TimePoint gap = static_cast<TimePoint>(n) + 2;
  TimePoint stamp = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < n;) {
    if (i < n && source.start(by_start[i]) <= source.finish(by_finish[j])) {
      starts[by_start[i++]] = stamp += gap;
    } else {
      finishes[by_finish[j++]] = stamp += gap;
    }
  }

  // Pass B: shorten writes so each finishes before the earliest finish
  // among its dictated reads -- its anchor. New finish times sit at
  // (multiple of gap) - 1, which cannot collide with any pass-A stamp,
  // and two writes cannot collide with each other because a read has
  // one dictating write, so their anchors are distinct events. The
  // splice table records each move for the finish order below: a
  // shortened write maps to itself, its anchor read to the write.
  std::vector<OpId> splice(n, kInvalidOp);
  for (OpId w : out.writes_by_start_) {
    OpId anchor = kInvalidOp;
    for (OpId r : out.dictated_reads(w)) {
      if (anchor == kInvalidOp || finishes[r] < finishes[anchor]) anchor = r;
    }
    if (anchor != kInvalidOp && finishes[w] >= finishes[anchor]) {
      finishes[w] = finishes[anchor] - 1;
      splice[w] = w;
      splice[anchor] = w;
    }
  }

  // Pass A keeps the finish order too. Pass B moves each shortened
  // write to just before its anchor, and no other stamp lies between
  // the two, so one walk over the old order rebuilds the new one.
  std::vector<OpId> new_by_finish;
  std::vector<OpId> new_writes_by_finish;
  new_by_finish.reserve(n);
  new_writes_by_finish.reserve(source.writes_by_finish_.size());
  for (OpId id : by_finish) {
    const OpId moved = splice[id];
    if (moved == id) continue;  // a shortened write: placed at its anchor
    if (moved != kInvalidOp) {
      new_by_finish.push_back(moved);
      new_writes_by_finish.push_back(moved);
    }
    new_by_finish.push_back(id);
    if (out.is_write(id)) new_writes_by_finish.push_back(id);
  }
  out.by_finish_ = std::move(new_by_finish);
  out.writes_by_finish_ = std::move(new_writes_by_finish);
  out.count_max_concurrent_writes();
}

}  // namespace kav
