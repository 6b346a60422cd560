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

std::vector<Anomaly> AnomalyReport::hard_anomalies() const {
  std::vector<Anomaly> hard;
  for (const Anomaly& a : anomalies) {
    if (a.kind != AnomalyKind::duplicate_timestamp &&
        a.kind != AnomalyKind::write_outlives_dictated_read) {
      hard.push_back(a);
    }
  }
  return hard;
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
  const std::size_t n = history.size();
  std::vector<Operation> ops = history.operations();

  // Pass A: uniquify timestamps while preserving "precedes" exactly.
  // Sort all 2n events by (time, kind) with starts before finishes at
  // equal time, then renumber sequentially. Strict inequalities are
  // preserved; an old tie f == s (concurrent: precedence needs f < s)
  // becomes f > s, keeping the pair concurrent.
  struct Event {
    TimePoint time;
    bool is_finish;
    OpId op;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (OpId id = 0; id < n; ++id) {
    events.push_back({ops[id].start, false, id});
    events.push_back({ops[id].finish, true, id});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.is_finish < b.is_finish;  // starts first
                   });
  // Space consecutive events by a gap wide enough that pass B's "-1"
  // adjustments land strictly between existing stamps.
  const TimePoint gap = static_cast<TimePoint>(n) + 2;
  for (std::size_t rank = 0; rank < events.size(); ++rank) {
    const Event& ev = events[rank];
    const TimePoint t = static_cast<TimePoint>(rank + 1) * gap;
    if (ev.is_finish) {
      ops[ev.op].finish = t;
    } else {
      ops[ev.op].start = t;
    }
  }

  // Pass B: shorten writes so each finishes before the earliest finish
  // among its dictated reads. New finish times sit at (multiple of
  // gap) - 1, which cannot collide with any pass-A stamp, and two
  // writes cannot collide with each other because their earliest
  // dictated-read finishes are distinct events.
  for (OpId w : history.writes_by_start()) {
    TimePoint min_read_finish = kTimeMax;
    for (OpId r : history.dictated_reads(w)) {
      min_read_finish = std::min(min_read_finish, ops[r].finish);
    }
    if (min_read_finish != kTimeMax && ops[w].finish >= min_read_finish) {
      ops[w].finish = min_read_finish - 1;
    }
  }

  return History(std::move(ops));
}

}  // namespace kav
