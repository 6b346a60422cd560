// Test-only reference: the row-based repair that
// detail::normalize_repairable (history/anomaly.cpp) replaced with an
// O(n) merge that inherits the input's indexes, kept verbatim (renamed
// into kav::reference, made inline) so anomaly_test.cpp can pin the new
// repair to it on every History accessor.
//
// It copies the history out as Operation rows, stable-sorts all 2n
// start/finish events, renumbers them, shortens writes, and builds a
// second History from the rows, re-deriving every index.
#ifndef KAV_TESTS_REFERENCE_NORMALIZE_H
#define KAV_TESTS_REFERENCE_NORMALIZE_H

#include <algorithm>
#include <utility>
#include <vector>

#include "history/history.h"

namespace kav::reference {

inline History normalize_repairable(const History& history) {
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

}  // namespace kav::reference

#endif  // KAV_TESTS_REFERENCE_NORMALIZE_H
