#include "history/cluster.h"

#include <algorithm>

#include "util/adaptive_sort.h"

namespace kav {

namespace {

// Shared by both entry points: min finish / max start over the
// cluster, reading the History's dense time columns (8-byte stride) --
// dictated reads are start-sorted and near-sequential, so the column
// walk is cache-friendly.
inline Zone zone_of(const History& history, OpId write) {
  TimePoint min_finish = history.finish(write);
  TimePoint max_start = history.start(write);
  for (OpId r : history.dictated_reads(write)) {
    min_finish = std::min(min_finish, history.finish(r));
    max_start = std::max(max_start, history.start(r));
  }
  return Zone{write, min_finish, max_start, min_finish < max_start};
}

}  // namespace

Zone compute_zone(const History& history, OpId write) {
  return zone_of(history, write);
}

std::vector<Zone> compute_zones(const History& history) {
  std::vector<Zone> zones;
  zones.reserve(history.write_count());
  for (OpId w : history.writes_by_start()) {
    zones.push_back(zone_of(history, w));
  }
  // Writes come in start order, and a zone's low endpoint lies near its
  // write's interval for the short clusters most traces hold, so the
  // zones arrive nearly in low order: adaptive_sort costs O(w + I) for
  // the I inverted pairs, O(w log w) at worst.
  adaptive_sort(zones.begin(), zones.end(), [](const Zone& a, const Zone& b) {
    return a.low() != b.low() ? a.low() < b.low() : a.write < b.write;
  });
  return zones;
}

}  // namespace kav
