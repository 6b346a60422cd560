// Clusters and zones, the vocabulary introduced by Gibbons and Korach
// and reused throughout Section IV of the paper:
//
//   - a *cluster* is a write together with its dictated reads;
//   - the *zone* of a cluster is the interval between the minimum
//     finish time (Z.f) and the maximum start time (Z.s_bar) over the
//     cluster's operations;
//   - the zone is *forward* if Z.f < Z.s_bar and *backward* otherwise;
//   - low = min(Z.f, Z.s_bar), high = max(Z.f, Z.s_bar).
//
// Intuition: a forward zone is a span of time the cluster's operations
// are forced to straddle (some operation finished before another
// started), while a backward zone [Z.s_bar, Z.f] is a span of time
// common to every operation of the cluster, inside which the whole
// cluster can commit back-to-back.
#ifndef KAV_HISTORY_CLUSTER_H
#define KAV_HISTORY_CLUSTER_H

#include <vector>

#include "history/history.h"
#include "util/interval_set.h"

namespace kav {

struct Zone {
  OpId write = kInvalidOp;    // the cluster's dictating write
  TimePoint min_finish = 0;   // Z.f
  TimePoint max_start = 0;    // Z.s_bar
  bool forward = false;       // Z.f < Z.s_bar

  TimePoint low() const { return forward ? min_finish : max_start; }
  TimePoint high() const { return forward ? max_start : min_finish; }
  Interval interval() const { return Interval{low(), high()}; }
};

// One zone per cluster (i.e. per write), sorted by low endpoint, ties
// by write id. Costs O(n + I) for a history of n operations whose
// zones, taken in write start order, hold I inverted pairs; O(n log n)
// in the worst case.
// Requires a normalized history (distinct timestamps) so that strict
// forward/backward classification is unambiguous.
std::vector<Zone> compute_zones(const History& history);

// Zone of a single cluster.
Zone compute_zone(const History& history, OpId write);

}  // namespace kav

#endif  // KAV_HISTORY_CLUSTER_H
