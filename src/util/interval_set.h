// The time interval used by the zone/chunk machinery (FZF Stage 1).
//
// All intervals are treated as open-ended real segments (lo, hi) with
// lo < hi; the library guarantees distinct endpoints after
// normalization, so open-versus-closed never matters and comparisons
// are strict everywhere, mirroring the paper's "distinct timestamps"
// assumption (Section II-C).
#ifndef KAV_UTIL_INTERVAL_SET_H
#define KAV_UTIL_INTERVAL_SET_H

#include "util/time_types.h"

namespace kav {

struct Interval {
  TimePoint lo = 0;
  TimePoint hi = 0;

  bool overlaps(const Interval& o) const { return lo < o.hi && o.lo < hi; }
  bool contains(const Interval& o) const { return lo < o.lo && o.hi < hi; }
  bool contains(TimePoint t) const { return lo < t && t < hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

}  // namespace kav

#endif  // KAV_UTIL_INTERVAL_SET_H
