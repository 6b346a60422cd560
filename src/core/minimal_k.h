// Computes the smallest k for which a history is k-atomic -- the
// paper's Section II-B observes this reduces to k-AV queries searched
// over k. Every query runs verify's decider ladder (detail::decide,
// core/verify.h), so minimal_k answers exactly what verify_k_atomicity
// would at each k it probes:
//
//   k = 1 : Gibbons-Korach zone conditions (polynomial, solved);
//   k = 2 : LBT or FZF, picked by the zone profile (both exact);
//   k >= 3: the exhaustive oracle up to kOracleMaxOps operations (the
//           polynomial case is the paper's primary open question,
//           Section VII), else the greedy checker, whose YES is sound
//           and whose miss is UNDECIDED.
//
// detail::gate classifies the history once and normalizes repairable
// anomalies; the ladder then probes k = 1, k = 2 and a binary search
// over [3, W], where W is the write count: every anomaly-free history
// is W-atomic (any valid order bounds a read's separation by the total
// write count). The result is the smallest probed k the ladder answers
// YES, and it is exact iff k = 1 or the ladder answered NO at k - 1.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_MINIMAL_K_H
#define KAV_CORE_MINIMAL_K_H

#include <string>

#include "history/history.h"

namespace kav {

struct MinimalKResult {
  int k = 0;           // 0 => not k-atomic for any k (hard anomalies;
                       // note holds the gate's reason)
  bool exact = false;  // the ladder answered NO at k - 1 (or k = 1)
  std::string note;    // how the bound was obtained
};

MinimalKResult minimal_k(const History& history);

}  // namespace kav

#endif  // KAV_CORE_MINIMAL_K_H
