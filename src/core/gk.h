// The Gibbons-Korach 1-atomicity (linearizability for registers) test,
// quoted in Section IV of the paper: a history is 1-atomic if and only
// if (1) no two forward zones overlap, and (2) no backward zone is
// contained entirely in a forward zone.
//
// This is the paper's baseline "solved problem" (1-AV). On YES the
// verdict carries a witness: clusters ordered by zone low endpoint,
// write first and reads by start time within each cluster, which is a
// valid 1-atomic total order whenever the two conditions hold.
//
// Input contract: an anomaly-free, normalized history (Section II-C).
// GK does not check it; on other input its verdict is meaningless.
// verify_k_atomicity is the checked entry point.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_GK_H
#define KAV_CORE_GK_H

#include "core/verdict.h"
#include "history/history.h"

namespace kav {

Verdict check_1atomicity_gk(const History& history);

}  // namespace kav

#endif  // KAV_CORE_GK_H
