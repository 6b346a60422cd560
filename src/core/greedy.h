// A sound-but-incomplete k-AV checker for arbitrary k, built as the
// natural generalization of LBT. The paper leaves the complexity of
// exact k-AV open for fixed k >= 3 (Section VII); this module explores
// that gap from the algorithmic side: it extends LBT's epoch machinery
// with a *deadline queue* instead of the single forced write w'.
//
// When a read dictated by write x is consumed at the placement step of
// write w, x acquires a deadline: at most k-2 further non-x writes may
// be placed before x itself (the k=2 case degenerates to "x must be
// next", which is exactly LBT's w', so for k = 2 this checker is
// complete and agrees with LBT). For k >= 3, whenever several pending
// writes compete, the checker places the most urgent one
// (earliest-deadline-first) -- a heuristic that can miss some k-atomic
// orders, hence YES answers are definitive (the witness is validated)
// while exhausting the search space yields UNDECIDED, never NO.
//
// Input contract: an anomaly-free, normalized history (Section II-C).
// Greedy does not check it; verify_k_atomicity is the checked entry
// point.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_GREEDY_H
#define KAV_CORE_GREEDY_H

#include "core/verdict.h"
#include "history/history.h"

namespace kav {

// Outcome is yes (witness attached) or undecided; never no. k < 1 is
// precondition_failed.
Verdict check_k_atomicity_greedy(const History& history, int k);

}  // namespace kav

#endif  // KAV_CORE_GREEDY_H
