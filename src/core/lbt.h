// LBT ("limited backtracking"), the paper's first 2-AV algorithm
// (Section III, Figure 2).
//
// LBT builds a 2-atomic total order back to front, in epochs. An epoch
// tentatively places a candidate write w in the latest unfilled write
// slot; every remaining operation that starts after w finishes must
// then be a read dictated by w or by a single other write w' (anything
// else refutes the candidate); those reads fill the read container
// adjacent to w, and w' -- if discovered -- is forced into the previous
// write slot, continuing the chain with no further search. Backtracking
// is limited to the choice of the epoch's first write, drawn from the
// candidate set C of writes that precede no other live write (a suffix
// of W ordered by finish time, of size at most c, the maximum write
// concurrency).
//
// Complexity (Theorem 3.2): O(n log n + c*n) with the iterative-
// deepening candidate search (per epoch, every surviving candidate is
// re-run with a doubling step budget, so the search costs O(c * t)
// where t is the work of the cheapest successful candidate); O(n^2)
// worst case when c = Theta(n). The naive mode (candidates tried to
// completion one by one) is kept for the ablation benchmark.
//
// Input contract: an anomaly-free, normalized history (Section II-C).
// LBT does not check it; on other input its verdict is meaningless.
// verify_k_atomicity is the checked entry point.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_LBT_H
#define KAV_CORE_LBT_H

#include "core/verdict.h"
#include "history/history.h"

namespace kav {

struct LbtOptions {
  bool iterative_deepening = true;
  // Initial per-candidate step budget for iterative deepening (doubled
  // each round). Small values exercise the revert machinery harder.
  std::uint64_t initial_budget = 16;
};

Verdict check_2atomicity_lbt(const History& history,
                             const LbtOptions& options = {});

}  // namespace kav

#endif  // KAV_CORE_LBT_H
