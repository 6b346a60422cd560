// The weighted k-atomicity-verification problem (k-WAV, Section V of
// the paper): every write carries a positive integer weight, and a
// history is weighted-k-atomic iff some valid total order places every
// read after its dictating write with the total weight of separating
// writes -- including the dictating write itself -- at most k. Plain
// k-AV is the all-weights-1 special case.
//
// Theorem 5.1 proves k-WAV NP-complete by reduction from bin packing;
// this module makes the proof executable:
//   - an exact k-WAV decider (the weighted oracle; exponential worst
//     case, as NP-completeness predicts),
//   - exact and first-fit-decreasing bin-packing solvers, and
//   - the Figure 5 construction mapping a bin-packing instance to a
//     k-WAV instance, so tests can check
//         bin_packing_feasible(I)  <=>  kwav(reduce(I)).yes().
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_KWAV_H
#define KAV_CORE_KWAV_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/oracle.h"
#include "history/history.h"

namespace kav {

// ---------------------------------------------------------------------
// Weighted histories.

struct WeightedHistory {
  History history;
  std::vector<Weight> weights;  // per op id; consulted for writes only
};

// Decides weighted k-atomicity exactly with the weighted oracle
// (exponential in the worst case -- see Theorem 5.1). The one front
// door for weighted histories: detail::gate (core/verify.h) classifies
// wh.history and normalizes repairable anomalies (ids, and so weights,
// are preserved) before the oracle, which trusts its input, runs. A
// hard anomaly, k < 1, more than 64 operations, or a weight vector that
// is not one positive weight per op is precondition_failed.
Verdict check_weighted_k_atomicity(const WeightedHistory& wh, Weight k,
                                   const OracleOptions& options = {});

// ---------------------------------------------------------------------
// Bin packing (the substrate of Theorem 5.1's reduction).

struct BinPackingInstance {
  std::vector<Weight> sizes;  // positive item sizes
  Weight capacity = 0;        // B
  int bins = 0;               // m
};

// Exact feasibility by branch and bound (items sorted descending, bins
// deduplicated by load). Intended for the small instances the reduction
// tests use; exponential worst case.
bool bin_packing_feasible(const BinPackingInstance& instance,
                          std::uint64_t node_limit = 50'000'000);

// First-fit-decreasing upper bound: number of capacity-B bins FFD uses.
int first_fit_decreasing_bins(std::span<const Weight> sizes, Weight capacity);

// ---------------------------------------------------------------------
// The Figure 5 reduction.

// Layout bookkeeping so tests can inspect the construction: op ids of
// the short writes w(1)..w(m+1), their dictated reads r(1)..r(m), and
// the long writes (one per bin-packing item, no dictated reads).
struct KwavReduction {
  WeightedHistory instance;
  Weight k = 0;  // B + 2
  std::vector<OpId> short_writes;  // size m + 1
  std::vector<OpId> short_reads;   // size m
  std::vector<OpId> long_writes;   // size n (one per item)
};

// Builds the k-WAV instance of Figure 5: short writes and their reads
// totally ordered as w1 w2 r1 w3 r2 ... w(m) r(m-1) w(m+1) r(m), each
// with weight 1; item j becomes a "long write" of weight sizes[j]
// spanning the gap from just after w(1) finishes to just before
// w(m+1) starts (so every valid order pins it between them, i.e. into
// some bin); k = capacity + 2. The instance is weighted-k-atomic iff
// the bin-packing instance is feasible (Theorem 5.1).
// Requires instance.bins >= 1 and positive sizes.
KwavReduction reduce_bin_packing_to_kwav(const BinPackingInstance& instance);

}  // namespace kav

#endif  // KAV_CORE_KWAV_H
