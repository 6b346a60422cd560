// Exhaustive k-AV decision procedure for any k (and its weighted k-WAV
// generalization from Section V), used as ground truth in tests and as
// the only exact decider for k >= 3 -- the paper leaves polynomial
// algorithms for fixed k >= 3 open (Section VII), and proves the
// weighted problem NP-complete (Theorem 5.1), so exponential worst-case
// cost here is expected, not a defect.
//
// Method: depth-first search over valid total orders, built left to
// right. Available reads are placed eagerly (placing an available read
// never forecloses options: it constrains nothing and its own
// constraint only tightens if deferred); branching happens on writes
// only. A state is pruned when some placed write with still-unplaced
// dictated reads has exhausted its separation budget, and dead states
// are memoized by (placed-set, per-pending-write used budget).
//
// Limits: histories up to kOracleMaxOps operations (bitmask states); a
// node budget guards against exponential blowups in property sweeps.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_ORACLE_H
#define KAV_CORE_ORACLE_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/verdict.h"
#include "history/history.h"
#include "util/time_types.h"

namespace kav {

// The largest history the oracle takes: one bit per operation in its
// uint64_t search masks. verify's decider ladder (core/verify.h) hands it
// every history up to this size.
inline constexpr std::size_t kOracleMaxOps = 64;

struct OracleOptions {
  std::uint64_t node_limit = 20'000'000;
  bool memoize = true;  // disable to cross-check the memoization itself
};

// Decides k-AV exactly: YES with a witness, NO, or UNDECIDED once the
// search has expanded options.node_limit nodes. stats.nodes counts the
// nodes expanded. With `weights` (one per op id, consulted for writes,
// all positive) it decides k-WAV instead: a read's staleness is the
// total weight of writes from its dictating write (inclusive) up to
// the read, which must be at most k (Section V).
//
// Input contract: an anomaly-free, normalized history (Section II-C);
// this function does not check it. verify_k_atomicity and
// check_weighted_k_atomicity (core/kwav.h) are the checked entry
// points. Arguments are checked: k < 1, more than kOracleMaxOps
// operations, and a weight count that is not the history's size or a
// write weight that is not positive each answer precondition_failed.
Verdict oracle_is_k_atomic(const History& history, Weight k,
                           const OracleOptions& options = {},
                           std::span<const Weight> weights = {});

}  // namespace kav

#endif  // KAV_CORE_ORACLE_H
