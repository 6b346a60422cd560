// Computes the smallest k for which a history is k-atomic -- the
// paper's Section II-B observes this reduces to k-AV queries via binary
// search. The ladder of deciders mirrors the paper's landscape:
//
//   k = 1 : Gibbons-Korach zone conditions (polynomial, solved);
//   k = 2 : FZF (this paper's contribution, O(n log n));
//   k >= 3: exact only via the exponential oracle (the polynomial case
//           is the paper's primary open question, Section VII); for
//           histories too large for the oracle, the greedy checker
//           provides an upper bound (sound YES), reported as inexact.
//
// minimal_k is a checked entry point: detail::gate (core/verify.h)
// classifies the history once and normalizes repairable anomalies, and
// every decider it probes -- GK, FZF, each oracle binary-search step,
// each greedy k -- takes the gated history without a check of its own.
//
// Every history that is anomaly-free is W-atomic where W is its number
// of writes (any valid order bounds a read's separation by the total
// write count), so the search space is [1, max(1, W)].
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_MINIMAL_K_H
#define KAV_CORE_MINIMAL_K_H

#include <string>

#include "core/oracle.h"
#include "history/history.h"

namespace kav {

struct MinimalKOptions {
  // Histories with at most this many operations use the oracle for
  // k >= 3 (exact); larger ones fall back to the greedy upper bound.
  std::size_t oracle_max_ops = 48;
  OracleOptions oracle;
  // Cap for the greedy upper-bound scan (and the oracle binary search).
  int max_k = 64;
};

struct MinimalKResult {
  int k = 0;         // 0 => not k-atomic for any k (hard anomalies;
                     // note holds the gate's reason)
  bool exact = false;
  std::string note;  // how the bound was obtained
};

MinimalKResult minimal_k(const History& history,
                         const MinimalKOptions& options = {});

}  // namespace kav

#endif  // KAV_CORE_MINIMAL_K_H
