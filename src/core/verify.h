// The verification facade: normalizes input, dispatches to the right
// decision procedure for the requested k, and (for multi-register
// traces) exploits locality -- k-atomicity is a local property
// (Section II-B of the paper), so a trace is k-atomic iff its
// projection onto each register is.
//
// Multi-register traces go through kav::Engine (core/engine.h, included
// via kav.h): one session object with one shared thread pool, pluggable
// TraceSources, and run control. The serial verify_keyed_trace below is
// the reference it is differentially tested against, not a second front
// door.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_VERIFY_H
#define KAV_CORE_VERIFY_H

#include <optional>

#include "core/report.h"
#include "core/verdict.h"
#include "history/history.h"
#include "history/keyed_trace.h"

namespace kav {

struct ZoneProfile;  // core/analysis.h

enum class Algorithm : unsigned char {
  auto_select,  // GK for k=1, LBT/FZF by ZoneProfile for k=2,
                // oracle/greedy for k>=3
  gk,           // k = 1 only
  lbt,          // k = 2 only (iterative deepening)
  lbt_naive,    // k = 2 only (no iterative deepening; a reference)
  fzf,          // k = 2 only
  greedy,       // any k; sound YES, otherwise undecided
  oracle,       // any k; exact but exponential, <= 64 ops
};

const char* to_string(Algorithm algorithm);

// The k = 2 policy behind Algorithm::auto_select: picks LBT where it
// measured cheaper than FZF (write concurrency c <= 2, the crossover in
// BENCH_lbt_vs_fzf.json) unless a chunk is already doomed by Lemma 4.3,
// else FZF. Returns Algorithm::lbt or Algorithm::fzf only. Both deciders
// are exact for k = 2, so the choice never changes a verdict (property-
// tested by tests/agreement_fuzz_test.cpp); it is a pure function of
// the profile, so serial and sharded verification dispatch identically.
Algorithm select_2av_algorithm(const ZoneProfile& profile);

struct VerifyOptions {
  int k = 2;
  Algorithm algorithm = Algorithm::auto_select;
  // Repair repairable anomalies (duplicate timestamps, writes that
  // outlive dictated reads) before deciding. Operation ids are
  // preserved, so witnesses index the caller's history either way.
  bool normalize = true;
};

// Single-register verification: detail::gate classifies the history
// once, then one decider (chosen by options.algorithm and k) decides
// what passed. k < 1, and k other than 1 for gk or other than 2 for
// lbt, lbt_naive and fzf, are precondition_failed.
Verdict verify_k_atomicity(const History& history,
                           const VerifyOptions& options = {});

namespace detail {

// The Section II-C gate in front of the deciders. Every checked entry
// point runs it once -- verify_k_atomicity, minimal_k and
// check_weighted_k_atomicity (core/kwav.h) -- and the deciders (GK,
// LBT, FZF, greedy, oracle) trust what passes. Two O(n) scans classify
// the history (has_hard_anomaly, is_normalized; history/anomaly.h). A
// hard anomaly fails; a history with only repairable anomalies is
// repaired by normalize_repairable when `normalize` is on and fails
// otherwise. find_anomalies runs only to name the first anomaly in a
// failure's reason.
struct Gate {
  std::optional<Verdict> failure;   // precondition_failed
  std::optional<History> repaired;  // set when the input needed repair

  // What a decider may take: the repaired copy, else the input itself.
  const History& decidable(const History& input) const {
    return repaired ? *repaired : input;
  }
};

Gate gate(const History& history, bool normalize);

}  // namespace detail

// Serial multi-register reference: splits by key (split_by_key) and
// verifies each projection in key order on the calling thread -- no
// pool, no run control. Fills Report::per_key verdicts and
// Report::verify_totals. This is the semantics every parallel and
// streaming path is differentially fuzzed against; Engine::verify is
// bit-identical to it for any thread count.
Report verify_keyed_trace(const KeyedTrace& trace,
                          const VerifyOptions& options = {});

}  // namespace kav

#endif  // KAV_CORE_VERIFY_H
