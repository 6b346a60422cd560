// Test-only reference: the find_anomalies-based precondition logic that
// verify_k_atomicity and normalize() used before they classified a
// history with O(n) scans (detail::has_hard_anomaly + is_normalized),
// kept verbatim (renamed, and with the decider dispatch copied along)
// so classifier_fuzz_test.cpp can pin both to it bit for bit: verdict
// outcome, reason, witness, conflict and stats; normalize()'s exception
// text and its output history.
#ifndef KAV_TESTS_REFERENCE_PRECONDITIONS_H
#define KAV_TESTS_REFERENCE_PRECONDITIONS_H

#include <stdexcept>
#include <string>

#include "core/analysis.h"
#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "core/verify.h"
#include "history/anomaly.h"

namespace kav::reference {

inline Verdict dispatch(const History& history, int k, Algorithm algorithm) {
  // verify_k_atomicity (the only caller) has already run
  // find_anomalies and either bailed or normalized, so the history
  // meets every decider's input contract.
  auto wrong_k = [&](const char* name, int expected) {
    return Verdict::make_precondition_failed(
        std::string(name) + " decides only k = " + std::to_string(expected) +
        ", got k = " + std::to_string(k));
  };
  switch (algorithm) {
    case Algorithm::gk:
      if (k != 1) return wrong_k("gk", 1);
      return check_1atomicity_gk(history);
    case Algorithm::lbt:
      if (k != 2) return wrong_k("lbt", 2);
      return check_2atomicity_lbt(history);
    case Algorithm::lbt_naive: {
      if (k != 2) return wrong_k("lbt-naive", 2);
      LbtOptions options;
      options.iterative_deepening = false;
      return check_2atomicity_lbt(history, options);
    }
    case Algorithm::fzf:
      if (k != 2) return wrong_k("fzf", 2);
      return check_2atomicity_fzf(history);
    case Algorithm::greedy:
      return check_k_atomicity_greedy(history, k);
    case Algorithm::oracle:
      return oracle_is_k_atomic(history, k);
    case Algorithm::auto_select:
      break;
  }
  // Auto selection mirrors the paper's landscape: polynomial deciders
  // for k = 1 (Gibbons-Korach) and k = 2 (LBT or FZF, both exact --
  // chosen per history by the ZoneProfile policy above); for k >= 3
  // the exact oracle when feasible, else the sound greedy checker with
  // an honest UNDECIDED when it finds no witness (Section VII open
  // problem).
  if (k == 1) return check_1atomicity_gk(history);
  if (k == 2) {
    return select_2av_algorithm(zone_profile(history)) == Algorithm::lbt
               ? check_2atomicity_lbt(history)
               : check_2atomicity_fzf(history);
  }
  if (history.size() <= 64) {
    const Verdict v = oracle_is_k_atomic(history, k);
    if (v.outcome != Outcome::undecided) return v;
  }
  Verdict v = check_k_atomicity_greedy(history, k);
  if (v.yes()) return v;
  return Verdict::make_undecided(
      "no exact polynomial decider is known for k >= 3 (paper Section "
      "VII); greedy search found no witness",
      v.stats);
}

inline Verdict verify_k_atomicity(const History& history,
                                  const VerifyOptions& options) {
  if (options.k < 1) {
    return Verdict::make_precondition_failed("k must be >= 1");
  }
  const AnomalyReport report = find_anomalies(history);
  if (!report.empty()) {
    if (!options.normalize || !report.repairable()) {
      return Verdict::make_precondition_failed(
          "history has " +
          std::string(report.repairable() ? "repairable anomalies "
                                            "(enable options.normalize)"
                                          : "hard anomalies") +
          ": " + describe(report.anomalies.front(), history));
    }
    // The report in hand already proves the history repairable;
    // normalize() would scan for anomalies a second time.
    return dispatch(detail::normalize_repairable(history), options.k,
                    options.algorithm);
  }
  return dispatch(history, options.k, options.algorithm);
}

inline History normalize(const History& history) {
  if (!find_anomalies(history).repairable()) {
    throw std::invalid_argument(
        "normalize: history has hard anomalies; see find_anomalies");
  }
  return detail::normalize_repairable(history);
}

}  // namespace kav::reference

#endif  // KAV_TESTS_REFERENCE_PRECONDITIONS_H
