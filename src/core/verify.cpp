#include "core/verify.h"

#include "core/analysis.h"
#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "history/anomaly.h"

namespace kav {

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::auto_select:
      return "auto";
    case Algorithm::gk:
      return "gk";
    case Algorithm::lbt:
      return "lbt";
    case Algorithm::fzf:
      return "fzf";
    case Algorithm::greedy:
      return "greedy";
    case Algorithm::oracle:
      return "oracle";
  }
  return "unknown";
}

Algorithm select_2av_algorithm(const ZoneProfile& profile) {
  // A chunk with >= 3 backward clusters is an immediate NO for FZF with
  // a localized conflict (Lemma 4.3); LBT would exhaust its candidate
  // epochs to learn the same thing and report nothing localized.
  if (profile.max_backward_per_chunk >= 3) return Algorithm::fzf;
  // The c threshold is the measured crossover. bench_lbt_vs_fzf
  // (BENCH_lbt_vs_fzf.json, bench/run_bench.sh) sweeps write
  // concurrency c from 3 to 512 at n ~ 16k, timing the deciders back
  // to back. From c = 3 FZF wins (paired medians: FZF 45.9, LBT 52.2
  // ns/op at c = 3; 42.6 vs 59.6 at c = 4) and the gap widens, since
  // LBT's O(n log n + c*n) (Theorem 3.2) grows with c and FZF's
  // O(n log n) (Theorem 4.6) does not. On nearly serial writes (c <= 2,
  // the practical_* rows) LBT wins. The smoke run fails if auto costs
  // more than 1.25x the cheaper decider at any c of the sweep.
  if (profile.max_concurrent_writes <= 2) return Algorithm::lbt;
  return Algorithm::fzf;
}

namespace detail {

Verdict decide(const History& history, int k, Algorithm algorithm) {
  // The caller has passed the history through the gate, so it meets
  // every decider's input contract.
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
    // One zone pass and one Stage-1 partition per key: the profile
    // reads its counts off the partition, and FZF decides over it.
    ChunkPartition partition;
    partition_chunks(compute_zones(history), partition);
    return select_2av_algorithm(zone_profile(history, partition)) ==
                   Algorithm::lbt
               ? check_2atomicity_lbt(history)
               : check_2atomicity_fzf(history, partition);
  }
  if (history.size() <= kOracleMaxOps) {
    Verdict v = oracle_is_k_atomic(history, k);
    if (v.outcome != Outcome::undecided) return v;
  }
  Verdict v = check_k_atomicity_greedy(history, k);
  if (v.yes()) return v;
  return Verdict::make_undecided(
      "no exact polynomial decider is known for k >= 3 (paper Section "
      "VII); greedy search found no witness",
      v.stats);
}

namespace {

// The gate's one classification: the failure, if `history` may not be
// decided; else nullopt, with `needs_repair` set when it must be
// repaired first.
std::optional<Verdict> classify(const History& history, bool normalize,
                                bool& needs_repair) {
  const bool hard = has_hard_anomaly(history);
  needs_repair = false;
  if (!hard && is_normalized(history)) return std::nullopt;
  if (!hard && normalize) {
    needs_repair = true;
    return std::nullopt;
  }
  const AnomalyReport report = find_anomalies(history);
  return Verdict::make_precondition_failed(
      "history has " +
      std::string(hard ? "hard anomalies"
                       : "repairable anomalies (enable options.normalize)") +
      ": " + describe(report.anomalies.front(), history));
}

}  // namespace

Gate gate(const History& history, bool normalize) {
  Gate result;
  bool needs_repair = false;
  result.failure = classify(history, normalize, needs_repair);
  if (needs_repair) result.repaired = normalize_repairable(history);
  return result;
}

std::optional<Verdict> gate_owned(History& history, bool normalize) {
  bool needs_repair = false;
  std::optional<Verdict> failure = classify(history, normalize, needs_repair);
  if (needs_repair) repair(history);
  return failure;
}

}  // namespace detail

Verdict verify_k_atomicity(const History& history,
                           const VerifyOptions& options) {
  if (options.k < 1) {
    return Verdict::make_precondition_failed("k must be >= 1");
  }
  const detail::Gate gate = detail::gate(history, options.normalize);
  if (gate.failure) return *gate.failure;
  return detail::decide(gate.decidable(history), options.k,
                        options.algorithm);
}

Verdict verify_k_atomicity(History&& history, const VerifyOptions& options) {
  if (options.k < 1) {
    return Verdict::make_precondition_failed("k must be >= 1");
  }
  if (auto failure = detail::gate_owned(history, options.normalize)) {
    return *failure;
  }
  return detail::decide(history, options.k, options.algorithm);
}

Report verify_keyed_trace(const KeyedTrace& trace,
                          const VerifyOptions& options) {
  Report report;
  const KeyedHistories split = split_by_key(trace);
  for (const auto& [key, history] : split.per_key) {
    Verdict verdict = verify_k_atomicity(history, options);
    report.verify_totals += verdict.stats;
    report.per_key.emplace(key, KeyResult{std::move(verdict), {}, {}});
  }
  return report;
}

}  // namespace kav
