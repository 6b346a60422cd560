// Verdicts returned by every verification algorithm. A YES verdict is
// accompanied by a *witness*: a valid k-atomic total order over all
// operation ids, which core/witness.h can re-validate independently of
// whichever decision procedure produced it. A NO verdict carries a
// human-readable reason. `undecided` is returned by incomplete or
// budget-limited procedures (the greedy general-k checker, the oracle
// at its node limit); precondition_failed reports inputs the algorithms
// are not defined on (hard anomalies, see Section II-C of the paper).
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_VERDICT_H
#define KAV_CORE_VERDICT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time_types.h"

namespace kav {

enum class Outcome : unsigned char { yes, no, undecided, precondition_failed };

inline const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::yes:
      return "YES";
    case Outcome::no:
      return "NO";
    case Outcome::undecided:
      return "UNDECIDED";
    case Outcome::precondition_failed:
      return "PRECONDITION-FAILED";
  }
  return "unknown";
}

// Work counters filled in by the algorithms; benches report them so
// measured effort can be compared against the paper's bounds.
struct VerifyStats {
  std::uint64_t epochs = 0;            // LBT: committed epochs
  std::uint64_t candidates_tried = 0;  // LBT: RunEpoch invocations
  std::uint64_t steps = 0;             // LBT/FZF: ops processed (incl. reverts)
  std::uint64_t chunks = 0;            // FZF: |CS(H)|
  std::uint64_t dangling = 0;          // FZF: dangling backward clusters
  std::uint64_t orders_tested = 0;     // FZF: viability subroutine calls
  std::uint64_t nodes = 0;             // oracle: search nodes expanded

  // Field-wise sum: the aggregate effort over several verdicts.
  VerifyStats& operator+=(const VerifyStats& other) {
    epochs += other.epochs;
    candidates_tried += other.candidates_tried;
    steps += other.steps;
    chunks += other.chunks;
    dangling += other.dangling;
    orders_tested += other.orders_tested;
    nodes += other.nodes;
    return *this;
  }

  friend bool operator==(const VerifyStats&, const VerifyStats&) = default;
};

struct Verdict {
  Outcome outcome = Outcome::no;
  std::vector<OpId> witness;  // total order over all ops; non-empty only
                              // for YES on non-empty histories
  std::string reason;         // explanation unless YES
  // For NO verdicts from GK and FZF: a subset of operation ids whose
  // projection is itself not k-atomic (the offending zone pair or
  // chunk) -- a self-contained counterexample for debugging. Empty for
  // LBT (its refutations are not localized) and for YES verdicts.
  std::vector<OpId> conflict;
  VerifyStats stats;

  bool yes() const { return outcome == Outcome::yes; }
  bool no() const { return outcome == Outcome::no; }
  bool decided() const { return yes() || no(); }

  static Verdict make_yes(std::vector<OpId> witness_order,
                          VerifyStats stats = {}) {
    Verdict v;
    v.outcome = Outcome::yes;
    v.witness = std::move(witness_order);
    v.stats = stats;
    return v;
  }

  static Verdict make_no(std::string reason, VerifyStats stats = {}) {
    Verdict v;
    v.outcome = Outcome::no;
    v.reason = std::move(reason);
    v.stats = stats;
    return v;
  }

  static Verdict make_undecided(std::string reason, VerifyStats stats = {}) {
    Verdict v;
    v.outcome = Outcome::undecided;
    v.reason = std::move(reason);
    v.stats = stats;
    return v;
  }

  static Verdict make_precondition_failed(std::string reason) {
    Verdict v;
    v.outcome = Outcome::precondition_failed;
    v.reason = std::move(reason);
    return v;
  }
};

}  // namespace kav

#endif  // KAV_CORE_VERDICT_H
