#include "core/minimal_k.h"

#include <algorithm>

#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/verify.h"

namespace kav {

MinimalKResult minimal_k(const History& input,
                         const MinimalKOptions& options) {
  MinimalKResult result;
  // Repairable anomalies are normalized away, as verify_k_atomicity
  // does by default; only a hard anomaly is left to fail.
  const detail::Gate gate = detail::gate(input, /*normalize=*/true);
  if (gate.failure) {
    result.k = 0;
    result.exact = true;
    result.note = gate.failure->reason;
    return result;
  }
  const History& history = gate.decidable(input);
  if (history.empty() || history.read_count() == 0) {
    // No read can be stale; the history is trivially 1-atomic.
    result.k = 1;
    result.exact = true;
    result.note = "no reads";
    return result;
  }

  if (check_1atomicity_gk(history).yes()) {
    result.k = 1;
    result.exact = true;
    result.note = "Gibbons-Korach";
    return result;
  }
  if (check_2atomicity_fzf(history).yes()) {
    result.k = 2;
    result.exact = true;
    result.note = "FZF";
    return result;
  }

  const int upper_cap = static_cast<int>(
      std::min<std::size_t>(history.write_count(),
                            static_cast<std::size_t>(options.max_k)));

  if (history.size() <= options.oracle_max_ops && history.size() <= 64) {
    // Binary search over [3, W]: k-atomicity is monotone in k.
    int lo = 3;
    int hi = std::max(3, static_cast<int>(history.write_count()));
    bool undecided = false;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      const Verdict r = oracle_is_k_atomic(history, mid, options.oracle);
      if (!r.decided()) {
        undecided = true;
        break;
      }
      if (r.yes()) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (!undecided) {
      result.k = lo;
      result.exact = true;
      result.note = "oracle binary search";
      return result;
    }
  }

  // Greedy upper bound: smallest k at which the greedy checker finds a
  // witness. Sound (the history IS k-atomic for the returned k) but the
  // true minimum may be smaller -- exact k >= 3 verification at scale is
  // the paper's open problem (Section VII).
  for (int k = 3; k <= upper_cap; ++k) {
    if (check_k_atomicity_greedy(history, k).yes()) {
      result.k = k;
      result.exact = false;
      result.note = "greedy upper bound (true minimal k in [3, " +
                    std::to_string(k) + "])";
      return result;
    }
  }
  result.k = upper_cap;
  result.exact = false;
  result.note = "upper bound by write count (greedy found no witness)";
  return result;
}

}  // namespace kav
