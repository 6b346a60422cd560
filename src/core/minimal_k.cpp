#include "core/minimal_k.h"

#include <algorithm>
#include <string>

#include "core/verify.h"

namespace kav {

MinimalKResult minimal_k(const History& input) {
  // Repairable anomalies are normalized away, as verify_k_atomicity
  // does by default; only a hard anomaly is left to fail.
  const detail::Gate gate = detail::gate(input, /*normalize=*/true);
  if (gate.failure) return {0, true, gate.failure->reason};
  const History& history = gate.decidable(input);

  // hi is the smallest k known YES: W, the write count, until a probe
  // answers YES (every gated history is W-atomic). Every k below lo
  // was answered NO or UNDECIDED; largest_no is the largest NO.
  int lo = 1;
  int hi = std::max(1, static_cast<int>(history.write_count()));
  bool hi_answered = false;
  int largest_no = 0;
  const auto probe = [&](int k) {
    const Verdict verdict =
        detail::decide(history, k, Algorithm::auto_select);
    if (verdict.yes()) {
      hi = k;
      hi_answered = true;
    } else {
      lo = k + 1;
      if (verdict.no()) largest_no = k;
    }
  };
  probe(1);
  if (!hi_answered) probe(2);
  // k-atomicity is monotone in k: binary search over [3, W], then
  // probe W itself if no smaller k answered YES.
  while (lo < hi) probe(lo + (hi - lo) / 2);
  if (!hi_answered) probe(hi);

  if (hi == 1) return {1, true, "Gibbons-Korach"};
  if (largest_no == hi - 1) {
    return {hi, true,
            "the ladder answers NO at k = " + std::to_string(hi - 1)};
  }
  return {hi, false,
          "upper bound (true minimal k in [" + std::to_string(largest_no + 1) +
              ", " + std::to_string(hi) + "])"};
}

}  // namespace kav
