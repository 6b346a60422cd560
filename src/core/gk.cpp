#include "core/gk.h"

#include <algorithm>
#include <vector>

#include "history/cluster.h"

namespace kav {

namespace {

std::string zone_string(const Zone& z) {
  return std::string(z.forward ? "forward" : "backward") + " zone of write " +
         std::to_string(z.write) + " [" + std::to_string(z.low()) + ", " +
         std::to_string(z.high()) + "]";
}

// The two offending clusters form a self-contained counterexample.
std::vector<OpId> cluster_pair(const History& history, OpId write_a,
                               OpId write_b) {
  std::vector<OpId> ops;
  for (OpId w : {write_a, write_b}) {
    ops.push_back(w);
    for (OpId r : history.dictated_reads(w)) ops.push_back(r);
  }
  return ops;
}

}  // namespace

Verdict check_1atomicity_gk(const History& history) {
  if (history.empty()) return Verdict::make_yes({});

  const std::vector<Zone> zones = compute_zones(history);  // sorted by low

  // Condition (1): forward zones must be pairwise disjoint. Sorted by
  // low endpoint, it suffices to compare neighbours.
  const Zone* previous_forward = nullptr;
  for (const Zone& z : zones) {
    if (!z.forward) continue;
    if (previous_forward != nullptr && z.low() < previous_forward->high()) {
      Verdict verdict = Verdict::make_no(
          "forward zones overlap: " + zone_string(*previous_forward) +
          " and " + zone_string(z));
      verdict.conflict = cluster_pair(history, previous_forward->write,
                                      z.write);
      return verdict;
    }
    previous_forward = &z;
  }

  // Condition (2): no backward zone inside a forward zone. Forward
  // zones are now known disjoint; for each backward zone, binary-search
  // the unique forward zone that could contain its low endpoint.
  std::vector<const Zone*> forward;
  for (const Zone& z : zones) {
    if (z.forward) forward.push_back(&z);
  }
  for (const Zone& z : zones) {
    if (z.forward) continue;
    auto it = std::upper_bound(
        forward.begin(), forward.end(), z.low(),
        [](TimePoint t, const Zone* f) { return t < f->low(); });
    if (it != forward.begin()) {
      const Zone* f = *(it - 1);
      if (f->low() < z.low() && z.high() < f->high()) {
        Verdict verdict = Verdict::make_no(
            "backward zone contained in forward zone: " + zone_string(z) +
            " inside " + zone_string(*f));
        verdict.conflict = cluster_pair(history, z.write, f->write);
        return verdict;
      }
    }
  }

  // Conditions hold: clusters ordered by zone low endpoint give a valid
  // 1-atomic order (write, then its reads by start time).
  std::vector<OpId> witness;
  witness.reserve(history.size());
  for (const Zone& z : zones) {
    witness.push_back(z.write);
    for (OpId r : history.dictated_reads(z.write)) witness.push_back(r);
  }
  return Verdict::make_yes(std::move(witness));
}

}  // namespace kav
