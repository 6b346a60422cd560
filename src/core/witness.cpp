#include "core/witness.h"

#include <algorithm>
#include <cstdint>

namespace kav {

namespace {

// Shared engine: unweighted validation is the weighted one with all
// write weights 1 and budget k (a read separated by at most k-1 *other*
// writes has total separating weight, dictating write included, at most
// k). This mirrors Section V's observation that k-AV is the
// weight-1 special case of k-WAV.
WitnessCheck validate_impl(const History& history, std::span<const OpId> order,
                           std::span<const Weight> weights, Weight budget) {
  WitnessCheck check;

  // (1) Permutation.
  if (order.size() != history.size()) {
    check.detail = "order has " + std::to_string(order.size()) +
                   " entries, history has " + std::to_string(history.size());
    return check;
  }
  std::vector<char> seen(history.size(), 0);
  for (OpId id : order) {
    if (id >= history.size() || seen[id]) {
      check.detail = "order is not a permutation (op " + std::to_string(id) +
                     (id < history.size() ? " repeated)" : " out of range)");
      return check;
    }
    seen[id] = 1;
  }
  check.is_permutation = true;

  // (2) Validity: no later element may precede an earlier one; with a
  // running maximum of start times this is O(n).
  TimePoint max_start_so_far = kTimeMin;
  for (OpId id : order) {
    if (history.finish(id) < max_start_so_far) {
      check.detail = "op " + std::to_string(id) + " " +
                     describe(history.op(id)) +
                     " finishes before an earlier-ordered op starts";
      return check;
    }
    max_start_so_far = std::max(max_start_so_far, history.start(id));
  }
  check.respects_precedence = true;

  // (3) Staleness bound. Walk the order maintaining prefix sums of
  // write weights; the separating weight of a read is then a single
  // subtraction against its dictating write's prefix rank.
  std::vector<Weight> write_prefix;          // prefix weights of writes
  std::vector<std::int64_t> write_rank_of(history.size(), -1);
  write_prefix.push_back(0);
  for (OpId id : order) {
    if (history.is_write(id)) {
      write_rank_of[id] = static_cast<std::int64_t>(write_prefix.size()) - 1;
      const Weight w = weights.empty() ? Weight{1} : weights[id];
      write_prefix.push_back(write_prefix.back() + w);
    } else {
      const OpId dictating = history.dictating_write(id);
      if (dictating == kInvalidOp) {
        check.detail = "read " + std::to_string(id) + " has no dictating write";
        return check;
      }
      const std::int64_t rank = write_rank_of[dictating];
      if (rank < 0) {
        check.detail = "read " + std::to_string(id) +
                       " ordered before its dictating write " +
                       std::to_string(dictating);
        return check;
      }
      // Weight of writes in [dictating .. read), dictating included.
      const Weight separation = write_prefix.back() - write_prefix[rank];
      if (separation > budget) {
        check.detail = "read " + std::to_string(id) + " has separation weight " +
                       std::to_string(separation) + " > " +
                       std::to_string(budget) + " from write " +
                       std::to_string(dictating);
        return check;
      }
    }
  }
  check.k_atomic = true;
  return check;
}

}  // namespace

WitnessCheck validate_witness(const History& history,
                              std::span<const OpId> order, int k) {
  return validate_impl(history, order, {}, k);
}

WitnessCheck validate_weighted_witness(const History& history,
                                       std::span<const OpId> order,
                                       std::span<const Weight> weights,
                                       Weight k) {
  return validate_impl(history, order, weights, k);
}

}  // namespace kav
