// kav-lint-fixture-path: src/core/verify.cpp
// The ladder itself calls the deciders: clean.
#include "core/gk.h"
#include "core/greedy.h"

namespace kav::detail {

Verdict decide_small(const History& history, int k) {
  if (k == 1) return check_1atomicity_gk(history);
  return check_k_atomicity_greedy(history, k);
}

}  // namespace kav::detail
