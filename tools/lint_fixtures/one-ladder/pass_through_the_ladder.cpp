// kav-lint-fixture-path: src/core/minimal_k.cpp
// Asks verify's gate and ladder instead of a decider: clean. The
// check_2atomicity_fzf( named in this comment, and in the string below,
// is not a call and must not trip the rule.
#include "core/verify.h"

namespace kav {

bool chunk_is_two_atomic(History chunk) {
  return verify_k_atomicity(std::move(chunk),
                            {.k = 2, .algorithm = Algorithm::fzf})
      .yes();
}

bool probe(const History& gated, int k) {
  const char* label = "oracle_is_k_atomic(";
  (void)label;
  return detail::decide(gated, k, Algorithm::auto_select).yes();
}

}  // namespace kav
