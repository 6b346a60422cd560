// kav-lint-fixture-path: src/core/streaming.cpp
// A caller outside the ladder runs FZF and the oracle itself, skipping
// verify's gate and its ladder: both calls must be flagged.
#include "core/fzf.h"
#include "core/oracle.h"

namespace kav {

bool chunk_is_two_atomic(const History& chunk) {
  return check_2atomicity_fzf(chunk).yes();
}

bool small_key_is_three_atomic(const History& key) {
  return oracle_is_k_atomic(key, 3).yes();
}

}  // namespace kav
