// kav-lint-fixture-path: tests/sample_test.cpp
// History::operations() treated as a view: iterators from two separate
// calls, indexing the call in a loop, and a span bound to the
// temporary. Every one must be flagged, also after a digit separator
// (a quote that must not open a character literal).
#include <span>
#include <vector>

#include "history/history.h"

namespace kav {

constexpr std::size_t kMaxRows = 4'000;

std::vector<Operation> copy_rows(const History& history) {
  return std::vector<Operation>(history.operations().begin(),
                                history.operations().end());
}

bool same_rows(const History& a, const History* b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a.operations()[i] == b->operations()[i])) return false;
  }
  return true;
}

std::size_t count_rows(const History& history) {
  const std::span<const Operation> rows = history.operations();
  return rows.size();
}

}  // namespace kav
