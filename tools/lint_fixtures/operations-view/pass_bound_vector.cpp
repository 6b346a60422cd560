// kav-lint-fixture-path: tests/sample_test.cpp
// History::operations() bound to a vector once, iterated directly, or
// replaced by op(id): clean. The operations().begin() named in this
// comment is not code and must not trip the rule.
#include <span>
#include <vector>

#include "history/history.h"

namespace kav {

std::vector<Operation> copy_rows(const History& history) {
  std::vector<Operation> rows = history.operations();
  rows.erase(rows.begin());
  return rows;
}

bool same_rows(const History& a, const History& b) {
  for (OpId i = 0; i < a.size(); ++i) {
    if (!(a.op(i) == b.op(i))) return false;
  }
  return true;
}

std::size_t count_writes(const History& history) {
  std::size_t writes = 0;
  for (const Operation& op : history.operations()) writes += op.is_write();
  const std::span<const OpId> ids = history.writes_by_start();
  return writes + ids.size() * 0;
}

}  // namespace kav
