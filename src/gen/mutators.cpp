#include "gen/mutators.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace kav::gen {

std::optional<History> inject_staler_read(const History& history, Rng& rng) {
  std::vector<std::pair<OpId, OpId>> choices;  // (read, older write)
  for (OpId r : history.reads()) {
    const OpId w = history.dictating_write(r);
    if (w == kInvalidOp) continue;
    for (OpId older : history.writes_by_start()) {
      if (history.start(older) >= history.start(w)) break;
      if (history.start(older) < history.finish(r)) {
        choices.emplace_back(r, older);
      }
    }
  }
  if (choices.empty()) return std::nullopt;
  const auto [read, older] = choices[rng.bounded(choices.size())];
  std::vector<Operation> ops = history.operations();
  ops[read].value = history.value(older);
  return History(std::move(ops));
}

History delay_read(const History& history, OpId read, TimePoint delta) {
  if (read >= history.size() || !history.is_read(read)) {
    throw std::invalid_argument("delay_read: not a read");
  }
  std::vector<Operation> ops = history.operations();
  ops[read].start += delta;
  ops[read].finish += delta;
  return History(std::move(ops));
}

History drop_operation(const History& history, OpId victim) {
  if (victim >= history.size()) {
    throw std::invalid_argument("drop_operation: bad id");
  }
  std::vector<Operation> ops;
  ops.reserve(history.size() - 1);
  for (OpId id = 0; id < history.size(); ++id) {
    if (id != victim) ops.push_back(history.op(id));
  }
  return History(std::move(ops));
}

History jitter_timestamps(const History& history, TimePoint amount, Rng& rng) {
  std::vector<Operation> ops = history.operations();
  for (Operation& op : ops) {
    op.start += rng.uniform(-amount, amount);
    op.finish += rng.uniform(-amount, amount);
    if (op.finish <= op.start) op.finish = op.start + 1;
  }
  return History(std::move(ops));
}

History duplicate_write_value(const History& history, Rng& rng) {
  const auto writes = history.writes_by_start();
  if (writes.size() < 2) {
    throw std::invalid_argument("duplicate_write_value: needs >= 2 writes");
  }
  const OpId a = writes[rng.bounded(writes.size())];
  OpId b = a;
  while (b == a) b = writes[rng.bounded(writes.size())];
  std::vector<Operation> ops = history.operations();
  ops[a].value = ops[b].value;
  return History(std::move(ops));
}

}  // namespace kav::gen
