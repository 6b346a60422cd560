#include "history/keyed_trace.h"

#include <algorithm>
#include <numeric>

namespace kav {

std::size_t KeyedHistories::total_ops() const {
  std::size_t n = 0;
  for (const auto& [key, history] : per_key) n += history.size();
  return n;
}

void KeyGrouper::add(std::string_view key, const Operation& op) {
  auto it = ids_.find(key);
  if (it == ids_.end()) {
    const auto id = static_cast<std::uint32_t>(names_.size());
    it = ids_.emplace(std::string(key), id).first;
    names_.emplace_back(key);
    kept_.push_back(!keep_ || keep_(key));
    groups_.emplace_back();
  }
  if (kept_[it->second]) groups_[it->second].push_back(op);
}

KeyedHistories KeyGrouper::finish() {
  std::vector<std::uint32_t> order(names_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return names_[a] < names_[b];
            });
  KeyedHistories out;
  for (const std::uint32_t id : order) {
    if (!kept_[id]) continue;
    out.per_key.emplace_hint(out.per_key.end(), std::move(names_[id]),
                             History(std::move(groups_[id])));
  }
  return out;
}

KeyedHistories split_by_key(const KeyedTrace& trace) {
  KeyGrouper grouper;
  for (const KeyedOperation& kop : trace.ops) grouper.add(kop.key, kop.op);
  return grouper.finish();
}

}  // namespace kav
