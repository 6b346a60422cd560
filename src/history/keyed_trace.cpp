#include "history/keyed_trace.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace kav {

std::size_t KeyedHistories::total_ops() const {
  std::size_t n = 0;
  for (const auto& [key, history] : per_key) n += history.size();
  return n;
}

KeyId KeyInterner::intern(std::string_view key, bool& fresh) {
  auto it = ids_.find(key);
  fresh = it == ids_.end();
  if (fresh) {
    it = ids_.emplace(std::string(key), static_cast<KeyId>(ids_.size()))
             .first;
  }
  return it->second;
}

KeyId KeyInterner::name(KeyedChunk& chunk, std::string_view key) {
  bool fresh = false;
  const KeyId id = intern(key, fresh);
  if (fresh) {
    if (chunk.new_keys.empty()) chunk.first_new_key = id;
    chunk.new_keys.emplace_back(key);
  }
  return id;
}

void KeyedChunk::check_continues(std::size_t named,
                                 std::string_view who) const {
  if (!new_keys.empty() && first_new_key != named) {
    throw std::invalid_argument(std::string(who) + ": chunk names id " +
                                std::to_string(first_new_key) +
                                ", expected " + std::to_string(named));
  }
  const std::size_t limit = named + new_keys.size();
  for (const IdOperation& iop : ops) {
    if (iop.key >= limit) {
      throw std::invalid_argument(std::string(who) +
                                  ": chunk uses unnamed id " +
                                  std::to_string(iop.key));
    }
  }
}

void KeyGrouper::add_key(std::string name) {
  kept_.push_back(!keep_ || keep_(name));
  names_.push_back(std::move(name));
  groups_.emplace_back();
}

void KeyGrouper::add(const KeyedChunk& chunk) {
  chunk.check_continues(names_.size(), "KeyGrouper");
  for (const std::string& name : chunk.new_keys) add_key(name);
  for (const IdOperation& iop : chunk.ops) add(iop.key, iop.op);
}

void KeyGrouper::reject_malformed(KeyId id) const {
  throw std::invalid_argument("operation " +
                              std::to_string(groups_[id].size()) +
                              " of key '" + names_[id] +
                              "' has start >= finish");
}

std::vector<KeyRows> KeyGrouper::finish() {
  std::vector<std::uint32_t> order(names_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return names_[a] < names_[b];
            });
  std::vector<KeyRows> out;
  for (const std::uint32_t id : order) {
    if (!kept_[id]) continue;
    out.push_back({std::move(names_[id]), std::move(groups_[id])});
  }
  return out;
}

KeyedHistories split_by_key(const KeyedTrace& trace) {
  KeyInterner interner;
  KeyGrouper grouper;
  for (const KeyedOperation& kop : trace.ops) {
    bool fresh = false;
    const KeyId id = interner.intern(kop.key, fresh);
    if (fresh) grouper.add_key(kop.key);
    grouper.add(id, kop.op);
  }
  KeyedHistories out;
  for (KeyRows& rows : grouper.finish()) {
    out.per_key.emplace_hint(out.per_key.end(), std::move(rows.key),
                             History(std::move(rows.ops)));
  }
  return out;
}

}  // namespace kav
