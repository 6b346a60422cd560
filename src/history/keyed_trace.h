// Multi-register traces. k-atomicity is a local property (Section II-B
// of the paper): a trace over many registers is k-atomic iff the
// projection onto each register is, so verification splits a trace by
// key and reasons per register. KeyedTrace is the raw form emitted by
// workload sources (the quorum simulator, trace files); KeyGrouper
// groups operations into one single-register History per key as they
// are read, and split_by_key applies it to a whole KeyedTrace.
#ifndef KAV_HISTORY_KEYED_TRACE_H
#define KAV_HISTORY_KEYED_TRACE_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "history/history.h"

namespace kav {

struct KeyedOperation {
  std::string key;
  Operation op;
};

struct KeyedTrace {
  std::vector<KeyedOperation> ops;

  void add(std::string key, Operation op) {
    ops.push_back({std::move(key), op});
  }
  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

// One History per key, in map (lexicographic) key order -- the shard
// enumeration order the verification pipeline dispatches and merges
// in. Each History keeps its key's operations in input order, so
// per-key op ids index into that key's History, not the original trace.
struct KeyedHistories {
  std::map<std::string, History> per_key;

  // Total operations across all keys.
  std::size_t total_ops() const;
};

// Groups operations by key in one pass, as they arrive: each key gets a
// dense id the first time it appears (one hash probe per operation) and
// its operations are appended to that id's vector. finish() moves every
// vector into its key's History, so the operations are stored once and
// no intermediate KeyedTrace exists.
class KeyGrouper {
 public:
  // `keep`, when set, is asked once per distinct key, on its first
  // appearance, whether that key's operations are grouped; a dropped
  // key is still counted in ids().
  explicit KeyGrouper(std::function<bool(std::string_view)> keep = {})
      : keep_(std::move(keep)) {}

  void add(std::string_view key, const Operation& op);

  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  using IdTable =
      std::unordered_map<std::string, std::uint32_t, KeyHash, std::equal_to<>>;

  // Every distinct key added so far, kept or dropped, with its dense id.
  const IdTable& ids() const { return ids_; }

  // One History per kept key, in key order. Call once: the keys and
  // grouped operations are moved out (ids() stays). Throws
  // std::invalid_argument, as History does, for the first key in key
  // order holding an operation with start >= finish.
  KeyedHistories finish();

 private:
  std::function<bool(std::string_view)> keep_;
  IdTable ids_;
  // Indexed by id: the key, whether it is kept, and its operations.
  std::vector<std::string> names_;
  std::vector<bool> kept_;
  std::vector<std::vector<Operation>> groups_;
};

// Groups a whole trace by key, preserving the within-key order.
KeyedHistories split_by_key(const KeyedTrace& trace);

}  // namespace kav

#endif  // KAV_HISTORY_KEYED_TRACE_H
