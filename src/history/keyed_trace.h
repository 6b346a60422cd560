// Multi-register traces. k-atomicity is a local property (Section II-B
// of the paper): a trace over many registers is k-atomic iff the
// projection onto each register is, so verification splits a trace by
// key and reasons per register. KeyedTrace is the raw form emitted by
// workload sources (the quorum simulator, trace files); a stream names
// each key by a dense KeyId once read (KeyInterner), KeyGrouper groups
// operations into one row vector per id as they are read, and
// split_by_key applies both to a whole KeyedTrace, building one
// single-register History per key.
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

// Dense key id: the position of a key in the order a stream first
// named it (0, 1, 2, ...). A TraceSource assigns ids once, as it reads;
// KeyGrouper and KeyedStreamingMonitor index their per-key state by id,
// so nothing downstream hashes a key string per operation.
using KeyId = std::uint32_t;

struct IdOperation {
  KeyId key;
  Operation op;
};

// One pull's worth of a stream (TraceSource::pull): operations named
// by KeyId, plus the names of the ids first named in this chunk. Ids
// are dense in first-appearance order, so new_keys[i] names id
// first_new_key + i, and every operation's id is below
// first_new_key + new_keys.size().
struct KeyedChunk {
  std::vector<IdOperation> ops;
  KeyId first_new_key = 0;
  std::vector<std::string> new_keys;

  void clear() {
    ops.clear();
    new_keys.clear();
  }
  // Throws std::invalid_argument, naming `who`, unless this chunk
  // continues an id space of `named` ids: its new names start at id
  // `named`, and every operation uses an id they or earlier ones name.
  void check_continues(std::size_t named, std::string_view who) const;
};

// Assigns dense KeyIds in first-appearance order: one hash probe per
// lookup, each name stored once. The one interner behind every source
// that reads key strings (ingest/trace_source.h) and behind
// split_by_key.
class KeyInterner {
 public:
  // `key`'s id, assigning the next one when `key` is new.
  KeyId intern(std::string_view key, bool& fresh);
  // Interns `key` for `chunk`: its id, named in chunk.new_keys when new.
  KeyId name(KeyedChunk& chunk, std::string_view key);
  // Interns `key` and appends (id, op) to `chunk`.
  void append(KeyedChunk& chunk, std::string_view key, const Operation& op) {
    chunk.ops.push_back({name(chunk, key), op});
  }

 private:
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  std::unordered_map<std::string, KeyId, KeyHash, std::equal_to<>> ids_;
};

// One key's operations as KeyGrouper grouped them, in input order.
struct KeyRows {
  std::string key;
  std::vector<Operation> ops;
};

// Groups operations by key in one pass, as they arrive: operations come
// named by KeyId (a source chunk) and are appended to that id's vector
// -- an index, not a hash probe. finish() hands the vectors out by key,
// so the operations are stored once (32 B/op) and no intermediate
// KeyedTrace exists; whoever builds a key's History from its rows
// (History(std::vector<Operation>)) frees them as it does.
class KeyGrouper {
 public:
  // `keep`, when set, is asked once per distinct key, on its first
  // appearance, whether that key's operations are grouped.
  explicit KeyGrouper(std::function<bool(std::string_view)> keep = {})
      : keep_(std::move(keep)) {}

  // Names the next id (ids arrive dense: each call names one more).
  void add_key(std::string name);
  // Throws std::invalid_argument, as History would, for an operation of
  // a kept key with start >= finish: a malformed input fails while it
  // is read, before any of it is decided.
  void add(KeyId id, const Operation& op) {
    if (!kept_[id]) return;
    if (op.start >= op.finish) reject_malformed(id);
    groups_[id].push_back(op);
  }
  // Names the chunk's new ids, then groups its operations. Throws
  // std::invalid_argument, grouping nothing, when the chunk's ids do
  // not continue this grouper's id space, and as add(id, op) does for a
  // malformed operation (the operations before it stay grouped).
  void add(const KeyedChunk& chunk);
  // Ids named so far, kept or not.
  std::size_t key_count() const { return names_.size(); }

  // Each kept key's rows, in key order (empty keys included). Call
  // once: the keys and grouped operations are moved out. Every row has
  // start < finish (add checked it), so each builds a History.
  std::vector<KeyRows> finish();

 private:
  [[noreturn]] void reject_malformed(KeyId id) const;

  std::function<bool(std::string_view)> keep_;
  // Indexed by id: the key, whether it is kept, and its operations.
  std::vector<std::string> names_;
  std::vector<bool> kept_;
  std::vector<std::vector<Operation>> groups_;
};

// Groups a whole trace by key, preserving the within-key order. Throws
// std::invalid_argument, as KeyGrouper::add does, for the first
// operation in trace order with start >= finish.
KeyedHistories split_by_key(const KeyedTrace& trace);

}  // namespace kav

#endif  // KAV_HISTORY_KEYED_TRACE_H
