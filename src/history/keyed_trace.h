// Multi-register traces. k-atomicity is a local property (Section II-B
// of the paper): a trace over many registers is k-atomic iff the
// projection onto each register is, so verification splits a trace by
// key and reasons per register. KeyedTrace is the raw form emitted by
// workload sources (the quorum simulator, trace files); split_by_key
// produces one single-register History per key.
#ifndef KAV_HISTORY_KEYED_TRACE_H
#define KAV_HISTORY_KEYED_TRACE_H

#include <map>
#include <string>
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

// Groups by key, preserving the within-key order of insertion. Note the
// resulting per-key op ids index into that key's History, not into the
// original trace; the returned map also carries the original trace
// indexes for reporting.
struct KeyedHistories {
  std::map<std::string, History> per_key;
  // original trace position of each per-key op: trace_index[key][op id]
  std::map<std::string, std::vector<std::size_t>> trace_index;

  // Keys in map (lexicographic) order -- the shard enumeration order
  // the verification pipeline dispatches and merges in.
  std::vector<std::string> keys() const;
  // Total operations across all shards and the largest single shard;
  // what EngineOptions::shard_op_budget is measured against.
  std::size_t total_ops() const;
  std::size_t max_shard_ops() const;
};

KeyedHistories split_by_key(const KeyedTrace& trace);

}  // namespace kav

#endif  // KAV_HISTORY_KEYED_TRACE_H
