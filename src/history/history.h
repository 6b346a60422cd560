// History: an immutable collection of operations on a single register
// (Section II-A), with the derived indexes every verification algorithm
// needs -- operations sorted by start and by finish, the dictating
// write of each read, the dictated reads of each write, and the maximum
// write-concurrency level c used in LBT's complexity bound.
//
// Layout: each operation field is stored exactly once, as five columns
// indexed by op id (start 8 B, finish 8 B, value 8 B, client 4 B, type
// 1 B: 29 B/op). The indexes add 4 B/op each for by_start/by_finish,
// the writes/reads partitions and the dictating-write table, 4 B per
// write for writes_by_finish, and 4 B per read and per op for the
// dictated-read lists: 53 B/op in all. The value index that resolves
// each read's dictating write is built and freed inside the
// constructor (16 B per write while it runs). Deciders read fields through
// the per-id accessors; op() and operations() assemble Operation rows
// on demand for cold callers (describe, mutators, serialization).
//
// Construction never fails on *semantic* anomalies (those are reported
// by find_anomalies in anomaly.h, since the paper treats them as
// pre-filtered); it only rejects structurally malformed operations
// (start >= finish).
//
// The repair that establishes the deciders' input contract
// (detail::repair, anomaly.h) is a friend: one body that rewrites the
// start and finish columns in O(n) -- in place when the caller owns
// the history, else into a copy -- keeps every index the repair cannot
// change, and rebuilds only the finish order and the write-concurrency
// count.
#ifndef KAV_HISTORY_HISTORY_H
#define KAV_HISTORY_HISTORY_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "history/operation.h"
#include "util/time_types.h"

namespace kav {

class History;

namespace detail {
void repair(const History& source, History& out);
}  // namespace detail

// Structure-of-arrays form of an operation sequence: column i across
// all five vectors is operation i. This is History's own storage, and
// what the zero-copy decode path (store/block_cursor.h) produces
// straight from mmap'd block bytes -- each fixed-width record field
// lands in its own contiguous column -- so History adopts it without
// an Operation row ever existing.
struct OperationColumns {
  std::vector<TimePoint> starts;
  std::vector<TimePoint> finishes;
  std::vector<Value> values;
  std::vector<ClientId> clients;
  std::vector<unsigned char> types;  // 0 = read, nonzero = write

  std::size_t size() const { return starts.size(); }
  void clear();
  void reserve(std::size_t n);
  void push_back(const Operation& op);
};

class History {
 public:
  History() = default;

  // Transposes the rows into columns once. Throws std::invalid_argument
  // if any operation has start >= finish.
  explicit History(std::vector<Operation> ops);

  // Adopts all five columns in place (they must have equal length;
  // this is checked). Semantically identical to building from the
  // equivalent std::vector<Operation> -- same validation, same
  // exception text, same indexes.
  explicit History(OperationColumns columns);

  std::size_t size() const { return cols_.size(); }
  bool empty() const { return cols_.starts.empty(); }

  // Per-id field reads: what the deciders use.
  TimePoint start(OpId id) const { return cols_.starts[id]; }
  TimePoint finish(OpId id) const { return cols_.finishes[id]; }
  Value value(OpId id) const { return cols_.values[id]; }
  bool is_write(OpId id) const { return cols_.types[id] != 0; }
  bool is_read(OpId id) const { return cols_.types[id] == 0; }

  // Rows assembled on demand, by value: operations() builds a fresh
  // vector on every call, so bind it once before iterating or indexing.
  Operation op(OpId id) const {
    return Operation{start(id), finish(id), value(id), cols_.clients[id],
                     is_write(id) ? OpType::write : OpType::read};
  }
  std::vector<Operation> operations() const;

  std::size_t write_count() const { return writes_by_finish_.size(); }
  std::size_t read_count() const { return reads_.size(); }

  // Op ids sorted by the respective timestamp (ties broken by id; after
  // normalization there are no ties).
  std::span<const OpId> by_start() const { return by_start_; }
  std::span<const OpId> by_finish() const { return by_finish_; }
  std::span<const OpId> writes_by_start() const { return writes_by_start_; }
  std::span<const OpId> writes_by_finish() const { return writes_by_finish_; }
  std::span<const OpId> reads() const { return reads_; }

  // The unique write with the read's value, or kInvalidOp if the read
  // has no dictating write in this history (an anomaly).
  OpId dictating_write(OpId read) const { return dictating_write_[read]; }

  // Reads that obtained `write`'s value, sorted by start time.
  std::span<const OpId> dictated_reads(OpId write) const;

  // True when two writes stored the same value (an anomaly; see Section
  // II-C); the earliest-starting one dictates the value's reads.
  bool has_duplicate_write_values() const {
    return has_duplicate_write_values_;
  }

  // The "precedes" relation (Section II-A): a finishes before b starts.
  bool precedes(OpId a, OpId b) const { return finish(a) < start(b); }

  // Maximum number of pairwise-concurrent writes at any instant -- the
  // parameter c in LBT's O(n log n + c*n) bound (Theorem 3.2).
  std::size_t max_concurrent_writes() const { return max_concurrent_writes_; }

  TimePoint min_time() const;  // earliest start (0 when empty)
  TimePoint max_time() const;  // latest finish (0 when empty)

 private:
  friend void detail::repair(const History& source, History& out);

  void build_indexes();
  // Sets max_concurrent_writes_ from cols_, writes_by_start_ and
  // writes_by_finish_.
  void count_max_concurrent_writes();

  OperationColumns cols_;
  std::vector<OpId> by_start_;
  std::vector<OpId> by_finish_;
  std::vector<OpId> writes_by_start_;
  std::vector<OpId> writes_by_finish_;
  std::vector<OpId> reads_;
  std::vector<OpId> dictating_write_;
  // Dictated reads stored flattened: reads of write w occupy
  // dictated_flat_[read_begin_[w] .. read_begin_[w + 1]).
  std::vector<OpId> dictated_flat_;
  std::vector<std::uint32_t> read_begin_;
  bool has_duplicate_write_values_ = false;
  std::size_t max_concurrent_writes_ = 0;
};

// Convenience used throughout tests: builds a History and gives stable
// ids (insertion order) back to the caller.
class HistoryBuilder {
 public:
  OpId write(TimePoint start, TimePoint finish, Value value,
             ClientId client = kNoClient) {
    ops_.push_back(make_write(start, finish, value, client));
    return static_cast<OpId>(ops_.size() - 1);
  }

  OpId read(TimePoint start, TimePoint finish, Value value,
            ClientId client = kNoClient) {
    ops_.push_back(make_read(start, finish, value, client));
    return static_cast<OpId>(ops_.size() - 1);
  }

  std::size_t size() const { return ops_.size(); }

  History build() const { return History(ops_); }

 private:
  std::vector<Operation> ops_;
};

}  // namespace kav

#endif  // KAV_HISTORY_HISTORY_H
