// Online (streaming) 2-atomicity monitoring -- the experiment Section
// VII of the paper proposes ("test whether existing storage systems
// provide 2-atomicity in practice") needs a checker that runs against
// a live trace without retaining it forever.
//
// The enabling observation is FZF's Lemma 4.1: maximal chunks are
// decided independently, so once a chunk can no longer grow it can be
// verified and evicted. A chunk can stop growing only when no future
// operation may join or bridge it, which requires two promises:
//
//   1. a *watermark*: the caller guarantees every future operation
//      starts after the watermark (true when feeding completed
//      operations in start order, or with bounded reordering);
//   2. a *staleness horizon* H: every read starts at most H after its
//      dictating write finishes. Reads that violate the horizon are
//      detected (their write's cluster is gone) and reported -- for a
//      monitor, "staleness exceeded H" is itself the finding.
//
// Under those promises, every cluster whose write finished before
// (watermark - H) is final, and chunks composed of final clusters
// whose extents lie below every unsettled zone are verified and
// evicted. Memory is O(window), not O(trace).
//
// The checker is incremental: add() files each operation under its
// cluster once (a read whose write has not arrived yet is parked under
// its value until it does); advance_watermark() settles clusters off a
// min-heap on write finish, takes the settle line from an ordered view
// of the unsettled zone lows, and partitions only the settled, not yet
// evicted clusters into chunks, with FZF's own Stage 1
// (partition_chunks) refilling one reused partition. A chunk of one
// forward cluster is decided directly -- the write first, then its
// reads -- and only larger chunks build a History, repaired in place
// (detail::repair) and decided by verify_k_atomicity with
// Algorithm::fzf, whose reason the finding quotes. The cost of a
// watermark advance follows what settles, not the window size.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_STREAMING_H
#define KAV_CORE_STREAMING_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fzf.h"
#include "core/verdict.h"
#include "history/cluster.h"
#include "history/history.h"

namespace kav {

struct StreamingOptions {
  // Maximum assumed gap between a write's finish and the start of its
  // last dictated read. Reads arriving later are horizon violations.
  TimePoint staleness_horizon = 10'000;
};

struct StreamingStats {
  std::uint64_t operations_ingested = 0;
  std::uint64_t operations_evicted = 0;
  std::uint64_t chunks_verified = 0;
  std::uint64_t dangling_clusters = 0;
  std::uint64_t flushes = 0;
  std::size_t peak_window = 0;  // max ops buffered at once
};

struct StreamingViolation {
  enum class Kind : unsigned char {
    not_2atomic,        // a settled chunk failed Stage 2
    horizon_exceeded,   // read of an already-evicted write
    hard_anomaly,       // read without (or preceding) its dictating
                        // write, or a duplicate write value
    late_arrival,       // ingest: arrival beyond the reorder slack
                        // (reported by ingest/keyed_monitor.h, never by
                        // StreamingChecker itself)
  };
  Kind kind;
  TimePoint when;      // watermark at detection time
  std::string detail;
};

class StreamingChecker {
 public:
  explicit StreamingChecker(const StreamingOptions& options = {});

  // Ingest one completed operation. Operations may arrive in any order
  // as long as each starts after the current watermark was honored
  // (i.e. op.start > last advance_watermark argument is NOT required
  // for ops already in flight; it is required that no *future* add()
  // has start <= watermark). Throws std::invalid_argument if
  // op.start >= op.finish, like History, and std::logic_error after
  // finish().
  void add(const Operation& op);

  // Promise: every operation added after this call starts strictly
  // after `t`. Triggers verification and eviction of settled chunks.
  void advance_watermark(TimePoint t);

  // Flush everything (equivalent to watermark = +infinity) and return
  // the overall verdict: YES iff no violation was ever detected.
  Verdict finish();

  // Reuse hook: returns the checker to its freshly-constructed state
  // (same options), so long-lived monitors can recycle instances
  // instead of reallocating one per stream.
  void reset();

  TimePoint watermark() const { return watermark_; }
  const std::vector<StreamingViolation>& violations() const {
    return violations_;
  }
  const StreamingStats& stats() const { return stats_; }
  std::size_t window_size() const { return window_size_; }

 private:
  static constexpr std::uint32_t kNoRead = 0xffff'ffff;
  // A write plus the reads of its value, with its raw zone.
  struct Cluster {
    Operation write;
    std::uint64_t seq = 0;  // arrival index of the write
    // Its reads in arrival order: a chain through read_nodes_.
    std::uint32_t first_read = kNoRead;
    std::uint32_t last_read = kNoRead;
    std::uint32_t read_count = 0;
    TimePoint min_finish = kTimeMax;
    TimePoint max_start = kTimeMin;
    bool settled = false;  // write finished before watermark - horizon
    bool live = false;

    TimePoint low() const { return std::min(min_finish, max_start); }
    TimePoint high() const { return std::max(min_finish, max_start); }
    bool forward() const { return min_finish < max_start; }
  };
  struct ReadNode {
    Operation op;
    std::uint32_t next;
  };
  // Min-heap entry: a time key for the cluster in `slot`, whose write
  // arrived as `seq` (slots are recycled; seq tells stale entries).
  struct HeapEntry {
    TimePoint key;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // An operation waiting in the window outside any cluster: a read
  // whose write has not arrived, or a write repeating a live value.
  struct Pending {
    std::uint64_t seq;
    Operation op;
  };

  // Starts the cluster of `write` (adopting its parked reads) and
  // returns its slot.
  std::uint32_t open_cluster(std::uint64_t seq, const Operation& write);
  void join(std::uint32_t slot, const Operation& read);
  // Appends `read` to the cluster's chain and widens its zone.
  void append_read(Cluster& cluster, const Operation& read);
  void clear_window();
  void flush_settled();
  TimePoint settle_threshold() const;
  TimePoint settle_line();
  TimePoint window_min_finish() const;
  void report_duplicates();
  void report_orphans();
  void decide_settled(TimePoint settle_line);
  // Decides and evicts chunk c of partition_.
  void decide_chunk(std::size_t c);
  void evict(std::uint32_t slot);

  StreamingOptions options_;
  std::vector<Cluster> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Every cluster's reads, chained per cluster. An evicted chain joins
  // the free chain whole, so a steady stream allocates nothing per
  // cluster (per-cluster buffers cost a malloc/free pair each, often
  // across pool threads).
  std::vector<ReadNode> read_nodes_;
  std::uint32_t free_read_ = kNoRead;
  std::unordered_map<Value, std::uint32_t> slot_of_value_;
  std::vector<HeapEntry> unsettled_by_finish_;  // write finish
  std::vector<HeapEntry> unsettled_by_low_;     // zone low, lazily pruned
  // Settled, not yet evicted: [0, settled_sorted_) sorted by (low, seq),
  // the tail settled since; settled_dirty_ when a late read moved one.
  std::vector<std::uint32_t> settled_;
  std::size_t settled_sorted_ = 0;
  bool settled_dirty_ = false;
  // The last sweep's survivors stay undecided until the settle line
  // passes this point.
  TimePoint wake_line_ = kTimeMin;
  std::vector<Pending> orphans_;  // parked reads, arrival order
  std::unordered_map<Value, std::uint32_t> orphans_per_value_;
  TimePoint orphan_min_finish_ = kTimeMax;  // earliest among orphans_
  std::vector<Pending> duplicates_;  // arrival order
  std::vector<Value> promote_;       // evicted values with a duplicate
  // Sweep scratch, kept to reuse capacity: the settled zones below the
  // line, tagged with their slots, and their partition.
  std::vector<Zone> zones_;
  ChunkPartition partition_;
  // Values of evicted writes, kept to tell a horizon violation from a
  // read without any write. It grows with the trace (one entry per
  // write), so it is an open-addressing set: ~15 bytes per value, a
  // third of a node-based set's.
  class ValueSet {
   public:
    void insert(Value value);
    bool contains(Value value) const;

   private:
    static constexpr Value kEmpty = std::numeric_limits<Value>::min();
    // Index of `value`'s slot, or of the empty slot it would take.
    std::size_t probe(Value value) const;

    std::vector<Value> slots_;  // power-of-two size; kEmpty = free
    std::size_t size_ = 0;
    bool has_empty_value_ = false;  // kEmpty itself was inserted
  };
  ValueSet evicted_write_values_;
  std::vector<StreamingViolation> violations_;
  StreamingStats stats_;
  std::size_t window_size_ = 0;
  std::uint64_t next_seq_ = 0;
  TimePoint watermark_ = kTimeMin;
  bool finished_ = false;
};

}  // namespace kav

#endif  // KAV_CORE_STREAMING_H
