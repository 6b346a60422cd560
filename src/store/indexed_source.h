// IndexedTraceSource: the TraceSource the trace store serves, and the
// one way to read a store's keys. Wraps one or more MappedSegments (one
// for a single indexed .kavb file opened via open_trace_source; several
// for a whole TraceStore, via TraceStore::open_source) two ways:
//
//   - as a TraceSource, pull() streams every record of every segment in
//     order (segment order; within a segment the v2 stream order, i.e.
//     block order: key-grouped, each key's own sequence in add()
//     order), zero-copy from the mappings -- full-trace Engine::verify
//     is unaffected (verdicts depend only on per-key order), and
//     Engine::monitor sees each key's stream in order, just not the
//     original cross-key interleaving;
//   - by key, stat / load_key answer from the segments' indexes
//     without decoding records (bloom filter, then key table, per
//     segment), key_count is kept rather than recounted, and load_key
//     materializes one key's History straight from its blocks --
//     Engine::verify with RunOptions::key_filter runs these
//     concurrently on pool workers, at a cost that does not grow with
//     the number of keys held.
//
// A key living in several segments is reassembled in segment order;
// within each segment, block order is add() order, so the concatenation
// equals the key's subsequence of the full arrival-order stream.
#ifndef KAV_STORE_INDEXED_SOURCE_H
#define KAV_STORE_INDEXED_SOURCE_H

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ingest/trace_source.h"
#include "store/mapped_segment.h"

namespace kav {

// Where a store's source counts its bloom probes: the store's
// kav_store_bloom_{checks,skips,false_positives}_total counters. All
// null (count nothing) for a source opened from a bare file.
struct BloomCounters {
  obs::Counter* checks = nullptr;
  obs::Counter* skips = nullptr;
  obs::Counter* false_positives = nullptr;
};

class IndexedTraceSource final : public TraceSource {
 public:
  // Opens one segment file; throws std::runtime_error when the file
  // cannot be opened, is not a .kavb trace, or carries a corrupt
  // index, and std::invalid_argument when it is merely unindexed (v1
  // or unsealed v2) -- open_trace_source (ingest/trace_source.h) falls
  // back to sequential access instead.
  explicit IndexedTraceSource(const std::string& path);
  // Wraps already-open segments. Every segment must be indexed.
  // `label` is used by describe(). `key_count` is the number of
  // distinct keys across the segments when the caller already keeps it
  // (TraceStore does); otherwise it is counted here, once. Every
  // per-key lookup below counts into `bloom`: one add per counter per
  // call, so a lookup costs three atomic adds whatever the segment
  // count.
  IndexedTraceSource(std::vector<std::shared_ptr<const MappedSegment>> segments,
                     std::string label,
                     std::optional<std::size_t> key_count = std::nullopt,
                     BloomCounters bloom = {});

  Pull pull(KeyedChunk& chunk, std::size_t max_ops,
            std::chrono::milliseconds wait) override;
  std::string describe() const override;

  // Per-key lookups. Each consults every segment's bloom filter, then
  // its key table where the filter passes; none decodes a record, and
  // none depends on the pull() cursor. All are const and safe to call
  // concurrently: Engine::verify calls load_key from pool workers.
  //
  // Aggregate stat across segments; nullopt when the key is absent
  // everywhere.
  std::optional<KeyStat> stat(const std::string& key) const;
  // Decodes `key`'s operations (in arrival order) into a History.
  // Zero-copy: index -> BlockCursor -> OperationColumns -> History,
  // which adopts the columns in place; no Operation row is built (see
  // store/block_cursor.h for the equivalence contract).
  History load_key(const std::string& key) const;
  // The reference decode path (MappedSegment::read_key row-at-a-time
  // into a vector<Operation>). Kept for the differential fuzz tests
  // and benches that prove load_key bit-identical; same result, same
  // errors, more allocation.
  History load_key_materializing(const std::string& key) const;

  // Distinct keys the source holds: Report::keys_available.
  std::size_t key_count() const { return key_count_; }
  std::uint64_t total_records() const;
  // Every key, sorted: a full listing of every segment's key table, for
  // callers that walk the whole store. Queries never need it.
  std::vector<std::string> selectable_keys() const;
  const std::vector<std::shared_ptr<const MappedSegment>>& segments() const {
    return segments_;
  }

 private:
  // Calls `hit(segment, stat)` for every segment whose index holds
  // `key`, in segment order, and counts the probes into bloom_.
  template <typename Hit>
  void lookup(const std::string& key, Hit&& hit) const;
  // The segments whose index holds `key`, in segment order; `records`
  // is its operation count across them. One lookup.
  std::vector<const MappedSegment*> holders(const std::string& key,
                                            std::uint64_t& records) const;

  std::vector<std::shared_ptr<const MappedSegment>> segments_;
  std::string label_;
  std::size_t key_count_ = 0;
  BloomCounters bloom_;
  // pull() state: current segment and its walk.
  std::size_t segment_index_ = 0;
  std::optional<SegmentWalk> walk_;
};

// Distinct keys across `segments`: one pass over their key tables.
std::size_t distinct_key_count(
    const std::vector<std::shared_ptr<const MappedSegment>>& segments);

}  // namespace kav

#endif  // KAV_STORE_INDEXED_SOURCE_H
