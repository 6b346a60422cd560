// IndexedTraceSource: the TraceSource the trace store serves. Wraps
// one or more MappedSegments (one for a single indexed .kavb file
// opened via open_trace_source; several for a whole TraceStore) behind
// both faces of the source abstraction:
//
//   - as a plain TraceSource, next() streams every record of every
//     segment in order (segment order; within a segment the v2 stream
//     order, i.e. block order: key-grouped, each key's own sequence in
//     add() order), zero-copy from the mappings -- full-trace
//     Engine::verify is unaffected (verdicts depend only on per-key
//     order), and Engine::monitor sees each key's stream in order,
//     just not the original cross-key interleaving;
//   - as a SelectiveTraceSource, contains / key_op_count / load_key
//     answer from the segments' indexes without decoding records
//     (bloom filter, then key table, per segment), key_count is kept
//     rather than recounted, and load_key materializes one key's
//     History straight from its blocks -- Engine::verify with
//     RunOptions::key_filter runs these concurrently on pool workers,
//     at a cost that does not grow with the number of keys held.
//
// A key living in several segments is reassembled in segment order;
// within each segment, block order is add() order, so the concatenation
// equals the key's subsequence of the full arrival-order stream.
#ifndef KAV_STORE_INDEXED_SOURCE_H
#define KAV_STORE_INDEXED_SOURCE_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ingest/trace_source.h"
#include "store/mapped_segment.h"

namespace kav {

class IndexedTraceSource final : public SelectiveTraceSource {
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
  // (TraceStore does); otherwise it is counted here, once.
  IndexedTraceSource(std::vector<std::shared_ptr<const MappedSegment>> segments,
                     std::string label,
                     std::optional<std::size_t> key_count = std::nullopt);

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

  bool contains(const std::string& key) const override;
  std::size_t key_count() const override { return key_count_; }
  std::size_t key_op_count(const std::string& key) const override;
  // Zero-copy decode: index -> BlockCursor -> SIMD column gathers ->
  // History, with no intermediate Operation vector (see
  // store/block_cursor.h for the equivalence contract).
  History load_key(const std::string& key) const override;
  // The reference decode path (MappedSegment::read_key row-at-a-time
  // into a vector<Operation>). Kept for the differential fuzz tests
  // and benches that prove load_key bit-identical; same result, same
  // errors, more allocation.
  History load_key_materializing(const std::string& key) const;

  // Aggregate stat across segments; nullopt when the key is absent
  // everywhere. Like every per-key lookup here, consults each
  // segment's bloom filter before its key table.
  std::optional<KeyStat> stat(const std::string& key) const;
  std::uint64_t total_records() const;
  // Every key, sorted: a full listing of every segment's key table, for
  // callers that walk the whole store. Queries never need it.
  std::vector<std::string> selectable_keys() const;
  const std::vector<std::shared_ptr<const MappedSegment>>& segments() const {
    return segments_;
  }

 private:
  std::vector<std::shared_ptr<const MappedSegment>> segments_;
  std::string label_;
  std::size_t key_count_ = 0;
  // next() state: current segment and its cursor.
  std::size_t segment_index_ = 0;
  std::optional<MappedSegment::Cursor> cursor_;
};

// Distinct keys across `segments`: one pass over their key tables.
std::size_t distinct_key_count(
    const std::vector<std::shared_ptr<const MappedSegment>>& segments);

}  // namespace kav

#endif  // KAV_STORE_INDEXED_SOURCE_H
