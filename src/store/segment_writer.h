// SegmentWriter: the streaming writer of .kavb v2.1 "segments" -- the
// persistent unit of the trace store (store/trace_store.h). Where
// BinaryTraceWriter (ingest/binary_trace.h) emits records in arrival
// order interleaved across keys, SegmentWriter regroups them into
// per-key *blocks* (single-key chunks) and appends a key-table +
// block-index footer, so an indexed reader (store/mapped_segment.h)
// can later decode exactly one key's operations without touching the
// rest of the file -- the out-of-core selective-verification path of
// kav::Engine (RunOptions::key_filter). The v2.1 footer additionally
// carries a per-block CRC32C page (verified on every indexed read), a
// per-segment bloom page (store/bloom.h) for cross-segment key skips,
// and a whole-payload checksum; the chunk stream itself is bit-for-bit
// v2, so sequential readers are unaffected.
//
// Within a key, block order equals add() order, so a per-key history
// reassembled from the index is bit-identical to one filtered out of
// an arrival-order stream; across keys, on-disk order is flush order
// (verification splits by key, so it never matters, and sequential
// readers see a legal v1-style chunk stream either way).
//
// Memory: O(keys + buffered records). Each key buffers at most
// records_per_block operations; when the total buffered across keys
// exceeds max_buffered_records, every pending buffer is flushed
// (memtable style, amortized O(1) per record even when keys far
// outnumber the cap), so wide key spaces cannot hold the writer's
// memory hostage.
#ifndef KAV_STORE_SEGMENT_WRITER_H
#define KAV_STORE_SEGMENT_WRITER_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "history/keyed_trace.h"
#include "util/time_types.h"

namespace kav {

struct SegmentWriterOptions {
  // Records per block: the flush threshold of each key's buffer and
  // the granularity of selective reads. Clamped to the reader's chunk
  // sanity cap.
  std::size_t records_per_block = 4096;
  // Total buffered records across all keys before every pending block
  // is flushed early (bounds writer memory on wide key spaces).
  // Clamped to the reader's 2^20 per-chunk key cap, which keeps the
  // prefix key introduction of any single flush within what every
  // reader accepts.
  std::size_t max_buffered_records = 1 << 16;
};

// What finish() reports about the segment it just sealed.
struct SegmentStats {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::size_t keys = 0;
  std::uint64_t bytes = 0;  // total file size, footer included
};

class SegmentWriter {
 public:
  // Writes the v2 file header immediately. The stream must be binary.
  explicit SegmentWriter(std::ostream& out, SegmentWriterOptions options = {});
  // Flushes and writes the footer best-effort; call finish() explicitly
  // to observe stream errors and obtain SegmentStats.
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  // Buffers one operation. Throws std::invalid_argument on
  // start >= finish or a key longer than 65535 bytes, std::logic_error
  // after finish().
  void add(std::string_view key, const Operation& op);
  void add(const KeyedTrace& trace);

  // Flushes every pending block and writes the key-table + index
  // footer. Idempotent; after it returns, add() throws.
  SegmentStats finish();

  std::size_t key_count() const { return keys_.size(); }

 private:
  struct KeyState {
    std::string name;
    std::string pending;                // encoded records, not yet flushed
    std::uint32_t pending_records = 0;  // count behind `pending`
    TimePoint pending_min_start = 0;    // block time bounds (valid when
    TimePoint pending_max_finish = 0;   // pending_records > 0)
    std::uint64_t records = 0;          // flushed + pending
  };
  struct BlockEntry {
    std::uint32_t key_id = 0;
    std::uint64_t offset = 0;  // absolute offset of the block's chunk header
    std::uint32_t records = 0;
    TimePoint min_start = 0;
    TimePoint max_finish = 0;
    std::uint32_t crc = 0;  // CRC32C of the block's full chunk bytes
  };

  // Emits `key_id`'s pending records as one single-key chunk. Key table
  // ids are assigned in first-add order, but blocks flush in any order,
  // and the sequential reader's table grows in chunk order -- so the
  // chunk introduces every not-yet-introduced id <= key_id, keeping the
  // introduced set a prefix of the id space at all times.
  void flush_block(std::uint32_t key_id);
  void write_raw(const std::string& bytes);

  std::ostream* out_;
  SegmentWriterOptions options_;
  std::unordered_map<std::string, std::uint32_t> key_ids_;
  std::vector<KeyState> keys_;  // indexed by key id (= first-add order)
  std::uint32_t introduced_keys_ = 0;  // ids [0, introduced_keys_) are on disk
  std::vector<BlockEntry> blocks_;
  std::uint64_t offset_ = 0;  // bytes written so far
  std::uint64_t records_added_ = 0;
  std::size_t buffered_records_ = 0;
  bool finished_ = false;
  SegmentStats stats_;  // valid once finished_
};

}  // namespace kav

#endif  // KAV_STORE_SEGMENT_WRITER_H
