// MappedSegment: a zero-copy, memory-mapped reader of one .kavb file.
// The whole file is mapped read-only (falling back to a heap buffer on
// platforms or filesystems where mmap fails); the v2 key-table/index
// footer is parsed into string_views and block extents pointing
// straight into the mapping, so opening a multi-gigabyte segment costs
// O(keys + blocks), not O(records), and extracting one key decodes
// only that key's blocks -- the paper's audit-one-register workload
// without decoding the other million.
//
// Reads are const and touch only immutable mapping state, so many pool
// workers can decode different keys of one MappedSegment concurrently
// (the Engine's index-driven sharding does exactly that).
//
// MappedSegment is the one decoder of .kavb bytes: open_trace_source
// (ingest/trace_source.h) maps every binary file through it. v1 files
// (and v2 files whose footer is absent, e.g. a writer died mid-seal)
// open with indexed() == false: sequential access via Cursor still
// works, selective access does not.
//
// v2.1 footers (trailer magic 'KAVJ') add integrity pages: a CRC32C
// per block, verified transparently on every read path (read_key,
// BlockCursor, the sequential Cursor) before any record byte is
// trusted, and a per-segment bloom filter answering maybe_contains()
// without a key-table probe. Old 'KAVI' footers still open, with
// has_integrity() == false and maybe_contains() always true.
#ifndef KAV_STORE_MAPPED_SEGMENT_H
#define KAV_STORE_MAPPED_SEGMENT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "history/keyed_trace.h"
#include "obs/metrics.h"
#include "store/bloom.h"
#include "util/time_types.h"

namespace kav {

// Aggregate per-key statistics from the index -- available without
// decoding a single record, which is what lets the verification
// pipeline budget and shard work before reading anything.
struct KeyStat {
  std::uint64_t records = 0;
  std::uint32_t blocks = 0;
  TimePoint min_start = 0;
  TimePoint max_finish = 0;
};

struct MappedSegmentOptions {
  // Verify each block's CRC page entry before decoding it (v2.1
  // segments only; a no-op on files without integrity pages). Off
  // exists solely so bench_store can price the check and
  // block_cursor_test can feed damaged records to the decoders --
  // every product path leaves it on.
  bool verify_block_crc = true;
  // Incremented once per detected block-checksum mismatch, on every
  // read path (read_key, BlockCursor, the sequential Cursor), just
  // before the read throws. TraceStore wires this to its registry's
  // kav_store_crc_verify_failures_total so corruption is visible to a
  // scraper even when the thrown error is swallowed upstream. The
  // counter must outlive the segment; nullptr disables the hook.
  obs::Counter* crc_failures = nullptr;
};

class MappedSegment {
 public:
  // Maps the file and parses header + footer. Throws std::runtime_error
  // on open failure, bad magic/version, or a corrupt index (trailer
  // magic present but sentinel/sizes/offsets/checksum inconsistent --
  // including any block offset or extent pointing past the record
  // region).
  explicit MappedSegment(const std::string& path,
                         MappedSegmentOptions options = {});
  ~MappedSegment();

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  const std::string& path() const { return path_; }
  std::size_t size_bytes() const { return size_; }
  std::uint16_t version() const { return version_; }
  bool indexed() const { return indexed_; }
  // True when the footer carries the v2.1 integrity pages (per-block
  // CRC + bloom). Legacy 'KAVI' segments are readable but unverified.
  bool has_integrity() const { return has_integrity_; }

  // Index accessors; all require indexed() (they return empty/null/0
  // otherwise, they do not throw).
  std::size_t key_count() const { return key_names_.size(); }
  // Keys in table (id) order -- the order of first flush to disk.
  const std::vector<std::string_view>& keys() const { return key_names_; }
  bool contains(std::string_view key) const;
  const KeyStat* stat(std::string_view key) const;  // nullptr when absent
  // Bloom precheck: false means the key is definitively absent; true
  // means "probe the table" (always true for segments without a
  // filter). The probe is hashed once by the caller and reused across
  // every segment -- the cheap half of cross-segment lookups.
  bool maybe_contains(const BloomProbe& probe) const;
  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t block_count() const { return blocks_.size(); }

  // Decodes only `key`'s blocks, in add() order. Returns an empty
  // vector for an absent key. Throws std::logic_error when
  // !indexed(), std::runtime_error on corrupt block bytes.
  std::vector<Operation> read_key(std::string_view key) const;

  // Sequential zero-copy walk over the whole record stream (works for
  // v1 and unindexed files too), naming each record by its key-table
  // id. Throws std::runtime_error naming the byte offset on malformed
  // input.
  class Cursor {
   public:
    // The next record and its key-table id; false at the end.
    bool next(KeyId& key_id, Operation& op);
    // The name of a table id the cursor has read a record of; the view
    // points into the mapping and stays valid for the segment's
    // lifetime.
    std::string_view key(KeyId key_id) const { return keys_[key_id]; }
    // Key-table entries introduced so far.
    std::size_t key_count() const { return keys_.size(); }
    // Offset of the next unread byte.
    std::uint64_t offset() const { return offset_; }

   private:
    friend class MappedSegment;
    explicit Cursor(const MappedSegment* segment);
    const MappedSegment* segment_;
    std::uint64_t offset_;               // next unread byte
    std::vector<std::string_view> keys_; // table as introduced so far
    std::uint32_t chunk_records_ = 0;    // records left in current chunk
  };
  Cursor cursor() const { return Cursor(this); }

  // Returns the resident pages wholly below `offset` to the kernel, so
  // a single pass over a large file need not keep all of it in memory.
  // A later read of those bytes refaults them from the
  // file, so views stay valid. Only for a reader that owns the mapping
  // outright: shared store segments serve concurrent index reads,
  // which would refault what this drops. No-op without mmap.
  void release_below(std::uint64_t offset);

  // Deep scan for TraceStore::fsck(): re-validates every block's
  // structure and checksum, decodes every record, and self-checks the
  // bloom filter (each table key must pass the segment's own filter).
  // Appends one human-readable line per problem to `errors` and keeps
  // going; returns the number of records successfully decoded.
  std::uint64_t verify_integrity(std::vector<std::string>& errors) const;

 private:
  friend class BlockCursor;  // store/block_cursor.h: zero-copy key reads

  struct BlockEntry {
    std::uint32_t key_id = 0;
    std::uint64_t offset = 0;
    std::uint32_t records = 0;
    TimePoint min_start = 0;
    TimePoint max_finish = 0;
    std::uint32_t crc = 0;  // CRC page entry (v2.1; 0 when absent)
  };
  struct KeyEntry {
    KeyStat stat;
    // Range into blocks_ (sorted by key id, offsets ascending within).
    std::uint32_t first_block = 0;
    std::uint32_t block_count = 0;
  };

  const unsigned char* at(std::uint64_t offset) const { return data_ + offset; }
  [[noreturn]] void fail(std::uint64_t offset, const std::string& what) const;
  void parse_footer();
  // Decodes the 33-byte record at `offset` (caller bounds-checks),
  // validating type byte and interval; returns the record's key id.
  std::uint32_t decode_record(std::uint64_t offset, Operation& op) const;
  // Validates `block`'s chunk header (record count against the index,
  // introduced-key entries, record extent) and returns the offset of
  // its first record. Shared by read_key and BlockCursor so both paths
  // reject corruption with identical errors.
  std::uint64_t block_records_begin(const BlockEntry& block) const;
  // Walks `count` key-table entries of a chunk from `off`, bounds-checked
  // against the record region; appends each key to `keys` when non-null.
  // Returns the offset past the entries.
  std::uint64_t walk_key_entries(std::uint64_t off, std::uint32_t count,
                                 std::vector<std::string_view>* keys) const;
  // The v2.1 integrity gate shared by every read path: throws (and
  // counts in crc_failures) unless [begin, end) hashes to `stored`.
  void check_chunk_crc(std::uint64_t begin, std::uint64_t end,
                       std::uint32_t stored) const;
  void unmap() noexcept;

  std::string path_;
  MappedSegmentOptions options_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_base_ = nullptr;                 // non-null iff mmap succeeded
  std::uint64_t released_ = 0;               // release_below high-water mark
  std::vector<unsigned char> heap_fallback_; // used when mmap unavailable
  std::uint16_t version_ = 0;
  bool indexed_ = false;
  bool has_integrity_ = false;
  std::uint64_t records_end_ = 0;  // first byte past the last chunk
  std::uint64_t total_records_ = 0;
  std::vector<std::string_view> key_names_;  // id order, views into mapping
  std::unordered_map<std::string_view, std::uint32_t> key_ids_;
  std::vector<KeyEntry> key_entries_;        // parallel to key_names_
  std::vector<BlockEntry> blocks_;
  // v2.1 bloom page, pointing into the mapping.
  std::uint64_t bloom_m_bits_ = 0;
  std::uint32_t bloom_hashes_ = 0;
  const unsigned char* bloom_bits_ = nullptr;
  // (chunk offset, crc) sorted by offset: the sequential Cursor's view
  // of the CRC page (blocks_ is sorted by key id, not by position).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> chunk_crcs_;
};

}  // namespace kav

#endif  // KAV_STORE_MAPPED_SEGMENT_H
