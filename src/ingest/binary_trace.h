// The compact binary trace format (.kavb) -- the ingest-side answer to
// the text format's parse cost. A trace from a real storage system is
// millions of operations; reading them through a line parser costs more
// than deciding 2-atomicity does, so the binary format stores
// fixed-width little-endian records behind a versioned header, interns
// repeated keys into an id table, and groups records into chunks so
// the writer streams in O(chunk) memory.
//
// Byte-for-byte layout (all integers little-endian): docs/FORMATS.md.
// In short:
//
//   file   := header chunk* [footer]                   -- footer: v2 only
//   header := magic 'KAVB' (u32) | version (u16) | reserved (u16)
//   chunk  := new_keys (u32) | records (u32)
//             new_keys * { length (u16) | bytes }      -- key table delta
//             records  * { key_id (u32) | start (i64) | finish (i64) |
//                          value (i64) | client (i32) | type (u8) }
//
// Key ids are file-global and assigned in order of first appearance; a
// chunk carries only the table entries it introduces, so appending
// chunks never rewrites earlier bytes. The reader detects truncation,
// bad magic/version, out-of-range key ids, bad type bytes, and
// non-increasing intervals, and reports the absolute byte offset.
//
// Format v2 (the trace-store segment format, src/store/) keeps the
// header and chunk encoding bit-for-bit and appends a footer: a
// sentinel u32 = 0xFFFFFFFF where the next chunk's new_keys would be
// (no legal chunk can declare that many keys, so a sequential reader
// stops cleanly), the full key table, a per-key block index (one entry
// per single-key chunk: absolute offset, record count, time bounds),
// and a fixed 12-byte trailer { payload_bytes u64 | magic 'KAVI' u32 }
// so an indexed reader (store/mapped_segment.h) can seek from the end
// and decode only the blocks of requested keys.
//
// This header holds the format constants and the writers. The one
// decoder of both versions is store/mapped_segment.h; read a file with
// drain(*open_trace_source(path)) (ingest/trace_source.h). v2 files
// with a missing footer remain sequentially readable.
//
// Both formats are lossless for any trace the text format accepts
// (property-tested by tests/ingest_fuzz_test.cpp); the binary format
// additionally allows keys containing whitespace, which the text
// format cannot express.
#ifndef KAV_INGEST_BINARY_TRACE_H
#define KAV_INGEST_BINARY_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>

#include "history/keyed_trace.h"
#include "ingest/wire.h"

namespace kav {

inline constexpr std::uint32_t kBinaryTraceMagic = 0x4256414Bu;  // "KAVB"
inline constexpr std::uint16_t kBinaryTraceVersion = 1;
// Format v2 = v1 chunk stream + key-table/block-index footer; written
// by store/segment_writer.h, random-accessed by store/mapped_segment.h.
inline constexpr std::uint16_t kBinaryTraceVersion2 = 2;
inline constexpr std::size_t kBinaryTraceHeaderBytes = 8;
inline constexpr std::size_t kBinaryTraceRecordBytes = 33;
// Reader sanity caps: a corrupt chunk header cannot make the reader
// allocate unbounded memory.
inline constexpr std::uint32_t kBinaryTraceMaxChunkRecords = 1u << 24;
inline constexpr std::uint32_t kBinaryTraceMaxChunkKeys = 1u << 20;

// v2 footer framing. The sentinel occupies the new_keys position of a
// would-be next chunk and exceeds kBinaryTraceMaxChunkKeys, so v1-style
// sequential decoding of the record stream terminates exactly where the
// footer begins. The trailer is the fixed last 12 bytes of the file:
// payload_bytes (u64, counting key table + index, i.e. everything
// between sentinel and trailer) then the footer magic.
inline constexpr std::uint32_t kBinaryTraceFooterSentinel = 0xFFFFFFFFu;
inline constexpr std::uint32_t kBinaryTraceFooterMagic = 0x4956414Bu;  // "KAVI"
// v2.1 footer magic ("KAVJ"): same header and chunk stream as v2, but
// the footer payload carries two extra integrity pages after the block
// index -- a per-block CRC32C page and a per-segment bloom page -- and
// ends with a CRC32C of the whole payload. The header version stays 2
// (sequential readers are unaffected); indexed readers dispatch on the
// trailer magic, so v2-only readers reject v2.1 footers cleanly instead
// of misparsing the extra pages. Byte spec: docs/FORMATS.md.
inline constexpr std::uint32_t kBinaryTraceFooterMagic21 = 0x4A56414Bu;
inline constexpr std::size_t kBinaryTraceTrailerBytes = 12;
// One index entry: key_id u32 | offset u64 | records u32 | min_start
// i64 | max_finish i64.
inline constexpr std::size_t kBinaryTraceBlockEntryBytes = 32;

// Record codec shared by the chunked stream writer below and the
// store's SegmentWriter / MappedSegment. Encoding validation
// (start < finish, key length) is validate_record(); decoding leaves
// key-id range and interval checks to the caller, whose error messages
// carry reader-specific byte offsets.
inline void append_record(std::string& buffer, std::uint32_t key_id,
                          const Operation& op) {
  wire::append_u32(buffer, key_id);
  wire::append_i64(buffer, op.start);
  wire::append_i64(buffer, op.finish);
  wire::append_i64(buffer, op.value);
  wire::append_u32(buffer, static_cast<std::uint32_t>(op.client));
  buffer.push_back(op.is_write() ? '\x01' : '\x00');
}

// Throws std::invalid_argument on start >= finish or a key longer than
// 65535 bytes (the u16 length field); `who` names the writer.
void validate_record(const char* who, std::string_view key,
                     const Operation& op);

// Streaming writer: add() operations in any key order; records are
// buffered and emitted as one chunk every `records_per_chunk` adds (or
// on flush()). Keys are interned on first use; the entry rides in the
// chunk that introduces it. The destructor flushes best-effort, but
// call flush() explicitly to observe stream errors.
class BinaryTraceWriter {
 public:
  // Writes the file header immediately. The stream must be binary.
  explicit BinaryTraceWriter(std::ostream& out,
                             std::size_t records_per_chunk = 4096);
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  // Throws std::invalid_argument on start >= finish or a key longer
  // than 65535 bytes (the u16 length field).
  void add(std::string_view key, const Operation& op);
  void add(const KeyedTrace& trace);

  // Emits buffered records as a chunk (no-op when empty).
  void flush();

  std::size_t key_count() const { return key_ids_.size(); }

 private:
  std::ostream* out_;
  std::size_t records_per_chunk_;
  std::unordered_map<std::string, std::uint32_t> key_ids_;
  std::string pending_keys_;     // encoded table delta for the open chunk
  std::uint32_t pending_key_count_ = 0;
  std::string pending_records_;  // encoded records for the open chunk
  std::uint32_t pending_record_count_ = 0;
};

// Whole-trace writers, mirroring history/serialization.h. `version`
// selects the on-disk format: kBinaryTraceVersion (chunked stream,
// records_per_chunk-sized chunks in arrival order) or
// kBinaryTraceVersion2 (indexed segment via store/segment_writer.h;
// records grouped into per-key blocks of at most records_per_chunk,
// key-table + index footer appended). drain(*open_trace_source(path))
// reads either back.
void write_binary_trace(std::ostream& out, const KeyedTrace& trace,
                        std::size_t records_per_chunk = 4096,
                        std::uint16_t version = kBinaryTraceVersion);
void write_binary_trace_file(const std::string& path, const KeyedTrace& trace,
                             std::uint16_t version = kBinaryTraceVersion);

// Format sniffing: true iff the file starts with the .kavb magic. To
// read a file of either format, use drain(*open_trace_source(path))
// (ingest/trace_source.h).
bool is_binary_trace_file(const std::string& path);

}  // namespace kav

#endif  // KAV_INGEST_BINARY_TRACE_H
