#include "store/block_cursor.h"

#include <stdexcept>

#include "ingest/binary_trace.h"

namespace kav {

BlockCursor::BlockCursor(const MappedSegment& segment, std::string_view key)
    : segment_(&segment) {
  if (!segment.indexed_) {
    throw std::logic_error(
        "BlockCursor requires an indexed (v2) segment: " + segment.path_);
  }
  const auto it = segment.key_ids_.find(key);
  if (it == segment.key_ids_.end()) return;  // absent key: exhausted
  const MappedSegment::KeyEntry& ke = segment.key_entries_[it->second];
  block_ = ke.first_block;
  block_end_ = ke.first_block + ke.block_count;
  remaining_ = ke.stat.records;
}

bool BlockCursor::ensure_block() {
  while (block_left_ == 0) {
    if (block_ >= block_end_) return false;
    const MappedSegment::BlockEntry& block = segment_->blocks_[block_];
    record_off_ = segment_->block_records_begin(block);
    block_left_ = block.records;
    ++block_;
  }
  return true;
}

void BlockCursor::rescan_corrupt_block() const {
  // Some column scan rejected the current block. Re-walk it record by
  // record from the cursor position with the scalar validator, which
  // throws at the first bad record with read_key's exact offset and
  // message. The walk cannot succeed: the scans only report failures
  // the scalar checks also detect.
  std::uint64_t off = record_off_;
  const MappedSegment::BlockEntry& block = segment_->blocks_[block_ - 1];
  for (std::uint32_t r = 0; r < block_left_; ++r) {
    Operation scratch;
    const std::uint32_t key_id = segment_->decode_record(off, scratch);
    if (key_id != block.key_id) {
      segment_->fail(off, "foreign record (key id " + std::to_string(key_id) +
                              ") in block of key id " +
                              std::to_string(block.key_id));
    }
    off += kBinaryTraceRecordBytes;
  }
  throw std::logic_error(
      "BlockCursor: column validation rejected a block the scalar walk "
      "accepts (kernel bug)");
}

void BlockCursor::decode_columns(OperationColumns& out, simd::Level level) {
  out.reserve(out.size() + remaining_);
  std::vector<std::uint32_t> key_ids;  // per-block scratch, reused
  while (ensure_block()) {
    const std::size_t n = block_left_;
    const unsigned char* base = segment_->at(record_off_);
    const std::size_t at = out.size();
    out.starts.resize(at + n);
    out.finishes.resize(at + n);
    out.values.resize(at + n);
    out.clients.resize(at + n);
    out.types.resize(at + n);

    // Field-wise strided gathers straight off the mapping into the
    // column tails; no per-record materialization.
    simd::gather_i64_strided(base + 4, kBinaryTraceRecordBytes, n,
                             out.starts.data() + at, level);
    simd::gather_i64_strided(base + 12, kBinaryTraceRecordBytes, n,
                             out.finishes.data() + at, level);
    simd::gather_i64_strided(base + 20, kBinaryTraceRecordBytes, n,
                             out.values.data() + at, level);
    static_assert(sizeof(ClientId) == sizeof(std::uint32_t));
    simd::gather_u32_strided(
        base + 28, kBinaryTraceRecordBytes, n,
        reinterpret_cast<std::uint32_t*>(out.clients.data() + at), level);
    bool types_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char type = base[i * kBinaryTraceRecordBytes + 32];
      out.types[at + i] = type;
      types_ok &= type <= 1;
    }

    // Whole-block validation as column scans; any failure drops to the
    // scalar re-walk for the exact read_key error (offset precedence
    // included -- the re-walk stops at the first bad record whatever
    // mix of defects the block has).
    const MappedSegment::BlockEntry& block = segment_->blocks_[block_ - 1];
    key_ids.resize(n);
    simd::gather_u32_strided(base, kBinaryTraceRecordBytes, n, key_ids.data(),
                             level);
    if (!types_ok ||
        simd::first_mismatch_u32(key_ids.data(), n, block.key_id, level) != n ||
        simd::first_not_less_i64(out.starts.data() + at,
                                 out.finishes.data() + at, n, level) != n) {
      out.starts.resize(at);
      out.finishes.resize(at);
      out.values.resize(at);
      out.clients.resize(at);
      out.types.resize(at);
      rescan_corrupt_block();
    }

    record_off_ += static_cast<std::uint64_t>(n) * kBinaryTraceRecordBytes;
    block_left_ = 0;
    remaining_ -= n;
  }
}

}  // namespace kav
