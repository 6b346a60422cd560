#include "store/block_cursor.h"

#include <stdexcept>

#include "ingest/binary_trace.h"
#include "ingest/wire.h"

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
  // decode_columns rejected the current block. Re-walk it record by
  // record from the cursor position with read_key's validator, which
  // throws at the first bad record with read_key's exact offset and
  // message. The walk cannot succeed: the fused pass only rejects
  // records those checks also reject.
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
      "BlockCursor: decode_columns rejected a block the record walk "
      "accepts");
}

void BlockCursor::decode_columns(OperationColumns& out) {
  out.reserve(out.size() + remaining_);
  while (ensure_block()) {
    const std::size_t n = block_left_;
    const std::uint32_t key_id = segment_->blocks_[block_ - 1].key_id;
    const unsigned char* record = segment_->at(record_off_);
    const std::size_t at = out.size();
    out.starts.resize(at + n);
    out.finishes.resize(at + n);
    out.values.resize(at + n);
    out.clients.resize(at + n);
    out.types.resize(at + n);
    TimePoint* starts = out.starts.data() + at;
    TimePoint* finishes = out.finishes.data() + at;
    Value* values = out.values.data() + at;
    ClientId* clients = out.clients.data() + at;
    unsigned char* types = out.types.data() + at;

    // One pass over the block's records straight off the mapping: each
    // record writes all five columns and folds read_key's three checks
    // into one flag. A failed block drops to the per-record re-walk for
    // read_key's exact error (offset precedence included -- the re-walk
    // stops at the first bad record whatever mix of defects the block
    // has).
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i, record += kBinaryTraceRecordBytes) {
      const TimePoint start = wire::load_i64(record + 4);
      const TimePoint finish = wire::load_i64(record + 12);
      const unsigned char type = record[32];
      starts[i] = start;
      finishes[i] = finish;
      values[i] = wire::load_i64(record + 20);
      clients[i] = static_cast<ClientId>(wire::load_u32(record + 28));
      types[i] = type;
      ok &= wire::load_u32(record) == key_id;
      ok &= type <= 1;
      ok &= start < finish;
    }
    if (!ok) {
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
