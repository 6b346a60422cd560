// The zero-copy hot path from a MappedSegment's index to a decidable
// History, and the one per-key record decoder behind
// IndexedTraceSource::load_key: BlockCursor walks exactly one key's
// blocks and bulk-decodes its records into OperationColumns
// (decode_columns()) in one pass per block: each record writes all
// five columns and folds read_key's checks (key id, type byte,
// start < finish) into one flag per block, and History adopts the
// columns in place. No std::vector<Operation> exists anywhere on this
// path.
//
// Equivalence contract: for any byte stream, valid or corrupt,
// decode_columns yields exactly what MappedSegment::read_key (the
// row-at-a-time reference) yields -- the same operations in the same
// (add()) order, or a std::runtime_error pointing at the same byte
// offset with the same message. Corruption handling works by falling
// back to read_key's per-record walk, so the exact error precedence of
// read_key (first failing record; within a record type byte, then
// interval, then foreign key id) is reproduced by construction, not
// re-implemented. tests/block_cursor_test.cpp checks every single-byte
// corruption, and tests/store_fuzz_test.cpp enforces verdict/Report
// bit-identity over the two paths; this is the safety invariant that
// makes the fast path trustworthy (see docs/ALGORITHMS.md).
//
// Thread-safety: like read_key, a BlockCursor only reads the immutable
// mapping, so many cursors over one segment may run concurrently; a
// single cursor is not itself thread-safe.
#ifndef KAV_STORE_BLOCK_CURSOR_H
#define KAV_STORE_BLOCK_CURSOR_H

#include <cstdint>
#include <string_view>

#include "history/history.h"
#include "store/mapped_segment.h"

namespace kav {

class BlockCursor {
 public:
  // Positions at the first record of `key`. An absent key yields an
  // exhausted cursor; an unindexed segment throws std::logic_error
  // (same contract as read_key).
  BlockCursor(const MappedSegment& segment, std::string_view key);

  // Records not yet decoded, from the index (no decoding).
  std::uint64_t remaining() const { return remaining_; }

  // Decodes every remaining record, appending one element per record
  // to each column of `out` (in add() order), then leaves the cursor
  // exhausted.
  void decode_columns(OperationColumns& out);

 private:
  // Enters blocks until one with records remains; false when done.
  bool ensure_block();
  [[noreturn]] void rescan_corrupt_block() const;

  const MappedSegment* segment_ = nullptr;
  std::uint32_t block_ = 0;       // current index into segment_->blocks_
  std::uint32_t block_end_ = 0;   // one past the key's last block
  std::uint64_t record_off_ = 0;  // next record's file offset
  std::uint32_t block_left_ = 0;  // records left in the current block
  std::uint64_t remaining_ = 0;   // records left across all blocks
};

}  // namespace kav

#endif  // KAV_STORE_BLOCK_CURSOR_H
