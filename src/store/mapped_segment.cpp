#include "store/mapped_segment.h"

#if defined(__unix__) || defined(__APPLE__)
#define KAV_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ingest/binary_trace.h"
#include "util/crc32c.h"

namespace kav {

namespace {

using wire::load_u16;
using wire::load_u32;
using wire::load_u64;

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

void MappedSegment::fail(std::uint64_t offset, const std::string& what) const {
  throw std::runtime_error("segment " + path_ + ": error at byte " +
                           std::to_string(offset) + ": " + what);
}

void MappedSegment::unmap() noexcept {
#if KAV_STORE_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, size_);
    map_base_ = nullptr;
  }
#endif
  data_ = nullptr;
}

MappedSegment::MappedSegment(const std::string& path,
                             MappedSegmentOptions options)
    : path_(path), options_(options) {
#if KAV_STORE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size >= 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      if (size_ > 0) {
        void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base != MAP_FAILED) {
          map_base_ = base;
          data_ = static_cast<const unsigned char*>(base);
        }
      }
    }
    ::close(fd);
  }
#endif
  if (data_ == nullptr) {
    // mmap unavailable (platform, filesystem, or an empty file, which
    // cannot be mapped): fall back to reading into a heap buffer. The
    // rest of the class only sees (data_, size_).
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open segment: " + path);
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    in.seekg(0, std::ios::beg);
    size_ = end > 0 ? static_cast<std::size_t>(end) : 0;
    heap_fallback_.resize(size_);
    if (size_ > 0) {
      in.read(reinterpret_cast<char*>(heap_fallback_.data()),
              static_cast<std::streamsize>(size_));
      if (static_cast<std::size_t>(in.gcount()) != size_) {
        throw std::runtime_error("cannot read segment: " + path);
      }
    }
    data_ = heap_fallback_.data();
  }

  try {
    if (size_ < kBinaryTraceHeaderBytes) {
      fail(size_, "truncated header");
    }
    if (load_u32(at(0)) != kBinaryTraceMagic) {
      fail(0, "bad magic (not a .kavb trace)");
    }
    version_ = load_u16(at(4));
    if (version_ != kBinaryTraceVersion && version_ != kBinaryTraceVersion2) {
      fail(4, "unsupported format version " + std::to_string(version_));
    }
    records_end_ = size_;
    if (version_ == kBinaryTraceVersion2) parse_footer();
  } catch (...) {
    // The destructor will not run for a throwing constructor; release
    // the mapping before the exception leaves.
    unmap();
    throw;
  }
}

MappedSegment::~MappedSegment() { unmap(); }

void MappedSegment::parse_footer() {
  // Smallest indexed file: header, sentinel, empty payload (key count +
  // block count), trailer.
  const std::uint64_t min_size =
      kBinaryTraceHeaderBytes + 4 + 8 + kBinaryTraceTrailerBytes;
  if (size_ < min_size) return;  // no room for an index: plain v2 stream
  const std::uint64_t trailer = size_ - kBinaryTraceTrailerBytes;
  const std::uint32_t trailer_magic = load_u32(at(trailer + 8));
  if (trailer_magic != kBinaryTraceFooterMagic &&
      trailer_magic != kBinaryTraceFooterMagic21) {
    // No trailer magic: the segment was never sealed (writer died) or
    // the tail was truncated. Sequential access still works; selective
    // access reports unindexed rather than guessing.
    return;
  }
  has_integrity_ = trailer_magic == kBinaryTraceFooterMagic21;

  // From here on the file claims an index; inconsistency is corruption.
  const std::uint64_t payload_bytes = load_u64(at(trailer));
  // v2.1 payloads additionally carry the bloom header and the trailing
  // payload checksum even when empty.
  const std::uint64_t min_payload = has_integrity_ ? 4 + 4 + 12 + 4 : 8;
  if (payload_bytes < min_payload ||
      payload_bytes > trailer - kBinaryTraceHeaderBytes - 4) {
    fail(trailer, "truncated footer (payload of " +
                      std::to_string(payload_bytes) +
                      " bytes does not fit the file)");
  }
  const std::uint64_t payload = trailer - payload_bytes;
  const std::uint64_t sentinel = payload - 4;
  if (load_u32(at(sentinel)) != kBinaryTraceFooterSentinel) {
    fail(sentinel, "bad footer sentinel");
  }
  records_end_ = sentinel;

  // The payload checksum covers every page below, so footer bit-rot
  // (which could silently clear a bloom bit or redirect a block
  // offset) is rejected here, before any page is trusted.
  std::uint64_t pages_end = trailer;  // first byte past the parseable pages
  if (has_integrity_) {
    pages_end = trailer - 4;
    const std::uint32_t stored = load_u32(at(pages_end));
    const std::uint32_t computed = crc::crc32c(at(payload), payload_bytes - 4);
    if (stored != computed) {
      fail(pages_end, "footer checksum mismatch (stored " + hex32(stored) +
                          ", computed " + hex32(computed) + ")");
    }
  }

  std::uint64_t p = payload;
  const auto need = [&](std::uint64_t n, const char* what) {
    if (pages_end - p < n) {
      fail(p, std::string("truncated footer ") + what);
    }
  };

  need(4, "key count");
  const std::uint32_t key_count = load_u32(at(p));
  p += 4;
  // Like every other count in the format, validated BEFORE it sizes an
  // allocation: each table entry needs at least its 2 length bytes, so
  // a key_count the remaining payload cannot hold is corruption, not a
  // ~170 GB resize.
  if (key_count > (pages_end - p) / 2) {
    fail(p - 4, "truncated footer (key count " + std::to_string(key_count) +
                    " does not fit the remaining " +
                    std::to_string(pages_end - p) + " payload bytes)");
  }
  key_names_.reserve(key_count);
  key_ids_.reserve(key_count);
  key_entries_.resize(key_count);
  for (std::uint32_t id = 0; id < key_count; ++id) {
    need(2, "key length");
    const std::uint16_t length = load_u16(at(p));
    p += 2;
    need(length, "key bytes");
    const std::string_view name(reinterpret_cast<const char*>(at(p)), length);
    p += length;
    if (!key_ids_.emplace(name, id).second) {
      fail(p - length, "duplicate key in footer table");
    }
    key_names_.push_back(name);
  }

  need(4, "block count");
  const std::uint32_t block_count = load_u32(at(p));
  p += 4;
  // v2: the entries fill the remaining payload exactly. v2.1: each
  // entry also owns a CRC page slot, and the bloom header follows;
  // exact fill is re-checked after the bloom page is parsed.
  const std::uint64_t per_block =
      kBinaryTraceBlockEntryBytes + (has_integrity_ ? 4 : 0);
  const std::uint64_t fixed_tail = has_integrity_ ? 12 : 0;
  if (has_integrity_
          ? static_cast<std::uint64_t>(block_count) * per_block + fixed_tail >
                pages_end - p
          : static_cast<std::uint64_t>(block_count) *
                    kBinaryTraceBlockEntryBytes !=
                pages_end - p) {
    fail(p, "footer size mismatch (" + std::to_string(block_count) +
                " block entries do not fit the remaining " +
                std::to_string(pages_end - p) + " payload bytes)");
  }
  // The CRC page sits after the whole entry array, in the same order.
  const std::uint64_t crc_page =
      p + static_cast<std::uint64_t>(block_count) * kBinaryTraceBlockEntryBytes;
  blocks_.reserve(block_count);
  for (std::uint32_t i = 0; i < block_count; ++i) {
    BlockEntry entry;
    entry.key_id = load_u32(at(p));
    entry.offset = load_u64(at(p + 4));
    entry.records = load_u32(at(p + 12));
    entry.min_start = wire::load_i64(at(p + 16));
    entry.max_finish = wire::load_i64(at(p + 24));
    if (has_integrity_) {
      entry.crc = load_u32(at(crc_page + static_cast<std::uint64_t>(i) * 4));
    }
    if (entry.key_id >= key_count) {
      fail(p, "block entry key id " + std::to_string(entry.key_id) +
                  " out of range (table has " + std::to_string(key_count) +
                  " entries)");
    }
    if (entry.records == 0 || entry.records > kBinaryTraceMaxChunkRecords) {
      fail(p + 12,
           "implausible block record count " + std::to_string(entry.records));
    }
    // Ordered so no expression can wrap: records_end_ >= 8 here (the
    // sentinel sits at or past the end of the 8-byte header), offset
    // <= records_end_ - 8 is established before it feeds a
    // subtraction, and records is already capped at 2^24 so the
    // product stays far below 2^64.
    if (entry.offset < kBinaryTraceHeaderBytes ||
        entry.offset > records_end_ - 8 ||
        static_cast<std::uint64_t>(entry.records) * kBinaryTraceRecordBytes >
            records_end_ - entry.offset - 8) {
      fail(p + 4, "block at offset " + std::to_string(entry.offset) + " (" +
                      std::to_string(entry.records) +
                      " records) points past the end of the record region");
    }
    if (!blocks_.empty()) {
      const BlockEntry& prev = blocks_.back();
      if (entry.key_id < prev.key_id ||
          (entry.key_id == prev.key_id && entry.offset <= prev.offset)) {
        fail(p, "index entries not sorted by (key id, offset)");
      }
    }
    KeyEntry& ke = key_entries_[entry.key_id];
    if (ke.block_count == 0) {
      ke.first_block = static_cast<std::uint32_t>(blocks_.size());
      ke.stat.min_start = entry.min_start;
      ke.stat.max_finish = entry.max_finish;
    } else {
      ke.stat.min_start = std::min(ke.stat.min_start, entry.min_start);
      ke.stat.max_finish = std::max(ke.stat.max_finish, entry.max_finish);
    }
    ++ke.block_count;
    ++ke.stat.blocks;
    ke.stat.records += entry.records;
    total_records_ += entry.records;
    blocks_.push_back(entry);
    p += kBinaryTraceBlockEntryBytes;
  }

  if (has_integrity_) {
    p = crc_page + static_cast<std::uint64_t>(block_count) * 4;
    need(12, "bloom header");
    bloom_m_bits_ = load_u64(at(p));
    bloom_hashes_ = load_u32(at(p + 8));
    p += 12;
    if (bloom_m_bits_ % 8 != 0) {
      fail(p - 12, "bloom size " + std::to_string(bloom_m_bits_) +
                       " bits is not a whole number of bytes");
    }
    if ((bloom_m_bits_ == 0) != (bloom_hashes_ == 0) || bloom_hashes_ > 64) {
      fail(p - 4,
           "implausible bloom hash count " + std::to_string(bloom_hashes_));
    }
    if (bloom_m_bits_ / 8 != pages_end - p) {
      fail(p, "footer size mismatch (bloom page of " +
                  std::to_string(bloom_m_bits_ / 8) +
                  " bytes does not fill the remaining " +
                  std::to_string(pages_end - p) + " payload bytes)");
    }
    if (bloom_m_bits_ > 0) bloom_bits_ = at(p);
    // The sequential Cursor meets chunks in file order, not index
    // order: give it an offset-sorted view of the CRC page.
    chunk_crcs_.reserve(blocks_.size());
    for (const BlockEntry& block : blocks_) {
      chunk_crcs_.emplace_back(block.offset, block.crc);
    }
    std::sort(chunk_crcs_.begin(), chunk_crcs_.end());
  }
  indexed_ = true;
}

bool MappedSegment::contains(std::string_view key) const {
  return key_ids_.find(key) != key_ids_.end();
}

const KeyStat* MappedSegment::stat(std::string_view key) const {
  const auto it = key_ids_.find(key);
  return it == key_ids_.end() ? nullptr : &key_entries_[it->second].stat;
}

bool MappedSegment::maybe_contains(const BloomProbe& probe) const {
  // No filter (legacy v2, unindexed, v1): cannot rule the key out. A
  // v2.1 filter with m_bits == 0 holds no keys and rules everything
  // out -- bloom_maybe_contains handles that before touching bits.
  if (!has_integrity_) return true;
  return bloom_maybe_contains(bloom_bits_, bloom_m_bits_, bloom_hashes_, probe);
}

std::uint32_t MappedSegment::decode_record(std::uint64_t offset,
                                           Operation& op) const {
  const unsigned char* p = at(offset);
  const std::uint32_t key_id = load_u32(p);
  op.start = wire::load_i64(p + 4);
  op.finish = wire::load_i64(p + 12);
  op.value = wire::load_i64(p + 20);
  op.client = static_cast<ClientId>(load_u32(p + 28));
  const unsigned char type = p[32];
  if (type > 1) {
    fail(offset + 32, "bad record type byte " + std::to_string(type));
  }
  op.type = type == 1 ? OpType::write : OpType::read;
  if (op.start >= op.finish) {
    fail(offset + 4, "start must be < finish (got [" +
                         std::to_string(op.start) + ", " +
                         std::to_string(op.finish) + "))");
  }
  return key_id;
}

std::uint64_t MappedSegment::block_records_begin(const BlockEntry& block) const {
  std::uint64_t off = block.offset;
  // Offset + 8 is in bounds (validated at open); the key entries the
  // chunk introduces were not, so walk them checked.
  const std::uint32_t new_keys = load_u32(at(off));
  const std::uint32_t records = load_u32(at(off + 4));
  off += 8;
  if (records != block.records) {
    fail(block.offset + 4,
         "block record count " + std::to_string(records) +
             " disagrees with index entry (" + std::to_string(block.records) +
             ")");
  }
  if (new_keys > kBinaryTraceMaxChunkKeys) {
    fail(block.offset,
         "implausible chunk key count " + std::to_string(new_keys));
  }
  off = walk_key_entries(off, new_keys, nullptr);
  if (records_end_ - off <
      static_cast<std::uint64_t>(records) * kBinaryTraceRecordBytes) {
    fail(off, "block extent points past the end of the record region");
  }
  // Integrity gate for every indexed read (read_key here, BlockCursor
  // via ensure_block): the stored CRC covers the chunk exactly as
  // mapped -- header, key entries, records -- so no corrupt byte can
  // reach a decoder.
  if (has_integrity_ && options_.verify_block_crc) {
    check_chunk_crc(
        block.offset,
        off + static_cast<std::uint64_t>(records) * kBinaryTraceRecordBytes,
        block.crc);
  }
  return off;
}

std::uint64_t MappedSegment::walk_key_entries(
    std::uint64_t off, std::uint32_t count,
    std::vector<std::string_view>* keys) const {
  for (std::uint32_t k = 0; k < count; ++k) {
    if (records_end_ - off < 2) fail(off, "truncated key length");
    const std::uint16_t length = load_u16(at(off));
    off += 2;
    if (records_end_ - off < length) fail(off, "truncated key bytes");
    if (keys != nullptr) {
      keys->emplace_back(reinterpret_cast<const char*>(at(off)), length);
    }
    off += length;
  }
  return off;
}

void MappedSegment::check_chunk_crc(std::uint64_t begin, std::uint64_t end,
                                    std::uint32_t stored) const {
  const std::uint32_t computed = crc::crc32c(at(begin), end - begin);
  if (computed != stored) {
    if (options_.crc_failures != nullptr) options_.crc_failures->add(1);
    fail(begin, "block checksum mismatch (stored " + hex32(stored) +
                    ", computed " + hex32(computed) + ")");
  }
}

std::vector<Operation> MappedSegment::read_key(std::string_view key) const {
  if (!indexed_) {
    throw std::logic_error("MappedSegment::read_key requires an indexed (v2) "
                           "segment: " +
                           path_);
  }
  const auto it = key_ids_.find(key);
  if (it == key_ids_.end()) return {};
  const KeyEntry& ke = key_entries_[it->second];
  std::vector<Operation> ops;
  ops.reserve(ke.stat.records);
  for (std::uint32_t b = ke.first_block; b < ke.first_block + ke.block_count;
       ++b) {
    const BlockEntry& block = blocks_[b];
    std::uint64_t off = block_records_begin(block);
    for (std::uint32_t r = 0; r < block.records; ++r) {
      Operation op;
      const std::uint32_t key_id = decode_record(off, op);
      if (key_id != block.key_id) {
        fail(off, "foreign record (key id " + std::to_string(key_id) +
                      ") in block of key id " + std::to_string(block.key_id));
      }
      ops.push_back(op);
      off += kBinaryTraceRecordBytes;
    }
  }
  return ops;
}

// --- Cursor ----------------------------------------------------------------

MappedSegment::Cursor::Cursor(const MappedSegment* segment)
    : segment_(segment), offset_(kBinaryTraceHeaderBytes) {}

bool MappedSegment::Cursor::next(KeyId& key_id, Operation& op) {
  const MappedSegment& seg = *segment_;
  while (chunk_records_ == 0) {
    if (offset_ >= seg.records_end_) return false;  // clean end of stream
    if (seg.records_end_ - offset_ < 4) {
      seg.fail(offset_, "truncated chunk header");
    }
    const std::uint32_t new_keys = wire::load_u32(seg.at(offset_));
    if (seg.version_ >= kBinaryTraceVersion2 &&
        new_keys == kBinaryTraceFooterSentinel) {
      // Unindexed v2 (records_end_ == size_): the sentinel still marks
      // the end of the record stream.
      return false;
    }
    if (seg.records_end_ - offset_ < 8) {
      seg.fail(offset_, "truncated chunk header");
    }
    const std::uint32_t records = wire::load_u32(seg.at(offset_ + 4));
    if (new_keys > kBinaryTraceMaxChunkKeys) {
      seg.fail(offset_,
               "implausible chunk key count " + std::to_string(new_keys));
    }
    if (records > kBinaryTraceMaxChunkRecords) {
      seg.fail(offset_ + 4,
               "implausible chunk record count " + std::to_string(records));
    }
    if (new_keys == 0 && records == 0) {
      seg.fail(offset_, "empty chunk");
    }
    const std::uint64_t chunk_start = offset_;
    offset_ = seg.walk_key_entries(offset_ + 8, new_keys, &keys_);
    // v2.1: the whole chunk is covered by its CRC page slot, so the
    // sequential path is as tamper-evident as the indexed one. Every
    // chunk of a sealed v2.1 file IS a block, so an offset the index
    // does not know is itself corruption.
    if (seg.has_integrity_ && seg.options_.verify_block_crc) {
      if (seg.records_end_ - offset_ <
          static_cast<std::uint64_t>(records) * kBinaryTraceRecordBytes) {
        seg.fail(offset_, "truncated record payload");
      }
      const std::uint64_t chunk_end =
          offset_ + static_cast<std::uint64_t>(records) * kBinaryTraceRecordBytes;
      const auto it = std::lower_bound(
          seg.chunk_crcs_.begin(), seg.chunk_crcs_.end(),
          std::make_pair(chunk_start, std::uint32_t{0}));
      if (it == seg.chunk_crcs_.end() || it->first != chunk_start) {
        seg.fail(chunk_start, "chunk not present in the block index");
      }
      seg.check_chunk_crc(chunk_start, chunk_end, it->second);
    }
    chunk_records_ = records;
  }
  if (seg.records_end_ - offset_ < kBinaryTraceRecordBytes) {
    seg.fail(offset_, "truncated record payload");
  }
  key_id = seg.decode_record(offset_, op);
  if (key_id >= keys_.size()) {
    seg.fail(offset_, "key id " + std::to_string(key_id) +
                          " out of range (table has " +
                          std::to_string(keys_.size()) + " entries)");
  }
  offset_ += kBinaryTraceRecordBytes;
  --chunk_records_;
  return true;
}

void MappedSegment::release_below(std::uint64_t offset) {
#if KAV_STORE_HAVE_MMAP
  if (map_base_ == nullptr) return;
  static const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t end = std::min<std::uint64_t>(offset, size_) / page * page;
  if (end <= released_) return;
  // The range starts on a page boundary: map_base_ is page-aligned and
  // released_ is always a multiple of the page size.
  ::madvise(static_cast<unsigned char*>(map_base_) + released_,
            end - released_, MADV_DONTNEED);
  released_ = end;
#else
  (void)offset;
#endif
}

std::uint64_t MappedSegment::verify_integrity(
    std::vector<std::string>& errors) const {
  std::uint64_t records_ok = 0;
  if (!indexed_) {
    errors.push_back("segment " + path_ +
                     ": not indexed (unsealed or pre-v2 file)");
    return 0;
  }
  for (const BlockEntry& block : blocks_) {
    // One bad block must not hide the rest: collect its error and keep
    // scanning. block_records_begin re-runs the structural and CRC
    // checks; the record loop re-runs the decoder's.
    try {
      std::uint64_t off = block_records_begin(block);
      for (std::uint32_t r = 0; r < block.records; ++r) {
        Operation op;
        const std::uint32_t key_id = decode_record(off, op);
        if (key_id != block.key_id) {
          fail(off, "foreign record (key id " + std::to_string(key_id) +
                        ") in block of key id " + std::to_string(block.key_id));
        }
        off += kBinaryTraceRecordBytes;
        ++records_ok;
      }
    } catch (const std::exception& e) {
      errors.emplace_back(e.what());
    }
  }
  if (has_integrity_) {
    // Bloom self-check: a filter that misses its own table keys would
    // silently hide data from cross-segment lookups.
    for (const std::string_view name : key_names_) {
      if (!maybe_contains(bloom_probe(name))) {
        errors.push_back("segment " + path_ +
                         ": bloom filter misses table key \"" +
                         std::string(name) + "\"");
      }
    }
  }
  return records_ok;
}

}  // namespace kav
