// Unit tests for the trace-store subsystem (src/store/): the v2
// segment format end to end (SegmentWriter -> sequential reader and
// mmap-backed MappedSegment), per-key index statistics and selective
// reads, the TraceStore directory (append/import/reopen/compact), the
// IndexedTraceSource behind open_trace_source, Engine::verify with
// RunOptions::key_filter on both the index-backed fast path and the
// filtered-drain fallback, and the reader/footer error paths (empty
// file, bad magic, truncated header, truncated footer, index pointing
// past EOF).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "pipeline/thread_pool.h"
#include "scratch_file.h"
#include "store/bloom.h"
#include "store/indexed_source.h"
#include "store/mapped_segment.h"
#include "store/segment_writer.h"
#include "store/trace_store.h"
#include "util/crc32c.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

// A per-test scratch directory under the gtest temp root, removed on
// destruction so runs do not accumulate segment files.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("kav_store_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

KeyedTrace sample_trace() {
  KeyedTrace trace;
  trace.add("alpha", make_write(0, 10, 42, 7));
  trace.add("alpha", make_read(12, 20, 42));
  trace.add("beta", make_write(-5, 3, 1));
  trace.add("alpha", make_write(25, 30, 43, 0));
  trace.add("beta", make_read(4, 9, 1, 3));
  trace.add("gamma", make_write(100, 110, 9));
  return trace;
}

// v2 regroups records into per-key blocks, so traces are compared as
// per-key op sequences (the only order verification depends on), not
// as flat streams.
void expect_same_keyed_content(const KeyedTrace& a, const KeyedTrace& b) {
  const KeyedHistories sa = split_by_key(a);
  const KeyedHistories sb = split_by_key(b);
  ASSERT_EQ(sa.per_key.size(), sb.per_key.size());
  auto ita = sa.per_key.begin();
  auto itb = sb.per_key.begin();
  for (; ita != sa.per_key.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    ASSERT_EQ(ita->second.size(), itb->second.size()) << ita->first;
    for (std::size_t i = 0; i < ita->second.size(); ++i) {
      EXPECT_EQ(ita->second.op(static_cast<OpId>(i)),
                itb->second.op(static_cast<OpId>(i)))
          << ita->first << " op " << i;
    }
  }
}

// Every record of `segment` in stream order, via its sequential cursor.
KeyedTrace walk(const MappedSegment& segment) {
  KeyedTrace trace;
  MappedSegment::Cursor cursor = segment.cursor();
  KeyId key_id = 0;
  Operation op;
  while (cursor.next(key_id, op)) {
    trace.add(std::string(cursor.key(key_id)), op);
  }
  return trace;
}

std::vector<Operation> ops_of(const KeyedTrace& trace,
                              const std::string& key) {
  std::vector<Operation> ops;
  for (const KeyedOperation& kop : trace.ops) {
    if (kop.key == key) ops.push_back(kop.op);
  }
  return ops;
}

std::string write_v2_file(const TempDir& dir, const std::string& name,
                          const KeyedTrace& trace,
                          std::size_t records_per_block = 4096) {
  const std::string path = dir.file(name);
  std::ofstream out(path, std::ios::binary);
  SegmentWriterOptions options;
  options.records_per_block = records_per_block;
  SegmentWriter writer(out, options);
  writer.add(trace);
  writer.finish();
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const unsigned char* ubytes(const std::string& bytes, std::size_t at = 0) {
  return reinterpret_cast<const unsigned char*>(bytes.data()) + at;
}

// Offset of the footer payload (key_count onward), from the trailer's
// payload_bytes field.
std::size_t footer_payload_begin(const std::string& bytes) {
  const std::uint64_t payload_bytes =
      wire::load_u64(ubytes(bytes, bytes.size() - kBinaryTraceTrailerBytes));
  return bytes.size() - kBinaryTraceTrailerBytes -
         static_cast<std::size_t>(payload_bytes);
}

// Offset of the first block-index entry, by walking the payload's key
// table. The v2.1 integrity pages sit between the entries and the
// trailer, so the entries are no longer at a fixed distance from EOF.
std::size_t entries_begin_of(const std::string& bytes) {
  std::size_t p = footer_payload_begin(bytes);
  const std::uint32_t key_count = wire::load_u32(ubytes(bytes, p));
  p += 4;
  for (std::uint32_t i = 0; i < key_count; ++i) {
    p += 2 + wire::load_u16(ubytes(bytes, p));
  }
  return p + 4;  // skip block_count
}

// Re-seals the v2.1 payload checksum after a test tampers with bytes
// it covers -- without this, every such tamper reports "footer
// checksum mismatch" and the deeper structural checks go untested.
void fix_footer_crc(std::string& bytes) {
  const std::size_t payload = footer_payload_begin(bytes);
  const std::size_t crc_pos = bytes.size() - kBinaryTraceTrailerBytes - 4;
  const std::uint32_t crc =
      crc::crc32c(bytes.data() + payload, crc_pos - payload);
  for (int i = 0; i < 4; ++i) {
    bytes[crc_pos + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

// Rewrites a writer-produced v2.1 segment as a legacy v2 file (no
// integrity pages, 'KAVI' trailer) so pre-2.1 compatibility stays
// under test without binary fixtures in the tree.
std::string to_legacy_v2(const std::string& bytes) {
  const std::size_t payload = footer_payload_begin(bytes);
  const std::size_t entries = entries_begin_of(bytes);
  const std::uint32_t block_count = wire::load_u32(ubytes(bytes, entries - 4));
  const std::size_t entries_end =
      entries +
      static_cast<std::size_t>(block_count) * kBinaryTraceBlockEntryBytes;
  std::string out = bytes.substr(0, entries_end);
  const std::uint64_t payload_bytes = entries_end - payload;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((payload_bytes >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(
        static_cast<char>((kBinaryTraceFooterMagic >> (8 * i)) & 0xFF));
  }
  return out;
}

// --- Segment format --------------------------------------------------------

TEST(SegmentWriter, V2StreamIsReadableBySequentialReader) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("v2_sequential");
  const MappedSegment segment(write_v2_file(dir, "seg.kavb", trace));
  EXPECT_EQ(segment.version(), kBinaryTraceVersion2);
  // The cursor ignores the index: it walks the chunk stream and stops
  // at the footer sentinel.
  const KeyedTrace decoded = walk(segment);
  EXPECT_EQ(decoded.size(), trace.size());
  expect_same_keyed_content(trace, decoded);
}

TEST(SegmentWriter, SmallBlocksRoundTrip) {
  const KeyedTrace trace = sample_trace();
  for (const std::size_t block : {1u, 2u, 3u}) {
    std::stringstream buffer;
    write_binary_trace(buffer, trace, block, kBinaryTraceVersion2);
    expect_same_keyed_content(trace,
                              testing_util::read_trace_bytes(buffer.str()));
  }
}

TEST(SegmentWriter, EvictionUnderMemoryPressureKeepsPerKeyOrder) {
  KeyedTrace trace;
  for (int i = 0; i < 100; ++i) {
    trace.add("k" + std::to_string(i % 7),
              make_write(10 * i, 10 * i + 5, i, i % 3));
  }
  std::stringstream buffer;
  SegmentWriterOptions options;
  options.records_per_block = 1000;  // never hit: eviction must kick in
  options.max_buffered_records = 4;
  SegmentWriter writer(buffer, options);
  writer.add(trace);
  const SegmentStats stats = writer.finish();
  EXPECT_EQ(stats.records, 100u);
  EXPECT_EQ(stats.keys, 7u);
  EXPECT_GT(stats.blocks, 7u);  // eviction forced multiple blocks per key
  expect_same_keyed_content(trace,
                            testing_util::read_trace_bytes(buffer.str()));
}

TEST(SegmentWriter, AddAfterFinishThrows) {
  std::stringstream buffer;
  SegmentWriter writer(buffer);
  writer.add("k", make_write(0, 1, 1));
  writer.finish();
  EXPECT_THROW(writer.add("k", make_write(2, 3, 2)), std::logic_error);
  // finish() is idempotent.
  EXPECT_EQ(writer.finish().records, 1u);
}

TEST(SegmentWriter, ValidatesRecords) {
  std::stringstream buffer;
  SegmentWriter writer(buffer);
  EXPECT_THROW(writer.add("k", make_write(5, 5, 1)), std::invalid_argument);
  EXPECT_THROW(writer.add(std::string(70'000, 'x'), make_write(0, 1, 1)),
               std::invalid_argument);
}

TEST(MappedSegment, ParsesIndexAndServesSelectiveReads) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("mapped_basic");
  const std::string path = write_v2_file(dir, "seg.kavb", trace, 2);

  MappedSegment segment(path);
  EXPECT_TRUE(segment.indexed());
  EXPECT_EQ(segment.version(), kBinaryTraceVersion2);
  EXPECT_EQ(segment.key_count(), 3u);
  EXPECT_EQ(segment.total_records(), trace.size());

  const KeyStat* alpha = segment.stat("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->records, 3u);
  EXPECT_EQ(alpha->blocks, 2u);  // 3 records at block size 2
  EXPECT_EQ(alpha->min_start, 0);
  EXPECT_EQ(alpha->max_finish, 30);
  EXPECT_EQ(segment.stat("nope"), nullptr);
  EXPECT_FALSE(segment.contains("nope"));

  for (const std::string key : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(segment.read_key(key), ops_of(trace, key)) << key;
  }
  EXPECT_TRUE(segment.read_key("absent").empty());
  expect_same_keyed_content(trace, walk(segment));
}

TEST(MappedSegment, ReadsV1FilesUnindexed) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("mapped_v1");
  const std::string path = dir.file("v1.kavb");
  write_binary_trace_file(path, trace);

  MappedSegment segment(path);
  EXPECT_FALSE(segment.indexed());
  EXPECT_EQ(segment.version(), kBinaryTraceVersion);
  expect_same_keyed_content(trace, walk(segment));
  EXPECT_THROW(segment.read_key("alpha"), std::logic_error);
}

TEST(MappedSegment, EmptyV2SegmentIsIndexedAndEmpty) {
  TempDir dir("mapped_empty");
  const std::string path = write_v2_file(dir, "empty.kavb", KeyedTrace{});
  MappedSegment segment(path);
  EXPECT_TRUE(segment.indexed());
  EXPECT_EQ(segment.key_count(), 0u);
  EXPECT_EQ(segment.total_records(), 0u);
  EXPECT_TRUE(walk(segment).empty());
}

// --- Error paths -----------------------------------------------------------

TEST(StoreErrors, EmptyFile) {
  TempDir dir("err_empty");
  const std::string path = dir.file("empty.kavb");
  write_file(path, "");
  try {
    MappedSegment segment(path);
    FAIL() << "expected a truncated-header error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos);
  }
  // The sniffing factory treats a magic-less (empty) file as text: an
  // empty trace, not an error.
  EXPECT_TRUE(drain(*open_trace_source(path)).empty());
}

TEST(StoreErrors, MissingFile) {
  TempDir dir("err_missing");
  EXPECT_THROW(open_trace_source(dir.file("nope.kavb")), std::runtime_error);
  EXPECT_THROW(MappedSegment(dir.file("nope.kavb")), std::runtime_error);
}

TEST(StoreErrors, BadMagic) {
  TempDir dir("err_magic");
  const std::string path = dir.file("junk.kavb");
  write_file(path, "JUNKJUNKJUNKJUNK");
  try {
    MappedSegment segment(path);
    FAIL() << "expected a bad-magic error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
  // Magic-less bytes sniff as text and fail in the text parser with a
  // line number instead.
  EXPECT_THROW(open_trace_source(path), std::runtime_error);
}

TEST(StoreErrors, TruncatedHeader) {
  TempDir dir("err_header");
  const std::string full = read_file(
      write_v2_file(dir, "full.kavb", sample_trace()));
  const std::string path = dir.file("chopped.kavb");
  write_file(path, full.substr(0, 6));  // magic intact, version cut
  try {
    MappedSegment segment(path);
    FAIL() << "expected a truncated-header error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos);
  }
  // Sniffed as binary (magic matches), so the factory surfaces the
  // same truncation instead of misparsing as text.
  EXPECT_THROW(open_trace_source(path), std::runtime_error);
}

TEST(StoreErrors, TruncatedFooterPayload) {
  TempDir dir("err_footer");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", sample_trace()));
  // Inflate the trailer's payload_bytes so the footer cannot fit the
  // file while the trailer magic stays valid.
  bytes[bytes.size() - 12] = '\x77';
  bytes[bytes.size() - 11] = '\x77';
  bytes[bytes.size() - 10] = '\x77';
  const std::string path = dir.file("bad_footer.kavb");
  write_file(path, bytes);
  try {
    MappedSegment segment(path);
    FAIL() << "expected a truncated-footer error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated footer"),
              std::string::npos);
  }
  EXPECT_THROW(open_trace_source(path), std::runtime_error);
}

TEST(StoreErrors, ChoppedFooterDegradesToSequential) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("err_chop");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", trace));
  // Remove the trailer: the index is gone, the record stream is not.
  bytes.resize(bytes.size() - kBinaryTraceTrailerBytes);
  const std::string path = dir.file("unsealed.kavb");
  write_file(path, bytes);

  MappedSegment segment(path);
  EXPECT_FALSE(segment.indexed());
  expect_same_keyed_content(trace, walk(segment));

  // open_trace_source falls back to the sequential binary source,
  // which stops cleanly at the footer sentinel.
  auto source = open_trace_source(path);
  EXPECT_EQ(dynamic_cast<IndexedTraceSource*>(source.get()), nullptr);
  expect_same_keyed_content(trace, drain(*source));
}

TEST(StoreErrors, IndexPointingPastEofIsRejected) {
  TempDir dir("err_index");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", sample_trace()));
  const std::size_t entries_begin = entries_begin_of(bytes);
  // Overwrite entry 0's offset (u64 at +4) with a huge value, then
  // re-seal the payload checksum so the bound check (not the CRC) is
  // what rejects the file.
  for (int i = 0; i < 8; ++i) {
    bytes[entries_begin + 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(i < 4 ? 0xEE : 0x00);
  }
  fix_footer_crc(bytes);
  const std::string path = dir.file("bad_index.kavb");
  write_file(path, bytes);
  try {
    MappedSegment segment(path);
    FAIL() << "expected an index-past-EOF error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("points past the end"),
              std::string::npos);
  }
  EXPECT_THROW(open_trace_source(path), std::runtime_error);
}

TEST(StoreErrors, HugeBlockOffsetDoesNotWrapBoundsChecks) {
  TempDir dir("err_wrap");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", sample_trace()));
  const std::size_t entries_begin = entries_begin_of(bytes);
  // offset = 2^64 - 8: 'offset + 8' would wrap to 0 and sail through a
  // naive bound; the validation must still reject it.
  for (int i = 0; i < 8; ++i) {
    bytes[entries_begin + 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(i == 0 ? 0xF8 : 0xFF);
  }
  fix_footer_crc(bytes);
  const std::string path = dir.file("wrap_index.kavb");
  write_file(path, bytes);
  try {
    MappedSegment segment(path);
    FAIL() << "expected an index-past-EOF error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("points past the end"),
              std::string::npos);
  }
}

TEST(StoreErrors, HugeFooterKeyCountIsRejectedBeforeAllocation) {
  TempDir dir("err_keycount");
  // A sealed empty v2.1 segment is exactly 48 bytes (8 header + 4
  // sentinel + 24 payload + 12 trailer); key_count lives right after
  // the sentinel at offset 12.
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", KeyedTrace{}));
  ASSERT_EQ(bytes.size(), 48u);
  for (int i = 0; i < 4; ++i) bytes[12 + i] = '\xFF';
  fix_footer_crc(bytes);
  const std::string path = dir.file("huge_keys.kavb");
  write_file(path, bytes);
  try {
    MappedSegment segment(path);
    FAIL() << "expected a truncated-footer error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated footer"),
              std::string::npos);
  }
}

// --- Integrity primitives --------------------------------------------------

TEST(Crc32c, MatchesPublishedCheckValue) {
  // The canonical CRC-32C check value (RFC 3720): crc of the ASCII
  // digits "123456789" is 0xE3069283.
  EXPECT_EQ(crc::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc::crc32c("", 0), 0u);
}

TEST(Crc32c, HardwareAndSoftwareAgree) {
  std::string buffer;
  std::uint64_t state = 0x243F6A8885A308D3ull;  // fixed seed
  // Lengths straddle every dispatch boundary: the byte tail, the
  // 8-byte word loop, and the 3-stream interleaved loop (which needs
  // >= 3 KiB) with zero, partial, and multi-group remainders.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{1000}, std::size_t{3071}, std::size_t{3072},
        std::size_t{3073}, std::size_t{4096}, std::size_t{100000}}) {
    buffer.resize(len);
    for (char& c : buffer) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<char>(state >> 56);
    }
    EXPECT_EQ(crc::crc32c(buffer.data(), len),
              crc::crc32c_software(0, buffer.data(), len))
        << "len=" << len;
  }
}

TEST(Crc32c, ExtendComposesAtAnySplit) {
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc::crc32c(bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::uint32_t head = crc::crc32c(bytes.data(), cut);
    EXPECT_EQ(
        crc::crc32c_extend(head, bytes.data() + cut, bytes.size() - cut),
        whole)
        << "cut=" << cut;
  }

  // Large-buffer splits: the resumed tail runs the 3-stream loop with
  // a nonzero incoming state, which the short string above never does.
  std::string big(10000, '\0');
  std::uint64_t state = 0x452821E638D01377ull;  // fixed seed
  for (char& c : big) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  const std::uint32_t big_whole = crc::crc32c(big.data(), big.size());
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{100}, std::size_t{3072},
        std::size_t{5000}, std::size_t{9999}}) {
    const std::uint32_t head = crc::crc32c(big.data(), cut);
    EXPECT_EQ(crc::crc32c_extend(head, big.data() + cut, big.size() - cut),
              big_whole)
        << "cut=" << cut;
  }
}

TEST(Bloom, FindsEveryAddedKeyAndMostlyRejectsAbsentOnes) {
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.push_back("key-" + std::to_string(i));
  BloomBuilder builder(keys.size());
  for (const std::string& k : keys) builder.add(k);
  ASSERT_EQ(builder.m_bits() % 8, 0u);
  ASSERT_EQ(builder.bytes().size(), builder.m_bits() / 8);
  for (const std::string& k : keys) {
    EXPECT_TRUE(bloom_maybe_contains(builder.bytes().data(), builder.m_bits(),
                                     builder.hashes(), bloom_probe(k)))
        << k;
  }
  // ~0.8% target false-positive rate at 10 bits/key, 7 hashes: the
  // vast majority of absent keys must be definite negatives.
  std::size_t negatives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!bloom_maybe_contains(builder.bytes().data(), builder.m_bits(),
                              builder.hashes(),
                              bloom_probe("absent-" + std::to_string(i)))) {
      ++negatives;
    }
  }
  EXPECT_GT(negatives, 900u);
}

TEST(Bloom, EmptyFilterContainsNothing) {
  BloomBuilder builder(0);
  EXPECT_EQ(builder.m_bits(), 0u);
  EXPECT_EQ(builder.hashes(), 0u);
  EXPECT_FALSE(
      bloom_maybe_contains(nullptr, 0, 0, bloom_probe("anything")));
}

// --- v2.1 integrity pages --------------------------------------------------

TEST(StoreIntegrity, SegmentsCarryIntegrityAndHonorBloom) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("integ_pages");
  MappedSegment segment(write_v2_file(dir, "seg.kavb", trace, 2));
  EXPECT_TRUE(segment.indexed());
  EXPECT_TRUE(segment.has_integrity());
  for (const std::string key : {"alpha", "beta", "gamma"}) {
    EXPECT_TRUE(segment.maybe_contains(bloom_probe(key))) << key;
  }
  std::vector<std::string> errors;
  EXPECT_EQ(segment.verify_integrity(errors), trace.size());
  EXPECT_TRUE(errors.empty());
}

TEST(StoreIntegrity, LegacyV2FooterStillOpensWithoutIntegrity) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("integ_legacy");
  const std::string v21 = read_file(write_v2_file(dir, "new.kavb", trace, 2));
  const std::string path = dir.file("legacy.kavb");
  write_file(path, to_legacy_v2(v21));

  MappedSegment segment(path);
  EXPECT_TRUE(segment.indexed());
  EXPECT_FALSE(segment.has_integrity());
  // Without a bloom page every key "may" be present.
  EXPECT_TRUE(segment.maybe_contains(bloom_probe("definitely-absent")));
  expect_same_keyed_content(trace, walk(segment));
  EXPECT_EQ(segment.read_key("alpha"), ops_of(trace, "alpha"));
}

TEST(StoreIntegrity, FooterChecksumCatchesFooterTamper) {
  TempDir dir("integ_footer");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", sample_trace()));
  // Flip one bit inside the key table -- covered by the payload CRC.
  bytes[footer_payload_begin(bytes) + 5] ^= 0x01;
  const std::string path = dir.file("tampered.kavb");
  write_file(path, bytes);
  try {
    MappedSegment segment(path);
    FAIL() << "expected a footer-checksum error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("footer checksum mismatch"),
              std::string::npos);
  }
}

TEST(StoreIntegrity, BlockChecksumGatesReadsAndIsOptional) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("integ_toggle");
  std::string bytes = read_file(write_v2_file(dir, "ok.kavb", trace));
  // Flip the last record's type byte (the byte right before the footer
  // sentinel): the record stays structurally valid -- read/write flip
  // -- so only the checksum can tell.
  bytes[footer_payload_begin(bytes) - 4 - 1] ^= 0x01;
  const std::string path = dir.file("tampered.kavb");
  write_file(path, bytes);

  MappedSegment checked(path);  // opening validates only the footer
  EXPECT_TRUE(checked.has_integrity());
  try {
    checked.read_key("gamma");
    FAIL() << "expected a block-checksum error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("block checksum mismatch"),
              std::string::npos);
  }
  EXPECT_THROW(walk(checked), std::runtime_error);

  MappedSegmentOptions lax;
  lax.verify_block_crc = false;
  MappedSegment unchecked(path, lax);
  // With verification off the flipped record decodes fine -- and
  // differently: the read became a write.
  const std::vector<Operation> decoded = unchecked.read_key("gamma");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_NE(decoded[0], ops_of(trace, "gamma")[0]);
}

TEST(StoreIntegrity, EveryByteCorruptionIsDetected) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("integ_every");
  const std::string clean =
      read_file(write_v2_file(dir, "ok.kavb", trace, 2));
  const std::string path = dir.file("mut.kavb");
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
    write_file(path, bytes);
    bool detected = false;
    try {
      MappedSegment segment(path);
      if (!segment.indexed()) {
        // Degradation (e.g. a flipped trailer-magic bit) is detection:
        // the index refused the bytes instead of serving them.
        detected = true;
      } else {
        walk(segment);
        for (const std::string_view key : segment.keys()) {
          segment.read_key(std::string(key));
        }
      }
    } catch (const std::exception&) {
      detected = true;
    }
    // Every byte of the file is covered by some check -- magic/version
    // validation, the payload CRC, or a block CRC -- except the two
    // reserved header bytes, which no reader interprets.
    if (i == 6 || i == 7) {
      EXPECT_FALSE(detected) << "byte " << i;
    } else {
      EXPECT_TRUE(detected) << "byte " << i << " corruption went unnoticed";
    }
  }
}

// --- TraceStore ------------------------------------------------------------

KeyedTrace trace_chunk(int base, const std::string& key_prefix) {
  KeyedTrace trace;
  for (int i = 0; i < 6; ++i) {
    const TimePoint t = base + 10 * i;
    trace.add(key_prefix + std::to_string(i % 3),
              i % 2 == 0 ? make_write(t, t + 5, base + i)
                         : make_read(t, t + 5, base + i - 1));
  }
  return trace;
}

TEST(TraceStore, AppendListStatRead) {
  TempDir dir("store_basic");
  TraceStore store(dir.path());
  EXPECT_EQ(store.segment_count(), 0u);

  const KeyedTrace first = trace_chunk(0, "k");
  const KeyedTrace second = trace_chunk(1000, "k");
  store.append(first);
  store.append(second);
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_EQ(store.total_records(), first.size() + second.size());

  // Every read goes through the store's source.
  const auto source = store.open_source();
  EXPECT_EQ(source->selectable_keys(),
            (std::vector<std::string>{"k0", "k1", "k2"}));
  EXPECT_EQ(source->key_count(), 3u);

  const std::optional<KeyStat> stat = source->stat("k0");
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->records, 4u);  // 2 per chunk
  EXPECT_EQ(stat->min_start, 0);
  EXPECT_FALSE(source->stat("zz").has_value());

  // A key load returns both segments' ops in append order, through the
  // column decoder and through the read_key reference alike.
  std::vector<Operation> expected = ops_of(first, "k0");
  const std::vector<Operation> tail = ops_of(second, "k0");
  expected.insert(expected.end(), tail.begin(), tail.end());
  for (const History& history :
       {source->load_key("k0"), source->load_key_materializing("k0")}) {
    ASSERT_EQ(history.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(history.op(static_cast<OpId>(i)), expected[i]);
    }
  }
  EXPECT_TRUE(source->load_key("zz").empty());
}

TEST(TraceStore, ReopenFindsSegments) {
  TempDir dir("store_reopen");
  {
    TraceStore store(dir.path());
    store.append(trace_chunk(0, "a"));
    store.append(trace_chunk(50, "b"));
  }
  TraceStore reopened(dir.path());
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_EQ(reopened.open_source()->key_count(), 6u);
  EXPECT_EQ(reopened.open_source()->selectable_keys().size(), 6u);
  // New appends continue the numbering past what was on disk.
  const std::filesystem::path next = reopened.append(trace_chunk(99, "c"));
  EXPECT_EQ(next.filename().string(), "seg-000003.kavb");
}

TEST(TraceStore, ImportFileStreamsAnyFormat) {
  TempDir dir("store_import");
  const KeyedTrace trace = sample_trace();
  const std::string text_path = dir.file("trace.txt");
  write_trace_file(text_path, trace);
  const std::string v1_path = dir.file("trace_v1.kavb");
  write_binary_trace_file(v1_path, trace);

  TraceStore store(dir.path() / "store");
  store.import_file(text_path);
  store.import_file(v1_path);
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_EQ(store.total_records(), 2 * trace.size());
  const std::optional<KeyStat> alpha = store.open_source()->stat("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(alpha->records, 6u);
}

TEST(TraceStore, CompactFoldsSegmentsPreservingContent) {
  TempDir dir("store_compact");
  TraceStore store(dir.path());
  store.append(trace_chunk(0, "k"), 2);
  store.append(trace_chunk(100, "k"), 2);
  store.append(trace_chunk(200, "k"), 2);

  const KeyedTrace before = drain(*store.open_source());
  const std::optional<KeyStat> k0_before = store.open_source()->stat("k0");
  ASSERT_TRUE(k0_before.has_value());

  EXPECT_EQ(store.compact(), 1u);
  EXPECT_EQ(store.segment_count(), 1u);
  // The fold commits under a NEW number (never a victim's): the
  // manifest rename is the commit point, so at no instant are the
  // fold and a victim both live.
  EXPECT_EQ(store.segments().front().path.filename().string(),
            "seg-000004.kavb");

  const KeyedTrace after = drain(*store.open_source());
  expect_same_keyed_content(before, after);
  const std::optional<KeyStat> k0_after = store.open_source()->stat("k0");
  ASSERT_TRUE(k0_after.has_value());
  EXPECT_EQ(k0_after->records, k0_before->records);
  // Re-blocking at the default size folds each key into one block.
  EXPECT_EQ(k0_after->blocks, 1u);

  // Only the folded segment and the MANIFEST remain on disk.
  std::size_t files = 0;
  bool saw_manifest = false;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().filename() == "MANIFEST") saw_manifest = true;
    ++files;
  }
  EXPECT_TRUE(saw_manifest);
  EXPECT_EQ(files, 2u);

  // The store reopens to the same content from the manifest alone.
  TraceStore reopened(dir.path());
  expect_same_keyed_content(before, drain(*reopened.open_source()));
}

TEST(TraceStore, CompactFirstNKeepsReplayOrder) {
  TempDir dir("store_compact_n");
  TraceStore store(dir.path());
  store.append(trace_chunk(0, "k"));
  store.append(trace_chunk(100, "k"));
  store.append(trace_chunk(200, "k"));
  const KeyedTrace before = drain(*store.open_source());
  EXPECT_EQ(store.compact(2), 2u);
  expect_same_keyed_content(before, drain(*store.open_source()));
  const History history = store.open_source()->load_key("k0");
  EXPECT_EQ(history.size(), 6u);
}

// --- Manifest recovery -----------------------------------------------------

TEST(TraceStoreManifest, ParseSegmentNumberRejectsGarbageAndOverflow) {
  using store_detail::parse_segment_number;
  EXPECT_EQ(parse_segment_number("seg-000001.kavb"), 1u);
  EXPECT_EQ(parse_segment_number("seg-123456.kavb"), 123456u);
  EXPECT_EQ(parse_segment_number("seg-18446744073709551615.kavb"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_segment_number("seg-.kavb").has_value());
  EXPECT_FALSE(parse_segment_number("seg-12x4.kavb").has_value());
  EXPECT_FALSE(parse_segment_number("other-000001.kavb").has_value());
  EXPECT_FALSE(parse_segment_number("seg-000001.tmp").has_value());
  // One past uint64 max, and a much longer digit string: both must be
  // rejected, not silently wrapped into a colliding small number.
  EXPECT_FALSE(parse_segment_number("seg-18446744073709551616.kavb")
                   .has_value());
  EXPECT_FALSE(
      parse_segment_number("seg-99999999999999999999999.kavb").has_value());
}

TEST(TraceStoreManifest, ReopenSweepsTmpLeftoversAndUnlistedSegments) {
  TempDir dir("store_sweep");
  {
    TraceStore store(dir.path());
    store.append(trace_chunk(0, "a"));
    store.append(trace_chunk(50, "a"));
  }
  // Simulate crash leftovers: a half-written .tmp, a stray MANIFEST.tmp,
  // and a fully-renamed segment the manifest never adopted (the window
  // between segment rename and manifest commit).
  write_file(dir.file("seg-000007.kavb.tmp"), "half-written garbage");
  write_file(dir.file("MANIFEST.tmp"), "stale manifest attempt");
  fs::copy_file(dir.file("seg-000001.kavb"), dir.file("seg-000099.kavb"));

  TraceStore reopened(dir.path());
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_FALSE(fs::exists(dir.file("seg-000007.kavb.tmp")));
  EXPECT_FALSE(fs::exists(dir.file("MANIFEST.tmp")));
  EXPECT_FALSE(fs::exists(dir.file("seg-000099.kavb")));
}

TEST(TraceStoreManifest, DirectoryWithoutManifestAdoptsAllSegments) {
  TempDir dir("store_adopt");
  KeyedTrace expected;
  {
    TraceStore store(dir.path());
    store.append(trace_chunk(0, "a"));
    store.append(trace_chunk(50, "b"));
    expected = drain(*store.open_source());
  }
  // A directory written by a pre-manifest build.
  fs::remove(dir.file("MANIFEST"));

  TraceStore adopted(dir.path());
  EXPECT_EQ(adopted.segment_count(), 2u);
  expect_same_keyed_content(expected, drain(*adopted.open_source()));
  EXPECT_TRUE(fs::exists(dir.file("MANIFEST")));
}

TEST(TraceStoreManifest, CorruptManifestIsRejected) {
  TempDir dir("store_badmanifest");
  {
    TraceStore store(dir.path());
    store.append(trace_chunk(0, "a"));
  }
  std::string manifest = read_file(dir.file("MANIFEST"));
  manifest[manifest.size() / 2] ^= 0x01;
  write_file(dir.file("MANIFEST"), manifest);
  EXPECT_THROW(TraceStore{dir.path()}, std::runtime_error);
}

TEST(TraceStoreManifest, ManifestNamingMissingSegmentIsRejected) {
  TempDir dir("store_missingseg");
  {
    TraceStore store(dir.path());
    store.append(trace_chunk(0, "a"));
    store.append(trace_chunk(50, "a"));
  }
  fs::remove(dir.file("seg-000002.kavb"));
  try {
    TraceStore store(dir.path());
    FAIL() << "expected a missing-segment error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

// --- fsck ------------------------------------------------------------------

TEST(TraceStoreFsck, CleanStorePasses) {
  TempDir dir("store_fsck");
  TraceStore store(dir.path());
  store.append(trace_chunk(0, "a"), 2);
  store.append(trace_chunk(50, "b"), 2);
  const FsckReport report = store.fsck();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.segments, 2u);
  EXPECT_EQ(report.records, store.total_records());
  EXPECT_EQ(report.segments_without_integrity, 0u);
  EXPECT_GT(report.blocks, 0u);
}

TEST(TraceStoreFsck, ReportsCorruptRecordBytes) {
  TempDir dir("store_fsck_bad");
  std::filesystem::path victim;
  {
    TraceStore store(dir.path());
    victim = store.append(trace_chunk(0, "a"), 2);
  }
  std::string bytes = read_file(victim.string());
  bytes[kBinaryTraceHeaderBytes + 10] ^= 0x01;  // inside the first chunk
  write_file(victim.string(), bytes);

  TraceStore store(dir.path());  // opening does not deep-scan
  const FsckReport report = store.fsck();
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("seg-000001.kavb"), std::string::npos);
}

// --- Tiered maintenance ----------------------------------------------------

TEST(TraceStoreMaintenance, PickFoldRangePolicy) {
  using store_detail::pick_fold_range;
  CompactionOptions opt;
  opt.fanout = 3;
  opt.tier0_records = 100;  // tier 0: < 100, tier 1: [100, 300), ...

  // Nothing to fold below fanout.
  EXPECT_FALSE(pick_fold_range({10, 10}, opt).has_value());
  // Three adjacent tier-0 segments fold as one run.
  EXPECT_EQ(pick_fold_range({10, 10, 10}, opt),
            std::make_pair(std::size_t{0}, std::size_t{3}));
  // A longer run folds whole.
  EXPECT_EQ(pick_fold_range({10, 10, 10, 10, 10}, opt),
            std::make_pair(std::size_t{0}, std::size_t{5}));
  // A tier-1 segment breaks adjacency; the oldest qualifying run wins.
  EXPECT_EQ(pick_fold_range({10, 150, 10, 10, 10}, opt),
            std::make_pair(std::size_t{2}, std::size_t{3}));
  // Higher tiers fold too once fanout of them accumulate.
  EXPECT_EQ(pick_fold_range({150, 150, 150, 10}, opt),
            std::make_pair(std::size_t{0}, std::size_t{3}));
  // Mixed tiers with no run of fanout: nothing folds.
  EXPECT_FALSE(pick_fold_range({150, 10, 150, 10, 150}, opt).has_value());
}

TEST(TraceStoreMaintenance, RunMaintenanceFoldsByTierAndPreservesContent) {
  TempDir dir("store_maint");
  TraceStore store(dir.path());
  for (int i = 0; i < 5; ++i) store.append(trace_chunk(100 * i, "k"), 2);
  const KeyedTrace before = drain(*store.open_source());

  CompactionOptions opt;
  opt.fanout = 2;
  opt.tier0_records = 1 << 20;  // everything stays tier 0: folds cascade
  EXPECT_GT(store.run_maintenance(opt), 0u);
  EXPECT_EQ(store.segment_count(), 1u);
  expect_same_keyed_content(before, drain(*store.open_source()));

  // Idempotent once nothing qualifies.
  EXPECT_EQ(store.run_maintenance(opt), 0u);
}

TEST(TraceStoreMaintenance, RetentionDropsOldestSegments) {
  TempDir dir("store_retain");
  TraceStore store(dir.path());
  store.append(trace_chunk(0, "old"));
  store.append(trace_chunk(100, "mid"));
  store.append(trace_chunk(200, "new"));

  CompactionOptions opt;
  opt.fanout = 100;     // never fold
  opt.retain_bytes = 1;  // far below one segment: drop all but the last
  EXPECT_EQ(store.run_maintenance(opt), 2u);
  EXPECT_EQ(store.segment_count(), 1u);
  EXPECT_FALSE(store.open_source()->stat("old0").has_value());
  EXPECT_TRUE(store.open_source()->stat("new0").has_value());

  // Reopen honors the post-retention manifest.
  TraceStore reopened(dir.path());
  EXPECT_EQ(reopened.segment_count(), 1u);
  EXPECT_TRUE(reopened.open_source()->stat("new0").has_value());
}

TEST(TraceStoreMaintenance, BackgroundCompactionFoldsOnThePool) {
  TempDir dir("store_bg");
  pipeline::ThreadPool pool(2);
  CompactionOptions opt;
  opt.fanout = 2;
  opt.tier0_records = 1 << 20;
  {
    TraceStore store(dir.path());
    store.enable_background_compaction(pool, opt);
    for (int i = 0; i < 4; ++i) store.append(trace_chunk(100 * i, "k"), 2);
    // Re-enabling schedules one more pass over the final segment set;
    // disabling quiesces it -- after this, all folds have landed.
    store.disable_background_compaction();
    store.enable_background_compaction(pool, opt);
    store.disable_background_compaction();
    EXPECT_EQ(store.segment_count(), 1u);
    EXPECT_EQ(store.last_maintenance_error(), "");
    EXPECT_EQ(store.total_records(), 4u * 6u);
  }
}

TEST(TraceStoreMaintenance, EngineOpenStoreRunsSelfMaintainingStore) {
  TempDir dir("store_engine");
  Engine engine;
  CompactionOptions opt;
  opt.fanout = 2;
  opt.tier0_records = 1 << 20;
  {
    auto store = engine.open_store(dir.path().string());
    for (int i = 0; i < 4; ++i) store->append(trace_chunk(100 * i, "k"), 2);
    // Quiesce the background passes (default fanout 4: they may have
    // folded the four tier-0 segments already), then force one final
    // pass over the settled segment set at fanout 2.
    store->disable_background_compaction();
    store->run_maintenance(opt);
    EXPECT_EQ(store->segment_count(), 1u);
    EXPECT_EQ(store->last_maintenance_error(), "");

    auto source = store->open_source();
    const Report report = engine.verify(*source);
    EXPECT_EQ(report.per_key.size(), 3u);  // k0, k1, k2
  }
}

// --- IndexedTraceSource + Engine key_filter --------------------------------

TEST(IndexedSource, OpenTraceSourceReturnsSelectiveForV2) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("src_v2");
  const std::string path = write_v2_file(dir, "seg.kavb", trace);

  auto source = open_trace_source(path);
  auto* selective = dynamic_cast<IndexedTraceSource*>(source.get());
  ASSERT_NE(selective, nullptr);
  EXPECT_EQ(selective->key_count(), 3u);
  const std::optional<KeyStat> alpha = selective->stat("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(alpha->records, 3u);
  EXPECT_FALSE(selective->stat("absent").has_value());
  EXPECT_EQ(selective->load_key("beta").size(), 2u);
  EXPECT_NE(source->describe().find("indexed:"), std::string::npos);
  // As a plain source it still drains the whole segment.
  expect_same_keyed_content(trace, drain(*source));
}

TEST(IndexedSource, V1FilesStayNonSelective) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("src_v1");
  const std::string path = dir.file("v1.kavb");
  write_binary_trace_file(path, trace);
  auto source = open_trace_source(path);
  EXPECT_EQ(dynamic_cast<IndexedTraceSource*>(source.get()), nullptr);
}

TEST(EngineKeyFilter, SelectiveMatchesFullOnIndexedSource) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("engine_sel");
  const std::string path = write_v2_file(dir, "seg.kavb", trace, 2);

  Engine engine;
  const Report full = engine.verify(trace);

  auto source = open_trace_source(path);
  RunOptions run;
  run.key_filter = {"beta", "absent", "alpha"};
  const Report selected = engine.verify(*source, run);

  EXPECT_TRUE(selected.selected);
  EXPECT_EQ(selected.keys_selected, 2u);
  EXPECT_EQ(selected.keys_available, 3u);
  EXPECT_EQ(selected.missing_keys, std::vector<std::string>{"absent"});
  ASSERT_EQ(selected.per_key.size(), 2u);
  for (const auto& [key, result] : selected.per_key) {
    const Verdict& reference = full.per_key.at(key).verdict;
    EXPECT_EQ(result.verdict.outcome, reference.outcome) << key;
    EXPECT_EQ(result.verdict.witness, reference.witness) << key;
    EXPECT_EQ(result.verdict.reason, reference.reason) << key;
  }
  EXPECT_NE(selected.summary().find("selected 2/3 keys"), std::string::npos);
  EXPECT_NE(selected.summary().find("1 requested missing"),
            std::string::npos);
}

TEST(EngineKeyFilter, FallbackFiltersNonIndexedSources) {
  const KeyedTrace trace = sample_trace();
  TempDir dir("engine_fallback");
  const std::string text_path = dir.file("trace.txt");
  write_trace_file(text_path, trace);

  Engine engine;
  const Report full = engine.verify(trace);
  auto source = open_trace_source(text_path);
  RunOptions run;
  run.key_filter = {"gamma", "absent"};
  const Report selected = engine.verify(*source, run);
  EXPECT_TRUE(selected.selected);
  EXPECT_EQ(selected.keys_selected, 1u);
  EXPECT_EQ(selected.keys_available, 3u);
  EXPECT_EQ(selected.missing_keys, std::vector<std::string>{"absent"});
  ASSERT_EQ(selected.per_key.size(), 1u);
  EXPECT_EQ(selected.per_key.at("gamma").verdict.outcome,
            full.per_key.at("gamma").verdict.outcome);
}

TEST(EngineKeyFilter, WorksOnMemoryTracesAndShards) {
  const KeyedTrace trace = sample_trace();
  Engine engine;
  RunOptions run;
  run.key_filter = {"alpha"};
  const Report from_trace = engine.verify(trace, run);
  EXPECT_EQ(from_trace.per_key.size(), 1u);
  EXPECT_EQ(from_trace.keys_available, 3u);
  EXPECT_TRUE(from_trace.per_key.count("alpha"));

  const KeyedHistories shards = split_by_key(trace);
  const Report from_shards = engine.verify(shards, run);
  EXPECT_EQ(from_shards.per_key.size(), 1u);
  EXPECT_EQ(from_shards.keys_selected, 1u);
}

TEST(EngineKeyFilter, MonitorFiltersKeys) {
  const KeyedTrace trace = sample_trace();
  Engine engine;
  RunOptions run;
  run.key_filter = {"beta", "absent"};
  const Report report = engine.monitor(trace, run);
  EXPECT_EQ(report.mode, Report::Mode::monitor);
  EXPECT_EQ(report.per_key.size(), 1u);
  EXPECT_TRUE(report.per_key.count("beta"));
  EXPECT_EQ(report.keys_available, 3u);
  EXPECT_EQ(report.missing_keys, std::vector<std::string>{"absent"});
}

TEST(EngineKeyFilter, StoreSourceServesSelectiveRuns) {
  TempDir dir("engine_store");
  TraceStore store(dir.path());
  store.append(trace_chunk(0, "k"));
  store.append(trace_chunk(500, "k"));

  Engine engine;
  const KeyedTrace everything = drain(*store.open_source());
  const Report full = engine.verify(everything);

  auto source = store.open_source();
  RunOptions run;
  run.key_filter = {"k1"};
  const Report selected = engine.verify(*source, run);
  ASSERT_EQ(selected.per_key.size(), 1u);
  const Verdict& reference = full.per_key.at("k1").verdict;
  EXPECT_EQ(selected.per_key.at("k1").verdict.outcome, reference.outcome);
  EXPECT_EQ(selected.per_key.at("k1").verdict.witness, reference.witness);
}

}  // namespace
}  // namespace kav
