// BlockCursor: the zero-copy per-key decoder over a mapped segment.
// Covers every record field against the wire layout (through a
// SegmentWriter round trip that load_key and read_key both decode),
// decoding across block shapes (single, many-per-block, one-per-block,
// multi-key interleavings, absent keys), and -- the safety half of the
// equivalence contract -- an exhaustive single-byte corruption
// differential: for EVERY byte of a segment file, flipping it must
// leave read_key and the column decoder in exact agreement (same
// operations or a std::runtime_error with the same message, offset
// included). See store/block_cursor.h for the contract this enforces.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "history/history.h"
#include "ingest/binary_trace.h"
#include "store/block_cursor.h"
#include "store/indexed_source.h"
#include "store/mapped_segment.h"
#include "store/segment_writer.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("kav_cursor_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
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

std::vector<Operation> ops_of(const KeyedTrace& trace,
                              const std::string& key) {
  std::vector<Operation> ops;
  for (const KeyedOperation& kop : trace.ops) {
    if (kop.key == key) ops.push_back(kop.op);
  }
  return ops;
}

std::vector<Operation> rows_of(const OperationColumns& columns) {
  std::vector<Operation> ops;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    ops.push_back(Operation{columns.starts[i], columns.finishes[i],
                            columns.values[i], columns.clients[i],
                            columns.types[i] != 0 ? OpType::write
                                                  : OpType::read});
  }
  return ops;
}

std::vector<Operation> decode_key(const MappedSegment& segment,
                                  std::string_view key) {
  OperationColumns columns;
  BlockCursor(segment, key).decode_columns(columns);
  return rows_of(columns);
}

TEST(BlockCursor, DecodesEveryFieldFromTheWireLayout) {
  // Records at every interesting value -- negative times, a value with
  // all byte patterns, an all-ones client id, both types -- written by
  // a SegmentWriter and read back by the column decoder (load_key) and
  // the row-at-a-time reference (read_key).
  TempDir dir("fields");
  KeyedTrace trace;
  trace.add("k", Operation{-1234567890123LL, -1LL, 0x0123456789ABCDEFLL,
                           static_cast<ClientId>(-1), OpType::write});
  trace.add("k", Operation{0, 1, 0x0123456789ABCDEFLL, 0, OpType::read});
  trace.add("k", Operation{-7, 9, -0x0123456789ABCDEFLL,
                           static_cast<ClientId>(0x80000000u), OpType::read});
  const std::string path = write_v2_file(dir, "s.kavb", trace, 2);
  const std::vector<Operation> want = ops_of(trace, "k");

  const MappedSegment segment(path);
  EXPECT_EQ(segment.read_key("k"), want);
  const History loaded = IndexedTraceSource(path).load_key("k");
  ASSERT_EQ(loaded.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Operation& op = loaded.op(static_cast<OpId>(i));
    EXPECT_EQ(op.start, want[i].start) << i;
    EXPECT_EQ(op.finish, want[i].finish) << i;
    EXPECT_EQ(op.type, want[i].type) << i;
    EXPECT_EQ(op.value, want[i].value) << i;
    EXPECT_EQ(op.client, want[i].client) << i;
  }
  EXPECT_EQ(decode_key(segment, "k"), want);
}

TEST(BlockCursor, StreamsEveryKeyInAddOrderAcrossBlockShapes) {
  TempDir dir("stream");
  const KeyedTrace trace = sample_trace();
  // One record per block, a mid-size split, and everything in one block.
  for (std::size_t records_per_block : {1ULL, 2ULL, 4096ULL}) {
    const std::string path = write_v2_file(
        dir, "s" + std::to_string(records_per_block) + ".kavb", trace,
        records_per_block);
    const MappedSegment segment(path);
    for (const std::string key : {"alpha", "beta", "gamma"}) {
      const std::vector<Operation> want = ops_of(trace, key);
      EXPECT_EQ(decode_key(segment, key), want)
          << key << " @block " << records_per_block;
      EXPECT_EQ(segment.read_key(key), want)
          << key << " @block " << records_per_block;
    }
  }
}

TEST(BlockCursor, AbsentKeyIsExhaustedImmediately) {
  TempDir dir("absent");
  const MappedSegment segment(
      write_v2_file(dir, "s.kavb", sample_trace()));
  BlockCursor cursor(segment, "no-such-key");
  EXPECT_EQ(cursor.remaining(), 0u);
  OperationColumns columns;
  cursor.decode_columns(columns);
  EXPECT_EQ(columns.size(), 0u);
}

TEST(BlockCursor, RemainingCountsDownFromTheIndex) {
  TempDir dir("remaining");
  const MappedSegment segment(
      write_v2_file(dir, "s.kavb", sample_trace(), 2));
  BlockCursor cursor(segment, "alpha");
  EXPECT_EQ(cursor.remaining(), 3u);  // two blocks, nothing decoded yet
  OperationColumns columns;
  cursor.decode_columns(columns);
  EXPECT_EQ(columns.size(), 3u);
  EXPECT_EQ(cursor.remaining(), 0u);
  cursor.decode_columns(columns);  // an exhausted cursor appends nothing
  EXPECT_EQ(columns.size(), 3u);
}

TEST(BlockCursor, UnindexedSegmentThrowsLogicError) {
  TempDir dir("v1");
  const std::string path = dir.file("v1.kavb");
  write_binary_trace_file(path, sample_trace());  // v1: no index
  const MappedSegment segment(path);
  EXPECT_THROW(BlockCursor(segment, "alpha"), std::logic_error);
}

TEST(BlockCursor, DecodeColumnsAppendsAcrossCursors) {
  // load_key concatenates several segments into one column set; the
  // cursor must append after existing rows, never clobber them.
  TempDir dir("append");
  const KeyedTrace trace = sample_trace();
  const MappedSegment segment(write_v2_file(dir, "s.kavb", trace, 2));
  OperationColumns columns;
  BlockCursor(segment, "alpha").decode_columns(columns);
  BlockCursor(segment, "beta").decode_columns(columns);
  const std::vector<Operation> alpha = ops_of(trace, "alpha");
  const std::vector<Operation> beta = ops_of(trace, "beta");
  ASSERT_EQ(columns.size(), alpha.size() + beta.size());
  EXPECT_EQ(columns.starts[0], alpha[0].start);
  EXPECT_EQ(columns.starts[alpha.size()], beta[0].start);
  EXPECT_EQ(columns.types[alpha.size()], 1);  // beta's write
}

// --- Corruption differential ----------------------------------------------

// Outcome of decoding one key through some path: the operations, or
// the exact error text. Comparing outcomes compares the contract.
struct DecodeOutcome {
  std::optional<std::vector<Operation>> ops;
  std::string error;

  bool operator==(const DecodeOutcome& other) const = default;
};

// Failure messages show the error text or the operation count, not
// the object's bytes.
void PrintTo(const DecodeOutcome& outcome, std::ostream* os) {
  if (outcome.ops) {
    *os << outcome.ops->size() << " operations";
  } else {
    *os << "error \"" << outcome.error << "\"";
  }
}

template <typename Fn>
DecodeOutcome outcome_of(Fn&& decode) {
  DecodeOutcome outcome;
  try {
    outcome.ops = decode();
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
  }
  return outcome;
}

TEST(BlockCursor, EverySingleByteCorruptionMatchesReadKeyExactly) {
  // Flip every byte of a small segment (two keys, two or three records
  // per block so corruption can hit chunk headers, key tables, records
  // -- a block's last one included -- and the footer) and require
  // read_key and the column decoder to agree byte-for-byte on the
  // result -- operations or error message. This is the enforcement of
  // the header's equivalence contract under arbitrary single-byte
  // damage, not just the corruptions we thought of. With block CRCs
  // verified, the checksum rejects every damaged record before either
  // decoder sees it; the sweep repeats with verification off so each
  // damaged record reaches both decoders' own record checks (key id,
  // type byte, start < finish), and requires every check to fire.
  TempDir dir("corrupt");
  KeyedTrace trace;
  trace.add("a", make_write(0, 10, 1, 1));
  trace.add("b", make_write(5, 15, 2, 2));
  trace.add("a", make_read(12, 20, 1, 3));
  trace.add("a", make_write(25, 30, 2, 1));
  trace.add("b", make_read(16, 22, 2, 4));
  std::size_t divergences = 0;
  std::size_t foreign = 0;
  std::size_t bad_type = 0;
  std::size_t bad_interval = 0;
  for (const std::size_t records_per_block : {2ULL, 3ULL}) {
    const std::string clean_path =
        write_v2_file(dir, "clean.kavb", trace, records_per_block);
    std::string bytes;
    {
      std::ifstream in(clean_path, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    ASSERT_FALSE(bytes.empty());

    const std::string mutant_path = dir.file("mutant.kavb");
    for (const bool verify_crc : {true, false}) {
      MappedSegmentOptions options;
      options.verify_block_crc = verify_crc;
      for (std::size_t at = 0; at < bytes.size(); ++at) {
        std::string mutant = bytes;
        mutant[at] = static_cast<char>(mutant[at] ^ 0x41);
        {
          std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
          out.write(mutant.data(),
                    static_cast<std::streamsize>(mutant.size()));
        }
        std::optional<MappedSegment> segment;
        try {
          segment.emplace(mutant_path, options);
        } catch (const std::exception&) {
          continue;  // open() failed identically for every path by sharing
        }
        if (!segment->indexed()) continue;  // version byte damage: no index
        for (const std::string key : {"a", "b"}) {
          const DecodeOutcome reference =
              outcome_of([&] { return segment->read_key(key); });
          const DecodeOutcome columns =
              outcome_of([&] { return decode_key(*segment, key); });
          EXPECT_EQ(columns, reference)
              << "decode_columns at byte " << at << " key " << key
              << " records_per_block " << records_per_block
              << " verify_crc " << verify_crc;
          if (reference.error.empty()) continue;
          ++divergences;
          const std::string& error = reference.error;
          foreign += error.find("foreign record") != std::string::npos;
          bad_type += error.find("bad record type byte") != std::string::npos;
          bad_interval +=
              error.find("start must be < finish") != std::string::npos;
        }
      }
    }
  }
  // Sanity: the sweep actually exercised corrupt-path agreement, on
  // each of the three record checks.
  EXPECT_GT(divergences, 0u);
  EXPECT_GT(foreign, 0u);
  EXPECT_GT(bad_type, 0u);
  EXPECT_GT(bad_interval, 0u);
}

}  // namespace
}  // namespace kav
