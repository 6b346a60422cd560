// Hostile bytes on the one sequential .kavb decoder: every single-byte
// mutation and every truncation of a small v1 file and of an unsealed
// v2 segment, each read the way callers read trace files --
// drain(*open_trace_source(path)). A read must either return a trace
// or throw std::runtime_error; a binary-sniffed file's error must name
// the byte offset. The untouched files round-trip exactly.
//
// The text trace parser gets the same treatment: every truncation and
// every substitution from a small alphabet of a ~10-line seed, plus a
// seeded random-mutation driver, each through TextTraceTestOneInput,
// which is shaped like LLVMFuzzerTestOneInput so a libFuzzer build can
// link it unchanged. Every input must be read or rejected with
// std::runtime_error, and every accepted trace must round-trip through
// write_trace and parse_trace.
//
// The store's MANIFEST parser gets it too, through
// ManifestTestOneInput (also shaped like LLVMFuzzerTestOneInput): each
// input is written as the MANIFEST of a scratch store that holds three
// valid segments, and the store is opened. Every single-byte
// substitution and every truncation of the committed manifest, raw and
// re-sealed (CRC32C recomputed, so a mutation reaches the line parser
// instead of stopping at the checksum), plus 3000 seeded random
// re-sealed mutants: every input must open or throw std::runtime_error.
//
// Also enforces the sequential source's memory bound: draining a file
// larger than 32 MiB keeps only O(1 MiB) of it resident (RssFile).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "history/keyed_trace.h"
#include "history/serialization.h"
#include "ingest/wire.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "obs/metrics.h"
#include "scratch_file.h"
#include "store/indexed_source.h"
#include "store/trace_store.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace kav {
namespace {

using testing_util::ScratchFile;
using testing_util::unsealed_v2_bytes;

KeyedTrace small_trace() {
  KeyedTrace trace;
  trace.add("alpha", make_write(0, 10, 42, 7));
  trace.add("beta", make_write(-5, 3, 1));
  trace.add("alpha", make_read(12, 20, 42));
  trace.add("gamma", make_write(1, 2, 9, 1));
  trace.add("beta", make_read(4, 9, 1, 3));
  return trace;
}

std::string v1_bytes(const KeyedTrace& trace) {
  std::stringstream out;
  write_binary_trace(out, trace, /*records_per_chunk=*/2);
  return out.str();
}

// v2 streams records in block (per-key) order, so the exact round trip
// is the same operations in the same order within each key.
void expect_same_per_key(const KeyedTrace& expected, const KeyedTrace& got) {
  ASSERT_EQ(expected.size(), got.size());
  const KeyedHistories want = split_by_key(expected);
  const KeyedHistories have = split_by_key(got);
  for (const auto& [key, ops] : want.per_key) {
    const History& back = have.per_key.at(key);
    ASSERT_EQ(back.size(), ops.size()) << key;
    for (OpId id = 0; id < ops.size(); ++id) {
      EXPECT_EQ(back.op(id), ops.op(id)) << key << " op " << id;
    }
  }
}

// Reads `bytes` through `file`; fails the test unless the read returns
// or throws std::runtime_error, with a byte offset when the bytes
// still sniff as binary. Returns true when the read threw.
bool read_or_reject(const ScratchFile& file, const std::string& bytes,
                    const std::string& what) {
  file.write(bytes);
  try {
    drain(*open_trace_source(file.path()));
    return false;
  } catch (const std::runtime_error& e) {
    if (is_binary_trace_file(file.path())) {
      EXPECT_NE(std::string(e.what()).find("at byte "), std::string::npos)
          << what << ": " << e.what();
    }
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-runtime_error " << e.what();
    return true;
  }
}

void fuzz_every_byte(const KeyedTrace& trace, const std::string& clean) {
  const ScratchFile file("mutant.kavb");
  file.write(clean);
  expect_same_per_key(trace, drain(*open_trace_source(file.path())));

  std::size_t rejected = 0;
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (int delta = 1; delta < 256; ++delta) {
      std::string bytes = clean;
      bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                    static_cast<unsigned char>(delta));
      rejected += read_or_reject(file, bytes,
                                 "byte " + std::to_string(at) + " ^ " +
                                     std::to_string(delta));
    }
  }
  for (std::size_t length = 0; length < clean.size(); ++length) {
    read_or_reject(file, clean.substr(0, length),
                   "truncated to " + std::to_string(length));
  }
  // Sanity: the sweep hit the decoder's error paths, not just bytes it
  // never reads.
  EXPECT_GT(rejected, clean.size());
}

TEST(DecodeFuzz, EveryMutationOfAV1FileIsReadOrRejected) {
  const KeyedTrace trace = small_trace();
  {
    // v1 keeps arrival order across keys too.
    const ScratchFile file("clean.kavb");
    file.write(v1_bytes(trace));
    const KeyedTrace back = drain(*open_trace_source(file.path()));
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(back.ops[i].key, trace.ops[i].key) << "op " << i;
      EXPECT_EQ(back.ops[i].op, trace.ops[i].op) << "op " << i;
    }
  }
  fuzz_every_byte(trace, v1_bytes(trace));
}

TEST(DecodeFuzz, EveryMutationOfAnUnsealedV2FileIsReadOrRejected) {
  const KeyedTrace trace = small_trace();
  const std::string bytes = unsealed_v2_bytes(trace);
  {
    const ScratchFile file("unsealed.kavb");
    file.write(bytes);
    // Unsealed: served by the sequential source, not the index.
    EXPECT_EQ(dynamic_cast<IndexedTraceSource*>(
                  open_trace_source(file.path()).get()),
              nullptr);
  }
  fuzz_every_byte(trace, bytes);
}

// --- Text traces -------------------------------------------------------------

// Reads `data` the way callers read a trace file,
// drain(*open_trace_source(path)), and returns 0 when the bytes were
// read or rejected with std::runtime_error. Anything else escapes as an
// exception: another exception type from the reader, or a
// std::logic_error when an accepted trace does not come back unchanged
// from write_trace and parse_trace.
int TextTraceTestOneInput(const std::uint8_t* data, std::size_t size) {
  KeyedTrace trace;
  try {
    trace = testing_util::read_trace_bytes(
        std::string(reinterpret_cast<const char*>(data), size));
  } catch (const std::runtime_error&) {
    return 0;
  }
  std::ostringstream out;
  write_trace(out, trace);
  const KeyedTrace back = parse_trace(out.str());
  bool same = back.size() == trace.size();
  for (std::size_t i = 0; same && i < trace.size(); ++i) {
    same = back.ops[i].key == trace.ops[i].key &&
           back.ops[i].op == trace.ops[i].op;
  }
  if (!same) throw std::logic_error("text trace does not round-trip");
  return 0;
}

// Runs one input through the entry point; false (and a test failure
// naming `what`) when anything escapes it.
bool text_input_survives(const std::string& bytes, const std::string& what) {
  try {
    TextTraceTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                          bytes.size());
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception";
  }
  return false;
}

// Comments, a blank line, both type spellings, negative numbers, an
// optional client, CRLF and trailing whitespace.
const std::string kTextSeed =
    "# kav trace v1\n"
    "op alpha W 42 0 10 7\n"
    "op beta W 1 -5 3\n"
    "\n"
    "op alpha R 42 12 20\n"
    "# a comment line\n"
    "op gamma w 9 1 2 1\r\n"
    "op beta r 1 4 9 3\n"
    "op alpha W -43 25 30 0\t\n"
    "op delta W 7 -100 -90\n";

// Bytes that move the parser between states: end of string, token and
// line breaks, comment, sign, digit, type, and a non-ASCII byte.
constexpr char kTextAlphabet[] = {'\0', ' ', '\n', '#', '-', '9', 'W', '\xff'};

TEST(DecodeFuzz, TextSeedIsReadAndRoundTrips) {
  const KeyedTrace trace = testing_util::read_trace_bytes(kTextSeed);
  EXPECT_EQ(trace.size(), 7u);
  EXPECT_TRUE(text_input_survives(kTextSeed, "seed"));
}

TEST(DecodeFuzz, EveryTruncationAndSubstitutionOfATextTraceIsReadOrRejected) {
  for (std::size_t length = 0; length < kTextSeed.size(); ++length) {
    text_input_survives(kTextSeed.substr(0, length),
                        "truncated to " + std::to_string(length));
  }
  for (std::size_t at = 0; at < kTextSeed.size(); ++at) {
    for (const char c : kTextAlphabet) {
      std::string bytes = kTextSeed;
      bytes[at] = c;
      text_input_survives(bytes, "byte " + std::to_string(at) + " = " +
                                     std::to_string(static_cast<int>(c)));
    }
  }
}

TEST(DecodeFuzz, RandomMutationsOfATextTraceAreReadOrRejected) {
  // 1-4 edits per input: overwrite, insert or delete a byte (from the
  // alphabet above or any byte), or splice in a copy of another span.
  Rng rng(0x7E47);
  for (int trial = 0; trial < 3'000; ++trial) {
    std::string bytes = kTextSeed;
    for (std::uint64_t edits = 1 + rng.bounded(4); edits > 0; --edits) {
      const std::size_t at = bytes.empty() ? 0 : rng.bounded(bytes.size());
      const char c = rng.bounded(2) == 0
                         ? kTextAlphabet[rng.bounded(sizeof kTextAlphabet)]
                         : static_cast<char>(rng.bounded(256));
      switch (rng.bounded(4)) {
        case 0:
          if (!bytes.empty()) bytes[at] = c;
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        case 2:
          if (!bytes.empty()) bytes.erase(at, 1);
          break;
        default: {
          const std::size_t from = rng.bounded(kTextSeed.size());
          bytes.insert(at, kTextSeed, from, 1 + rng.bounded(24));
          break;
        }
      }
    }
    text_input_survives(bytes, "trial " + std::to_string(trial));
  }
}

// --- Store MANIFEST ----------------------------------------------------------

// A store directory holding three valid segments, built once per
// process, with the bytes of each segment and of the MANIFEST their
// appends committed. An open sweeps segments its manifest does not
// name, so restore() puts them back before every input.
class ManifestStore {
 public:
  ManifestStore()
      : dir_(std::filesystem::path(::testing::TempDir()) /
             ("kav_" + std::to_string(::getpid()) + "_manifest_store")) {
    std::filesystem::remove_all(dir_);
    {
      TraceStore store(dir_, &metrics_);
      for (int segment = 0; segment < 3; ++segment) {
        KeyedTrace trace;
        const TimePoint base = 100 * segment;
        trace.add("k" + std::to_string(segment),
                  make_write(base, base + 5, segment + 1));
        trace.add("shared", make_write(base + 10, base + 15, 10 + segment));
        trace.add("shared", make_read(base + 20, base + 25, 10 + segment));
        store.append(trace);
      }
    }
    manifest_ = read_file(dir_ / "MANIFEST");
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".kavb") {
        segments_.emplace_back(entry.path(), read_file(entry.path()));
      }
    }
  }
  ~ManifestStore() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ManifestStore(const ManifestStore&) = delete;
  ManifestStore& operator=(const ManifestStore&) = delete;

  const std::string& manifest() const { return manifest_; }
  std::size_t segment_count() const { return segments_.size(); }

  // Writes `bytes` as the MANIFEST over the original segments and opens
  // the store: "" when it opened, else the std::runtime_error's
  // message. Anything else escapes, as does a std::logic_error when an
  // open serves more segments than the directory holds.
  std::string open_with_manifest(const std::string& bytes) {
    for (const auto& [path, contents] : segments_) {
      if (!std::filesystem::exists(path)) write_file(path, contents);
    }
    write_file(dir_ / "MANIFEST", bytes);
    try {
      const TraceStore store(dir_, &metrics_);
      if (store.segment_count() > segments_.size()) {
        throw std::logic_error("manifest opened phantom segments");
      }
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

 private:
  static std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  static void write_file(const std::filesystem::path& path,
                         const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::logic_error("cannot write " + path.string());
  }

  std::filesystem::path dir_;
  obs::MetricsRegistry metrics_;
  std::string manifest_;
  std::vector<std::pair<std::filesystem::path, std::string>> segments_;
};

ManifestStore& manifest_store() {
  static ManifestStore store;
  return store;
}

// Writes `data` as the MANIFEST of a store holding three valid segments
// and opens it. Returns 0 when the store opened or threw
// std::runtime_error; anything else escapes.
int ManifestTestOneInput(const std::uint8_t* data, std::size_t size) {
  manifest_store().open_with_manifest(
      std::string(reinterpret_cast<const char*>(data), size));
  return 0;
}

bool manifest_input_survives(const std::string& bytes,
                             const std::string& what) {
  try {
    ManifestTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception";
  }
  return false;
}

// The manifest minus its checksum line.
std::string manifest_body(const std::string& manifest) {
  return manifest.substr(0, manifest.rfind("crc32c "));
}

// `body` closed by a checksum line that matches it.
std::string reseal(const std::string& body) {
  char line[32];
  std::snprintf(line, sizeof line, "crc32c %08x\n",
                crc::crc32c(body.data(), body.size()));
  return body + line;
}

TEST(DecodeFuzz, CommittedManifestOpensEverySegment) {
  ManifestStore& store = manifest_store();
  ASSERT_EQ(store.segment_count(), 3u);
  EXPECT_EQ(reseal(manifest_body(store.manifest())), store.manifest());
  EXPECT_EQ(store.open_with_manifest(store.manifest()), "");
  // A re-sealed edit reaches the line parser, not just the checksum.
  std::string body = manifest_body(store.manifest());
  const std::size_t seg = body.rfind("seg ");
  ASSERT_NE(seg, std::string::npos);
  body[seg + 2] = 'x';
  const std::string rejected = store.open_with_manifest(reseal(body));
  EXPECT_NE(rejected.find("bad segment line"), std::string::npos) << rejected;
  EXPECT_NE(store.open_with_manifest(body + "crc32c 00000000\n")
                .find("checksum mismatch"),
            std::string::npos);
}

TEST(DecodeFuzz, EveryTruncationAndSubstitutionOfAManifestOpensOrThrows) {
  const std::string manifest = manifest_store().manifest();
  const std::string body = manifest_body(manifest);
  for (const bool resealed : {false, true}) {
    const std::string& seed = resealed ? body : manifest;
    const auto finish = [&](const std::string& bytes) {
      return resealed ? reseal(bytes) : bytes;
    };
    const std::string tag = resealed ? "resealed " : "raw ";
    for (std::size_t length = 0; length < seed.size(); ++length) {
      manifest_input_survives(finish(seed.substr(0, length)),
                              tag + "truncated to " + std::to_string(length));
    }
    for (std::size_t at = 0; at < seed.size(); ++at) {
      for (int value = 0; value < 256; ++value) {
        if (static_cast<char>(value) == seed[at]) continue;
        std::string bytes = seed;
        bytes[at] = static_cast<char>(value);
        manifest_input_survives(finish(bytes),
                                tag + "byte " + std::to_string(at) + " = " +
                                    std::to_string(value));
      }
    }
  }
}

// Bytes of the manifest grammar: digits, separators, keywords.
constexpr char kManifestAlphabet[] = "0123456789 \nsegnext";

TEST(DecodeFuzz, RandomResealedManifestMutantsOpenOrThrow) {
  // 1-4 edits per input on the body (overwrite, insert or delete a
  // byte, or splice in a copy of another span), then re-sealed.
  const std::string body = manifest_body(manifest_store().manifest());
  Rng rng(0x3A41);
  for (int trial = 0; trial < 3'000; ++trial) {
    std::string bytes = body;
    for (std::uint64_t edits = 1 + rng.bounded(4); edits > 0; --edits) {
      const std::size_t at = bytes.empty() ? 0 : rng.bounded(bytes.size());
      const char c =
          rng.bounded(2) == 0
              ? kManifestAlphabet[rng.bounded(sizeof kManifestAlphabet - 1)]
              : static_cast<char>(rng.bounded(256));
      switch (rng.bounded(4)) {
        case 0:
          if (!bytes.empty()) bytes[at] = c;
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        case 2:
          if (!bytes.empty()) bytes.erase(at, 1);
          break;
        default: {
          const std::size_t from = rng.bounded(body.size());
          bytes.insert(at, body, from, 1 + rng.bounded(12));
          break;
        }
      }
    }
    manifest_input_survives(reseal(bytes), "trial " + std::to_string(trial));
  }
}

// Resident file-backed pages of this process, in bytes.
std::uint64_t rss_file_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssFile:", 0) == 0) {
      return std::stoull(line.substr(8)) * 1024;  // reported in kB
    }
  }
  return 0;
}

TEST(DecodeFuzz, DrainingALargeFileKeepsFewPagesResident) {
  if (rss_file_bytes() == 0) GTEST_SKIP() << "no RssFile in /proc/self/status";
  constexpr std::uint64_t kRecords = 1'050'000;  // ~33 MiB of records
  const ScratchFile file("large.kavb");
  {
    std::ofstream out(file.path(), std::ios::binary);
    BinaryTraceWriter writer(out);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const auto t = static_cast<TimePoint>(10 * i);
      writer.add("k" + std::to_string(i % 64),
                 make_write(t, t + 5, static_cast<Value>(i)));
    }
    writer.flush();
  }
  {
    std::ifstream in(file.path(), std::ios::binary | std::ios::ate);
    ASSERT_GE(static_cast<std::uint64_t>(in.tellg()), 32u << 20);
  }

  const std::uint64_t before = rss_file_bytes();
  std::uint64_t peak = before;
  auto source = open_trace_source(file.path());
  KeyedChunk chunk;
  std::uint64_t records = 0;
  while (source->pull(chunk, 4'096, std::chrono::milliseconds(0)) !=
         TraceSource::Pull::closed) {
    records += chunk.ops.size();
    peak = std::max(peak, rss_file_bytes());
  }
  peak = std::max(peak, rss_file_bytes());
  EXPECT_EQ(records, kRecords);
  EXPECT_LE(peak - before, std::uint64_t{4} << 20)
      << "draining kept " << (peak - before) / 1024 << " KiB of the file "
      << "resident";
}

}  // namespace
}  // namespace kav
