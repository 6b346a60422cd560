// Scratch files for suites that feed bytes to the file readers. A
// binary trace is read through one decoder -- the MappedSegment behind
// open_trace_source -- which maps a path, so in-memory byte strings
// reach it through a file. Also builds the unsealed v2 bytes that
// open_trace_source reads sequentially.
#ifndef KAV_TESTS_SCRATCH_FILE_H
#define KAV_TESTS_SCRATCH_FILE_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "history/keyed_trace.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "ingest/wire.h"

namespace kav::testing_util {

// A file under the gtest temp root, named after the pid, the running
// test and `tag`, so concurrent ctest -j processes never share a path.
// Removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& tag) {
    std::string test = "none";
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      test = std::string(info->test_suite_name()) + "." + info->name();
    }
    for (char& c : test) {
      if (c == '/') c = '_';  // parameterized names: Suite/Test/3
    }
    path_ = ::testing::TempDir() + "kav_" + std::to_string(::getpid()) + "_" +
            test + "_" + tag;
  }
  ~ScratchFile() { std::remove(path_.c_str()); }

  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

  // Replaces the file's contents with `bytes`.
  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write scratch file " + path_);
  }

 private:
  std::string path_;
};

// Reads `bytes` the way every caller reads a trace file:
// drain(*open_trace_source(path)).
inline KeyedTrace read_trace_bytes(const std::string& bytes) {
  const ScratchFile file("read.kavb");
  file.write(bytes);
  return drain(*open_trace_source(file.path()));
}

// A v2 segment whose writer died right after the footer sentinel: the
// chunk stream ends cleanly, the index never landed, so
// open_trace_source serves it sequentially.
inline std::string unsealed_v2_bytes(const KeyedTrace& trace,
                                     std::size_t records_per_chunk = 2) {
  std::stringstream out;
  write_binary_trace(out, trace, records_per_chunk, kBinaryTraceVersion2);
  std::string bytes = out.str();
  const std::size_t trailer = bytes.size() - kBinaryTraceTrailerBytes;
  const std::uint64_t payload_bytes = wire::load_u64(
      reinterpret_cast<const unsigned char*>(bytes.data()) + trailer);
  bytes.resize(trailer - payload_bytes);
  return bytes;
}

}  // namespace kav::testing_util

#endif  // KAV_TESTS_SCRATCH_FILE_H
