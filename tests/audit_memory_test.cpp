// Memory bound of the file audit: Engine::verify over an unindexed
// .kavb file groups operations into per-key rows while reading (32
// bytes per op), so the operations are held once -- no intermediate
// KeyedTrace (64 bytes per op plus its vector's slack) -- and each
// key's History is built from its rows only on the worker that decides
// it, so the histories are never all resident at once. Peak RSS growth
// is measured the way kavbench measures it: clear_refs resets VmHWM,
// and the growth of VmHWM over the VmRSS baseline, less file-backed
// pages, is the audit's footprint.
//
// Skipped under sanitizers (their shadow memory and quarantine swamp
// the measurement) and where /proc/self/clear_refs is not writable.
#include <gtest/gtest.h>
#include <malloc.h>

#include <fstream>
#include <memory>
#include <string>

#include "core/engine.h"
#include "ingest/binary_trace.h"
#include "ingest/trace_source.h"
#include "quorum/sim.h"
#include "scratch_file.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KAV_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KAV_UNDER_SANITIZER 1
#endif
#endif

namespace kav {
namespace {

// A /proc/self/status field in kB, or -1 when absent.
long status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// The bound, in bytes of peak RSS growth per audited operation. The
// grouped rows (32 bytes per op with vector slack) and the histories
// of the keys in flight fit under it (~45 B/op measured); keeping every
// key's History resident until the last key is decided (29 bytes of
// operation columns plus ~32 bytes of indexes per op, see
// history/history.h: ~61 B/op measured) does not, nor does holding the
// trace a second time as a KeyedTrace (64 bytes per op).
constexpr double kMaxBytesPerOp = 56.0;

TEST(FileAudit, PeakMemoryPerOperationIsBounded) {
#ifdef KAV_UNDER_SANITIZER
  GTEST_SKIP() << "peak RSS is meaningless under sanitizers";
#endif
  // The benchmark's audit input, scaled down: a sloppy-quorum trace
  // whose raw clock makes most keys repairable.
  quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.first_responders = false;
  config.anti_entropy = true;
  config.anti_entropy_interval = 20;
  config.clients = 64;
  config.keys = 256;
  config.ops_per_client = 4'000;
  config.seed = 11;
  const testing_util::ScratchFile file("audit.kavb");
  std::size_t ops = 0;
  {
    const KeyedTrace trace = quorum::run_sloppy_quorum_sim(config).trace;
    ops = trace.size();
    write_binary_trace_file(file.path(), trace);
  }
  ASSERT_GE(ops, 200'000u);

  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  malloc_trim(0);
  if (!reset_peak_rss() || status_kb("VmHWM") < 0) {
    GTEST_SKIP() << "cannot reset peak RSS (/proc/self/clear_refs)";
  }
  const long baseline_kb = status_kb("VmRSS");
  const long baseline_file_kb = status_kb("RssFile");

  const Report report = engine.verify(*open_trace_source(file.path()));

  const long file_growth_kb = status_kb("RssFile") - baseline_file_kb;
  const double peak_bytes =
      static_cast<double>(status_kb("VmHWM") - baseline_kb - file_growth_kb) *
      1024.0;
  const double bytes_per_op = peak_bytes / static_cast<double>(ops);
  RecordProperty("ops", static_cast<int>(ops));
  RecordProperty("bytes_per_op", static_cast<int>(bytes_per_op));
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(report.per_key.size(), 256u);
  EXPECT_LT(bytes_per_op, kMaxBytesPerOp)
      << "peak RSS grew " << peak_bytes / (1 << 20) << " MiB over " << ops
      << " ops";
}

}  // namespace
}  // namespace kav
