// Regression tests for the lock-discipline findings the thread-safety
// annotation pass (util/thread_safety.h) surfaced. Each test pins a
// cross-thread interleaving that the annotations now prove locked:
//
//   * ~KeyedStreamingMonitor reads each key's last_reorder_pending to
//     retire its share of the kav_monitor_reorder_pending gauge. That
//     read used to be unlocked -- ordered only indirectly, through the
//     drains_mutex_ release of the last drain task. It now takes the
//     key's process_mutex, so the contract holds even if the quiesce
//     protocol is ever reshaped.
//   * KeyedStreamingMonitor's per-key state is a vector indexed by key
//     id. The ingester appends to it when a chunk names new keys;
//     stats() and finish() walk it from other threads under the shared
//     side of keys_mutex_, so registration takes the exclusive side.
//   * TraceStore's writer paths (compact, run_maintenance, retention,
//     append's manifest build) scanned segments_/numbers_ with no lock
//     at all, leaning on writer serialization for the writes and on
//     nothing for concurrent readers. They now take the shared side of
//     segments_mutex_ like every other reader.
//
// These suites run under the `unit` label on purpose: ci.sh --tsan
// executes that label, so every interleaving here is exercised under
// ThreadSanitizer -- the runtime check that pairs with the
// -Wthread-safety compile-time proof from ci.sh --tidy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "chunk_feed.h"
#include "history/keyed_trace.h"
#include "history/operation.h"
#include "ingest/keyed_monitor.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"
#include "store/trace_store.h"

namespace kav {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("kav_conc_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

KeyedTrace small_trace(int salt) {
  KeyedTrace trace;
  for (int i = 0; i < 64; ++i) {
    const TimePoint start = 10 * i + salt;
    trace.add("key" + std::to_string(i % 4),
              make_write(start, start + 5, i + 1));
  }
  return trace;
}

// Destroying a monitor right after a burst of ingest leaves drain
// tasks racing the destructor's gauge-retirement scan (which reads
// per-key reorder state). Repeat the construct/ingest/destroy cycle so
// TSan sees many such windows; concurrent stats() calls add readers of
// the same per-key state.
TEST(ConcurrencyRegression, MonitorDestructionRacesDrainTasks) {
  obs::MetricsRegistry registry;
  pipeline::ThreadPool pool(4, &registry);
  for (int round = 0; round < 20; ++round) {
    EngineOptions options;
    options.reorder_slack = 50;
    KeyedStreamingMonitor monitor(pool, registry, options);

    std::atomic<bool> stop{false};
    std::thread prober([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)monitor.stats();
      }
    });
    testing_util::ChunkFeeder(monitor).ingest(small_trace(round), 8);
    stop.store(true, std::memory_order_release);
    prober.join();
    // The destructor runs here, concurrently with any still-queued
    // drain task -- the interleaving under test.
  }
  // The per-monitor gauge shares must cancel out across all rounds.
  double backlog = -1.0, pending = -1.0, active = -1.0;
  for (const obs::MetricSnapshot& m : registry.snapshot().metrics) {
    if (m.name == "kav_monitor_queue_backlog") backlog = m.value;
    if (m.name == "kav_monitor_reorder_pending") pending = m.value;
    if (m.name == "kav_monitor_active_keys") active = m.value;
  }
  EXPECT_EQ(backlog, 0.0);
  EXPECT_EQ(pending, 0.0);
  EXPECT_EQ(active, 0.0);
}

// The monitor's key list grows while stats() walks it: every chunk
// names new keys (first-seen registration appends to the id-indexed
// state vector, reallocating it as it grows) while a prober snapshots
// the totals. The prober must only ever see a consistent, growing
// prefix.
TEST(ConcurrencyRegression, MonitorStatsRaceKeyRegistration) {
  obs::MetricsRegistry registry;
  pipeline::ThreadPool pool(2, &registry);
  EngineOptions options;
  options.reorder_slack = 50;
  KeyedStreamingMonitor monitor(pool, registry, options);

  KeyedTrace trace;
  for (int i = 0; i < 2'000; ++i) {
    // Each op on a fresh key: every chunk registers all of its keys.
    trace.add("fresh" + std::to_string(i), make_write(i, i + 5, i + 1));
  }
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    std::size_t last_keys = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MonitorStats stats = monitor.stats();
      EXPECT_GE(stats.keys, last_keys);
      EXPECT_LE(stats.operations_ingested, 2'000u);
      last_keys = stats.keys;
    }
  });
  testing_util::ChunkFeeder(monitor).ingest(trace, 16);
  stop.store(true, std::memory_order_release);
  prober.join();
  const Report report = monitor.finish();
  EXPECT_EQ(report.per_key.size(), 2'000u);
  EXPECT_EQ(report.monitor_totals.operations_ingested, 2'000u);
}

// Writers (append + synchronous maintenance with folds and retention)
// against concurrent readers of every flavor: the writer-side scans of
// segments_/numbers_ now hold the shared lock, so TSan must stay
// silent while readers copy the same vectors. Key readers go through
// open_source(), as every read of a store's keys does, and count their
// bloom probes into the registry the writers also update.
TEST(ConcurrencyRegression, StoreWritersRaceReaders) {
  TempDir dir("store_rw");
  obs::MetricsRegistry registry;
  TraceStore store(dir.path(), &registry);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &stop, r] {
      while (!stop.load(std::memory_order_acquire)) {
        switch (r) {
          case 0:
            (void)store.segments();
            (void)store.total_records();
            break;
          case 1: {
            const auto source = store.open_source();
            (void)source->stat("key1");
            (void)source->stat("key2");
            (void)source->load_key("key3");
            break;
          }
          default:
            (void)store.segment_count();
            (void)store.open_source()->selectable_keys();
            break;
        }
      }
    });
  }

  CompactionOptions compaction;
  compaction.fanout = 2;
  compaction.tier0_records = 128;
  compaction.retain_bytes = 1 << 20;
  for (int round = 0; round < 12; ++round) {
    store.append(small_trace(round));
    store.run_maintenance(compaction);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GE(store.segment_count(), 1u);
  EXPECT_EQ(store.total_records(), 12u * 64u);
  EXPECT_TRUE(store.fsck().ok());
}

// Background compaction quiesce against appends from another thread:
// disable_background_compaction's wait loop and the maintenance task's
// bg_running_ handoff are the cv protocol the annotations now pin.
TEST(ConcurrencyRegression, BackgroundCompactionQuiesceRacesAppends) {
  TempDir dir("store_bg");
  obs::MetricsRegistry registry;
  pipeline::ThreadPool pool(2, &registry);
  TraceStore store(dir.path(), &registry);

  CompactionOptions compaction;
  compaction.fanout = 2;
  compaction.tier0_records = 128;
  for (int round = 0; round < 6; ++round) {
    store.enable_background_compaction(pool, compaction);
    std::thread appender([&store, round] {
      store.append(small_trace(2 * round));
      store.append(small_trace(2 * round + 1));
    });
    store.disable_background_compaction();
    appender.join();
  }
  store.disable_background_compaction();  // idempotent
  EXPECT_EQ(store.last_maintenance_error(), "");
  EXPECT_EQ(store.total_records(), 12u * 64u);
  EXPECT_TRUE(store.fsck().ok());
}

}  // namespace
}  // namespace kav
