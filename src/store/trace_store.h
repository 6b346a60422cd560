// TraceStore: a persistent repository of trace segments -- the
// out-of-core answer to "audit a multi-gigabyte trace without loading
// it". A store is a directory of numbered, indexed .kavb v2.1 segment
// files (seg-000001.kavb, seg-000002.kavb, ...) plus a MANIFEST
// naming the live segment set; every batch of operations appended
// becomes one immutable segment written via SegmentWriter, and every
// read goes through mmap-backed MappedSegments, so the store's memory
// footprint is O(keys + blocks) regardless of how many operations are
// on disk.
//
// Replay order is MANIFEST order (for freshly appended segments that
// is also number order; a compaction's folded segment keeps its
// victims' position under a new number). Within a segment the stream
// order is block order (key-grouped), with every key's own operation
// sequence preserved exactly -- so PER-KEY replay equals append order
// end to end (the only order verification depends on; see
// docs/FORMATS.md on v2 stream order), while cross-key interleaving
// is not reproduced.
//
// Durability: every mutation commits by atomic rename. A segment is
// born as seg-N.kavb.tmp, fsynced, renamed; the mutation then commits
// by writing a new MANIFEST (write MANIFEST.tmp + fsync + rename +
// directory fsync). Reopen serves exactly the manifest's segments and
// sweeps everything else (*.tmp leftovers, segments a crash stranded
// between rename and manifest commit), so a crash at ANY step leaves
// the store bit-identical to either the before or the after state --
// in particular compact() can no longer double-replay its victims
// (tests/store_crash_test.cpp proves every window). A directory
// without a MANIFEST (created by an older build) adopts every
// seg-*.kavb in number order and writes one.
//
// Reads: every read of the store's records goes through open_source(),
// an IndexedTraceSource over a snapshot of the segment set -- streamed
// by pull(), or looked up by key (stat / load_key, each skipping
// segments whose bloom filter rules the key out). The store itself lists no keys and decodes no records; it
// writes, compacts, and counts its sources' bloom probes into its
// kav_store_bloom_* counters.
//
// Integrity: segments carry the v2.1 CRC + bloom pages; reads verify
// block checksums transparently, and fsck() re-verifies every byte on
// demand.
//
// Concurrency: const methods are safe to call concurrently with each
// other AND with writers (they serve an immutable snapshot of the
// segment set). Writers (append/import_file/compact/run_maintenance)
// serialize on an internal mutex. Background compaction, when
// enabled, runs run_maintenance() on a borrowed ThreadPool after each
// append; disable_background_compaction() (or the destructor)
// quiesces it -- destroy the store before the pool.
#ifndef KAV_STORE_TRACE_STORE_H
#define KAV_STORE_TRACE_STORE_H

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "history/keyed_trace.h"
#include "store/indexed_source.h"
#include "store/mapped_segment.h"
#include "store/segment_writer.h"
#include "util/thread_safety.h"

namespace kav {

namespace pipeline {
class ThreadPool;
}

struct SegmentInfo {
  std::filesystem::path path;
  std::uint64_t records = 0;
  std::size_t keys = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

// Policy for run_maintenance() / background compaction. Segments are
// binned into size tiers (tier t holds [tier0_records * fanout^t,
// tier0_records * fanout^(t+1)) records); when `fanout` adjacent
// segments share a tier, they fold into one segment of the next tier
// -- the classic tiered-LSM shape: every record is rewritten O(log
// total / log fanout) times, and segment counts stay logarithmic in
// data size.
struct CompactionOptions {
  std::size_t fanout = 4;          // segments per tier that trigger a fold
  std::size_t records_per_block = 4096;  // re-blocking granularity of folds
  std::uint64_t tier0_records = 1 << 16;  // tier-0 upper bound (records)
  // Retention cap in bytes; 0 = unlimited. When the store exceeds it
  // after folding, the OLDEST segments are dropped (never below one
  // segment). This deletes data -- it is for bounded-disk monitoring
  // deployments, not archival stores.
  std::uint64_t retain_bytes = 0;
};

// What fsck() found. `errors` is human-readable, one line per
// problem; an empty list means every block of every segment
// structurally validated, checksummed (v2.1), and decoded cleanly.
struct FsckReport {
  std::size_t segments = 0;
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;  // records that decoded cleanly
  // Legacy 'KAVI' segments: readable, served, but carrying no CRC or
  // bloom pages to check (compaction rewrites them as v2.1).
  std::size_t segments_without_integrity = 0;
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
};

namespace store_detail {

// seg-000001.kavb -> 1; nullopt for anything else, INCLUDING digit
// strings that overflow uint64 (silent wrapping would let two
// distinct filenames collide to one segment number).
std::optional<std::uint64_t> parse_segment_number(const std::string& name);

// The tiered-compaction policy, pure and separately testable: given
// the live segments' record counts in replay order, returns the
// (first index, count) of the oldest run of >= fanout adjacent
// same-tier segments, or nullopt when nothing should fold. Only
// ADJACENT runs are ever folded -- folding non-adjacent segments
// would splice their keys' replay order.
std::optional<std::pair<std::size_t, std::size_t>> pick_fold_range(
    const std::vector<std::uint64_t>& segment_records,
    const CompactionOptions& options);

}  // namespace store_detail

class TraceStore {
 public:
  // Opens (creating the directory if needed), recovers to the
  // MANIFEST's segment set (sweeping *.tmp leftovers and segments a
  // crash stranded outside the manifest), and maps every live
  // segment. Throws std::runtime_error when the directory cannot be
  // created, the manifest is corrupt or names a missing segment, or a
  // live segment is corrupt or unindexed.
  //
  // The store instruments itself (kav_store_* series: appends,
  // compaction folds, bloom hit/miss, CRC failures, fsck results, and
  // segments/bytes/records level gauges) into `metrics`; nullptr means
  // the process registry, obs::MetricsRegistry::global(), and
  // Engine::open_store injects the engine's. The registry must outlive
  // the store. The level gauges describe ONE store -- point several
  // stores at distinct registries if their sizes must stay apart.
  explicit TraceStore(std::filesystem::path directory,
                      obs::MetricsRegistry* metrics = nullptr);
  // Quiesces background compaction (waits for an in-flight pass).
  ~TraceStore();

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  const std::filesystem::path& directory() const { return directory_; }
  std::size_t segment_count() const KAV_EXCLUDES(segments_mutex_);
  std::vector<SegmentInfo> segments() const KAV_EXCLUDES(segments_mutex_);
  std::uint64_t total_records() const KAV_EXCLUDES(segments_mutex_);

  // Writes `trace` as a new indexed segment; returns its path.
  std::filesystem::path append(const KeyedTrace& trace,
                               std::size_t records_per_block = 4096)
      KAV_EXCLUDES(writer_mutex_);
  // Streams a trace file in any readable format (text, .kavb v1 or
  // v2) into a new indexed segment. A binary input is mapped, not
  // loaded: an unindexed one keeps about 1 MiB resident as it is
  // walked, an indexed one is paged in by the kernel as it is read.
  // Returns the new segment's path.
  std::filesystem::path import_file(const std::string& path,
                                    std::size_t records_per_block = 4096)
      KAV_EXCLUDES(writer_mutex_);

  // The whole store as one source, and the one way to read it: pulled
  // in replay order, or looked up by key straight from the indexes
  // (store/indexed_source.h). The source holds shared mappings, so it
  // stays valid across later append()s and compactions (it serves the
  // segments that existed when it was opened, and their key count,
  // both read under one lock). Its per-key lookups count their bloom
  // probes into this store's kav_store_bloom_* counters, which must
  // therefore outlive the source (they live in the registry).
  std::unique_ptr<IndexedTraceSource> open_source() const
      KAV_EXCLUDES(segments_mutex_);

  // Folds the `first_n` oldest segments (0 = all) into one indexed
  // segment, re-blocked at records_per_block. No-op when fewer than
  // two segments would fold. Returns the segment count afterwards.
  // Crash-atomic: the fold commits via the MANIFEST rename; a crash
  // at any step reopens as either all victims or only the folded
  // segment, never both.
  std::size_t compact(std::size_t first_n = 0,
                      std::size_t records_per_block = 4096)
      KAV_EXCLUDES(writer_mutex_);

  // One synchronous maintenance pass: tiered folds per `options`
  // (pick_fold_range) until none applies, then retention. Returns the
  // number of folds + retention drops performed. This is exactly what
  // the background task runs; callers without a pool can drive it
  // directly.
  std::size_t run_maintenance(const CompactionOptions& options = {})
      KAV_EXCLUDES(writer_mutex_);

  // Re-verifies every live segment: footer structure, per-block
  // CRC32C, every record decode, bloom self-check. Read-only and
  // safe concurrently with everything else.
  FsckReport fsck() const;

  // Schedules run_maintenance(options) on `pool` after every append/
  // import (one pass in flight at a time). The pool is borrowed: it
  // must outlive the store (or a disable_background_compaction()
  // call). Replaces any earlier enable's pool/options.
  void enable_background_compaction(pipeline::ThreadPool& pool,
                                    CompactionOptions options = {})
      KAV_EXCLUDES(bg_mutex_);
  // Quiesce: no new passes are scheduled, and any in-flight pass has
  // finished when this returns. Idempotent.
  void disable_background_compaction() KAV_EXCLUDES(bg_mutex_);
  // Last error a background pass swallowed ("" when none): background
  // maintenance must not crash the process, so failures land here.
  std::string last_maintenance_error() const KAV_EXCLUDES(bg_mutex_);

 private:
  std::filesystem::path segment_path(std::uint64_t number) const;
  std::filesystem::path manifest_path() const;

  // Reader-side view of the live segment set. Cheap (shared_ptr
  // copies) and immutable once taken.
  std::vector<std::shared_ptr<const MappedSegment>> snapshot() const
      KAV_EXCLUDES(segments_mutex_);

  // Writes a segment file at `number` from `feed(writer)`, maps it,
  // and returns the mapping. The file is written under a .tmp name,
  // fsynced (POSIX; best effort), renamed into place, and the
  // directory is fsynced. On any failure the .tmp (and, past the
  // rename, the final file) is unlinked before the exception leaves
  // -- nothing to leak, no segment number burned (the caller only
  // advances next_number_ on success).
  template <typename Feed>
  std::shared_ptr<const MappedSegment> write_segment(
      std::uint64_t number, std::size_t records_per_block, Feed&& feed);

  // Atomically replaces the MANIFEST with one naming `numbers` (in
  // replay order) and `next`. This rename IS the commit point of
  // every mutation.
  void commit_manifest(const std::vector<std::uint64_t>& numbers,
                       std::uint64_t next) const;

  // Shared append path.
  template <typename Feed>
  std::filesystem::path append_segment_locked(std::size_t records_per_block,
                                              Feed&& feed)
      KAV_REQUIRES(writer_mutex_);
  // Folds segments_[begin, begin+count) into one new segment;
  // count >= 2.
  void fold_range_locked(std::size_t begin, std::size_t count,
                         std::size_t records_per_block)
      KAV_REQUIRES(writer_mutex_);
  // Drops oldest segments while over `retain_bytes` (keeps >= 1).
  // Returns segments dropped.
  std::size_t apply_retention_locked(std::uint64_t retain_bytes)
      KAV_REQUIRES(writer_mutex_);

  void maybe_schedule_maintenance() KAV_EXCLUDES(bg_mutex_);
  void schedule_maintenance_locked() KAV_REQUIRES(bg_mutex_);
  void maintenance_task() KAV_EXCLUDES(bg_mutex_, writer_mutex_);

  // Re-levels the segments/bytes/records gauges from the live set;
  // called after every committed mutation (and once at open).
  void refresh_gauges() const KAV_EXCLUDES(segments_mutex_);
  // Per-segment open options carrying the CRC-failure counter hook.
  MappedSegmentOptions segment_options() const;

  std::filesystem::path directory_;

  // kav_store_* instruments (trace_store.cpp); owned by the registry.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;

  // Writer serialization: append/import/compact/maintenance hold this
  // for their full duration (fold passes reacquire per fold so
  // appends interleave with a long compaction run). Always taken
  // before segments_mutex_.
  util::Mutex writer_mutex_ KAV_ACQUIRED_BEFORE(segments_mutex_);
  // Guards the in-memory segment set: writers swap under the
  // exclusive side, readers (snapshot(), and writer-path scans) copy
  // under the shared side. Only writers (serialized above) ever
  // modify, so a writer's shared hold can never see a torn set.
  mutable util::SharedMutex segments_mutex_;
  std::vector<std::shared_ptr<const MappedSegment>> segments_
      KAV_GUARDED_BY(segments_mutex_);  // replay order
  std::vector<std::uint64_t> numbers_
      KAV_GUARDED_BY(segments_mutex_);  // parallel to segments_
  // Distinct keys across segments_. An append adds the new segment's
  // keys no older segment holds; a fold keeps it (the folded segment
  // holds exactly its victims' keys, each of which has records); a
  // retention drop and open recount it once.
  std::size_t key_count_ KAV_GUARDED_BY(segments_mutex_) = 0;
  std::uint64_t next_number_ KAV_GUARDED_BY(writer_mutex_) = 1;

  // Background compaction accounting (quiesce mirrors the keyed
  // monitor's drain: flag off, wait for running to clear).
  mutable util::Mutex bg_mutex_;
  util::CondVar bg_cv_;
  bool bg_enabled_ KAV_GUARDED_BY(bg_mutex_) = false;
  bool bg_running_ KAV_GUARDED_BY(bg_mutex_) = false;
  pipeline::ThreadPool* bg_pool_ KAV_GUARDED_BY(bg_mutex_) = nullptr;
  CompactionOptions bg_options_ KAV_GUARDED_BY(bg_mutex_);
  std::string last_maintenance_error_ KAV_GUARDED_BY(bg_mutex_);
};

}  // namespace kav

#endif  // KAV_STORE_TRACE_STORE_H
