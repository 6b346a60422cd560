#include "pipeline/sharded_verifier.h"

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "util/memory.h"

namespace kav {

// Per-shard pipeline instruments. The kav_verify_* counters mirror
// VerifyStats field-for-field: each decided shard adds its verdict's
// stats here, so after a batch run the registry totals equal
// Report::verify_totals exactly (pinned by the differential test in
// tests/engine_fuzz_test.cpp). The structs stay the per-run view;
// these are the process-lifetime series a scraper watches.
struct ShardedVerifier::Metrics {
  obs::Histogram& shard_verify_seconds;
  obs::Histogram& shard_decode_seconds;
  obs::Counter& shards_verified;
  obs::Counter& skipped_cancelled;
  obs::Counter& skipped_deadline;
  obs::Counter& skipped_fail_fast;
  obs::Counter& steps;
  obs::Counter& epochs;
  obs::Counter& candidates;
  obs::Counter& chunks;
  obs::Counter& dangling;
  obs::Counter& orders_tested;
  obs::Counter& oracle_nodes;

  explicit Metrics(obs::MetricsRegistry& registry)
      : shard_verify_seconds(registry.histogram(
            "kav_engine_shard_verify_seconds",
            "Wall time deciding one per-key shard (decode excluded).")),
        shard_decode_seconds(registry.histogram(
            "kav_engine_shard_decode_seconds",
            "Wall time materializing one lazy shard from its source "
            "(mmap block decode on the selective path).")),
        shards_verified(registry.counter(
            "kav_engine_shards_verified_total",
            "Per-key shards a decision procedure actually ran on.")),
        skipped_cancelled(registry.counter("kav_engine_shards_skipped_total",
                                           "Shards skipped without deciding.",
                                           {{"reason", "cancelled"}})),
        skipped_deadline(registry.counter("kav_engine_shards_skipped_total",
                                          "Shards skipped without deciding.",
                                          {{"reason", "deadline"}})),
        skipped_fail_fast(registry.counter("kav_engine_shards_skipped_total",
                                           "Shards skipped without deciding.",
                                           {{"reason", "fail_fast"}})),
        steps(registry.counter("kav_verify_steps_total",
                               "LBT/FZF ops processed, reverts included.")),
        epochs(registry.counter("kav_verify_epochs_total",
                                "LBT committed epochs.")),
        candidates(registry.counter("kav_verify_candidates_total",
                                    "LBT RunEpoch invocations.")),
        chunks(registry.counter("kav_verify_chunks_total",
                                "FZF chunk-sequence elements |CS(H)|.")),
        dangling(registry.counter("kav_verify_dangling_total",
                                  "FZF dangling backward clusters.")),
        orders_tested(registry.counter("kav_verify_orders_tested_total",
                                       "FZF viability subroutine calls.")),
        oracle_nodes(registry.counter("kav_verify_oracle_nodes_total",
                                      "Oracle search nodes expanded.")) {}

  void add_stats(const VerifyStats& stats) {
    steps.add(stats.steps);
    epochs.add(stats.epochs);
    candidates.add(stats.candidates_tried);
    chunks.add(stats.chunks);
    dangling.add(stats.dangling);
    orders_tested.add(stats.orders_tested);
    oracle_nodes.add(stats.nodes);
  }
};

ShardedVerifier::ShardedVerifier(pipeline::ThreadPool& pool,
                                 obs::MetricsRegistry& metrics,
                                 bool fail_fast)
    : fail_fast_(fail_fast),
      pool_(&pool),
      metrics_(std::make_shared<Metrics>(metrics)) {}

namespace {

// Sums the merged verdicts' work counters into verify_totals and marks
// the run cancelled when a caller's cancel or deadline skipped a shard
// (fail-fast skips do not count), keeping the first such reason in key
// order.
void fill_batch_totals(Report& report) {
  for (const auto& [key, result] : report.per_key) {
    const Verdict& verdict = result.verdict;
    report.verify_totals += verdict.stats;
    if (verdict.outcome == Outcome::undecided &&
        (verdict.reason == kSkipCancelledReason ||
         verdict.reason == kSkipDeadlineReason) &&
        !report.cancelled) {
      report.cancelled = true;
      report.stop_reason = verdict.reason;
    }
  }
}

// A shard this large leaves megabytes of freed working memory behind.
constexpr std::size_t kReleaseAfterShardOps = std::size_t{1} << 16;

// glibc keeps what a pool worker frees in that worker's arena, and
// malloc_trim does not give back the top of a thread's arena, so a
// worker that once decided a large shard kept megabytes resident.
// Which workers did is up to scheduling (which idle worker pops each
// task, and the arenas a fresh pool's threads pick up), so resident
// memory stepped by whole working sets between identical runs. The
// largest shard, when it is large, therefore runs on the calling
// thread, which waits for the pool anyway; the free memory of the
// batch goes back to the OS after.
const ShardSpec* shard_for_caller(const std::vector<ShardSpec>& shards) {
  const ShardSpec* largest = nullptr;
  for (const ShardSpec& shard : shards) {
    if (largest == nullptr || shard.op_count > largest->op_count) {
      largest = &shard;
    }
  }
  return largest != nullptr && largest->op_count >= kReleaseAfterShardOps
             ? largest
             : nullptr;
}

}  // namespace

Report ShardedVerifier::verify_shards(
    const std::vector<ShardSpec>& shards, const VerifyOptions& options,
    const CancelToken& cancel,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  // One fail-fast flag per call: a NO on one trace must not poison a
  // later call on the same (reused) pool. Caller cancellation is
  // `cancel` -- also per call, by construction.
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const bool fail_fast = fail_fast_;
  const VerifyOptions verify_options = options;

  const auto run_shard = [verify_options, fail_fast, failed, cancel, deadline,
                          metrics = metrics_](const ShardSpec* spec)
      -> Verdict {
        bool decided = false;
        const Verdict verdict = [&]() -> Verdict {
          // Skip checks in precedence order: the caller's intent
          // (cancel, then deadline) outranks the internal fail-fast
          // flag, so a cancelled run reports "cancelled" even if a NO
          // also landed. All three fire BEFORE a lazy shard decodes
          // anything -- skipping costs no I/O.
          if (cancel.cancelled()) {
            metrics->skipped_cancelled.add(1);
            return Verdict::make_undecided(kSkipCancelledReason);
          }
          if (deadline.has_value() &&
              std::chrono::steady_clock::now() >= *deadline) {
            metrics->skipped_deadline.add(1);
            return Verdict::make_undecided(kSkipDeadlineReason);
          }
          if (fail_fast && failed->load(std::memory_order_acquire)) {
            metrics->skipped_fail_fast.add(1);
            return Verdict::make_undecided(kSkipFailFastReason);
          }
          decided = true;
          if (spec->pinned != nullptr) {
            obs::ScopedTimer verify_timer(&metrics->shard_verify_seconds,
                                          &obs::Tracer::global(),
                                          "shard.verify", "pipeline");
            return verify_k_atomicity(*spec->pinned, verify_options);
          }
          // Lazy shard: materialize on this worker, decide (repairing
          // in place: the worker owns the History), discard.
          History loaded = [&] {
            obs::ScopedTimer decode_timer(&metrics->shard_decode_seconds,
                                          &obs::Tracer::global(),
                                          "shard.decode", "pipeline");
            return spec->load();
          }();
          obs::ScopedTimer verify_timer(&metrics->shard_verify_seconds,
                                        &obs::Tracer::global(),
                                        "shard.verify", "pipeline");
          return verify_k_atomicity(std::move(loaded), verify_options);
        }();
        if (decided) {
          metrics->shards_verified.add(1);
          metrics->add_stats(verdict.stats);
        }
        if (fail_fast && verdict.no()) {
          failed->store(true, std::memory_order_release);
        }
        return verdict;
      };

  // Single-shard fast path: run on the caller's thread. A one-key
  // selective audit pays no pool handoff (submit + wake + future wait
  // dwarf a small shard's decode-and-decide); semantics are identical
  // -- same skip precedence, and a throwing lazy loader propagates out
  // of this call exactly as the pooled path rethrows it from
  // future::get with no sibling shards to wait on.
  if (shards.size() == 1) {
    Report report;
    report.per_key.emplace(shards.front().key,
                           KeyResult{run_shard(&shards.front()), {}, {}});
    fill_batch_totals(report);
    return report;
  }

  const ShardSpec* own = shard_for_caller(shards);
  std::vector<std::future<Verdict>> futures(shards.size());
  try {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardSpec* spec = &shards[i];
      if (spec == own) continue;
      futures[i] =
          pool_->submit([&run_shard, spec] { return run_shard(spec); });
    }
  } catch (...) {
    // submit() can throw mid-fan-out (e.g. a borrowed pool shut down by
    // its owner). Already-queued tasks hold pointers into `shards` and
    // WILL still run (shutdown drains, it does not abort), so they must
    // finish before this exception may unwind past the caller's
    // arguments.
    for (const auto& future : futures) {
      if (future.valid()) future.wait();
    }
    throw;
  }
  if (own != nullptr) {
    // A throwing loader lands in the future, as on a worker.
    std::packaged_task<Verdict()> task(
        [&run_shard, own] { return run_shard(own); });
    futures[static_cast<std::size_t>(own - shards.data())] = task.get_future();
    task();
  }

  // Wait for every shard before any get() can rethrow: queued tasks
  // hold pointers into `shards`, which the caller may destroy during
  // unwinding while the reused pool lives on -- no task may outlive
  // this function.
  for (const auto& future : futures) future.wait();
  if (own != nullptr) util::release_free_memory();

  // Merge into the key-ordered map, so the report layout never depends
  // on which worker finished first.
  Report report;
  std::size_t i = 0;
  for (const ShardSpec& shard : shards) {
    report.per_key.emplace(shard.key, KeyResult{futures[i++].get(), {}, {}});
  }
  fill_batch_totals(report);
  return report;
}

}  // namespace kav
