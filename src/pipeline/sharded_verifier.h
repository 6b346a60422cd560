// Parallel multi-register verification. k-atomicity is local (paper
// Section II-B): a trace is k-atomic iff its projection onto each
// register is, and the projections share no state, so per-key shards
// are embarrassingly parallel. ShardedVerifier dispatches each per-key
// shard to a ThreadPool and merges the per-key Verdicts
// back into a Report in key order.
//
// The pool is borrowed: kav::Engine (core/engine.h, the library's front
// door) owns it and wires batch and monitor work onto that ONE pool.
//
// Determinism guarantee: with fail_fast off and no cancel or deadline
// trigger, every shard's verdict is a pure function of (shard history,
// VerifyOptions) -- including the ZoneProfile-based LBT/FZF choice
// under Algorithm::auto_select, which looks only at the shard -- and
// the merge orders by key, so the returned Report never depends on
// thread count or scheduling and is bit-identical to the serial
// verify_keyed_trace() (checked by tests/pipeline_fuzz_test.cpp and
// tests/engine_fuzz_test.cpp).
//
// Early-stop modes trade that for latency, and all three report skipped
// shards as UNDECIDED with the exact reasons in core/run_control.h:
// fail_fast (once any shard answers NO, shards that have not started
// are skipped; at least one NO always survives into the report), the
// caller's CancelToken, and the wall-clock deadline. *Which* shards
// still get verdicts under any of them depends on scheduling.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_PIPELINE_SHARDED_VERIFIER_H
#define KAV_PIPELINE_SHARDED_VERIFIER_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/run_control.h"
#include "core/verify.h"
#include "history/history.h"
#include "pipeline/thread_pool.h"

namespace kav {

// One unit of parallel work for verify_shards: a key plus EITHER a
// pre-materialized history (`pinned`, the in-memory KeyedHistories path,
// decided through a const reference, so a repair copies it) OR a loader
// the worker invokes to materialize it lazily (`load`). Lazy specs
// serve the trace store's index-driven path (op_count comes from index
// statistics, and the shard's operations are decoded from their mmap
// blocks inside the pool worker -- the full trace is never
// materialized anywhere) and every streamed audit (Engine::verify over
// a TraceSource: the loader builds the key's History from the rows
// KeyGrouper grouped). The worker owns what `load` returns and decides
// it by rvalue, so a repair rewrites it in place. op_count picks the
// shard that runs on the calling thread (see verify_shards), before
// anything is decoded.
struct ShardSpec {
  std::string key;
  std::size_t op_count = 0;
  const History* pinned = nullptr;   // used when non-null
  std::function<History()> load;     // else called once, on the worker;
                                     // must be thread-safe
};

class ShardedVerifier {
 public:
  // Runs every shard on `pool` and instruments per-shard work
  // (kav_engine_shard_* latency histograms, kav_verify_*
  // decision-procedure counters) into `metrics`; both must outlive the
  // verifier. With `fail_fast`, once one shard answers NO the shards
  // that have not started are skipped.
  ShardedVerifier(pipeline::ThreadPool& pool, obs::MetricsRegistry& metrics,
                  bool fail_fast);

  // One task per ShardSpec on the pool, merged into a batch Report in
  // key order (keys must be unique), with Report::verify_totals summed
  // over every verdict and Report::cancelled set when a cancel or
  // deadline skipped a shard. A shard that has not started when
  // `cancel` fires or `deadline` (an absolute cutoff the caller
  // anchored; nullopt = none) passes answers UNDECIDED without
  // deciding or loading anything. Lazy specs let a caller hand the
  // pipeline shard *descriptions* (key + op count from an index) instead of
  // materialized histories; each worker materializes, decides, and
  // discards its own shard, so peak memory is O(threads * max shard)
  // rather than O(trace). The largest shard, when it has 64Ki ops or
  // more, runs on the calling thread while the pool runs the rest, and
  // after that batch the freed memory goes back to the OS (glibc
  // malloc_trim), so no worker arena keeps a large working set. A lazy
  // loader that throws (e.g. corrupt bytes under an mmap) propagates
  // out of this call after every other shard has been waited for.
  Report verify_shards(
      const std::vector<ShardSpec>& shards, const VerifyOptions& options,
      const CancelToken& cancel,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

 private:
  bool fail_fast_;
  pipeline::ThreadPool* pool_;
  // Shard latency + decision-procedure instruments (sharded_verifier.cpp);
  // owned by the registry, shared safely by concurrent run_shard tasks.
  struct Metrics;
  std::shared_ptr<Metrics> metrics_;
};

}  // namespace kav

#endif  // KAV_PIPELINE_SHARDED_VERIFIER_H
