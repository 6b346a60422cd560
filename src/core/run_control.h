// Run control for long verification jobs: cooperative cancellation and
// wall-clock deadlines, shared by the batch pipeline and the online
// monitor. Both generalize the pipeline's original fail-fast flag: a
// shard (or an ingest loop) checks a flag at a cheap, well-defined
// point and stops with an explicit UNDECIDED reason instead of being
// torn down mid-decision -- the decision procedures themselves are
// never interrupted, so a verdict that is produced is always a real
// verdict.
//
// The public front door for all of this is kav::Engine (core/engine.h),
// which translates RunOptions into the RunControl its ShardedVerifier
// consumes.
//
// Concurrency contract: this header is deliberately lock-free, so it
// carries none of the util/thread_safety.h capability annotations --
// there is no mutex for fields to be GUARDED_BY. CancelToken is a
// shared atomic flag (release-store in cancel(), acquire-load in
// cancelled(): a worker observing the flag also observes everything
// the canceller wrote before cancelling). RunControl itself is plain
// data handed to a run before workers start; on_key is invoked
// serialized by the verifier, never concurrently with itself.
#ifndef KAV_CORE_RUN_CONTROL_H
#define KAV_CORE_RUN_CONTROL_H

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/verdict.h"

namespace kav {

// A copyable handle to a shared cancellation flag. Default construction
// makes a fresh, un-cancelled flag; copies share it, so the caller
// keeps one copy and hands another to the run. cancel() is sticky --
// there is no un-cancel; make a new token per run instead.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { state_->store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return state_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

// Exact skip reasons, so reports are greppable and Engine can tell its
// own early stops apart from ordinary UNDECIDED verdicts. The fail-fast
// wording predates run control and is pinned by tests.
inline constexpr const char* kSkipCancelledReason =
    "skipped: cancelled by caller before this shard started";
inline constexpr const char* kSkipDeadlineReason =
    "skipped: wall-clock deadline exceeded before this shard started";
inline constexpr const char* kSkipFailFastReason =
    "skipped: fail-fast cancellation after another shard answered NO";

// Per-run control block threaded through ShardedVerifier::verify_shards.
// The default RunControl never cancels, has no deadline, and reports to
// nobody, so the bit-identical determinism guarantee is untouched unless
// a caller opts in.
struct RunControl {
  CancelToken cancel;
  // Absolute wall-clock cutoff; shards that have not started by then
  // answer UNDECIDED (kSkipDeadlineReason). Checked at shard
  // granularity: a shard already deciding runs to completion.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Live per-key sink, invoked from worker threads (the calling thread
  // for a batch's largest shard of 64Ki ops or more) as each shard's
  // verdict lands (serialized by the verifier; completion order, not
  // key order) -- exactly once per key, skipped shards included, so a
  // progress consumer can count callbacks against the key count. Must
  // not call back into the verifier.
  std::function<void(const std::string& key, const Verdict& verdict)> on_key;
};

}  // namespace kav

#endif  // KAV_CORE_RUN_CONTROL_H
