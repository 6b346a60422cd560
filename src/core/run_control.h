// Run control for long verification jobs: cooperative cancellation and
// the skip reasons a stopped run reports, shared by the batch pipeline
// and the online monitor. Both generalize the pipeline's original
// fail-fast flag: a shard (or an ingest loop) checks a flag at a cheap,
// well-defined point and stops with an explicit UNDECIDED reason
// instead of being torn down mid-decision -- the decision procedures
// themselves are never interrupted, so a verdict that is produced is
// always a real verdict.
//
// The public front door for all of this is kav::Engine (core/engine.h):
// RunOptions carries the CancelToken and the timeout, which the Engine
// anchors once at call entry and hands to its ShardedVerifier.
//
// Concurrency contract: this header is deliberately lock-free, so it
// carries none of the util/thread_safety.h capability annotations --
// there is no mutex for fields to be GUARDED_BY. CancelToken is a
// shared atomic flag (release-store in cancel(), acquire-load in
// cancelled(): a worker observing the flag also observes everything
// the canceller wrote before cancelling).
#ifndef KAV_CORE_RUN_CONTROL_H
#define KAV_CORE_RUN_CONTROL_H

#include <atomic>
#include <memory>

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

}  // namespace kav

#endif  // KAV_CORE_RUN_CONTROL_H
