// A fixed-size thread pool with one FIFO task queue.
//
// Every task kav runs here is an independent, coarse job submitted
// from outside the pool -- a per-key shard, one monitor partition's
// drain, a store maintenance pass -- and no task submits another. So
// the workers share a single deque: submit() pushes to the back and
// each idle worker pops the front. Tasks therefore start in submission
// order, which is what makes fail-fast skips land on the *later*
// shards.
//
// The pool makes two guarantees the verification pipeline leans on:
//
//   1. every task submitted before shutdown() runs to completion
//      (shutdown drains, it does not abort), and
//   2. a task's exception is captured and rethrown from the future
//      submit() returned, never swallowed or left to terminate().
//
// Cancellation is cooperative and lives in the caller (see
// pipeline/sharded_verifier.cpp's fail-fast flag): tasks that want to
// be cancellable check shared state and return cheaply.
#ifndef KAV_PIPELINE_THREAD_POOL_H
#define KAV_PIPELINE_THREAD_POOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_safety.h"

namespace kav::pipeline {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  // The pool instruments itself (kav_pool_* metrics: queue depth,
  // task counts and latency) into `metrics`; nullptr means the process
  // registry, obs::MetricsRegistry::global(). The registry must
  // outlive the pool.
  explicit ThreadPool(std::size_t threads = 0,
                      obs::MetricsRegistry* metrics = nullptr);
  ~ThreadPool();  // shutdown()

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Process-wide count of pools ever constructed -- a test hook
  // (tests/engine_test.cpp) asserting that one kav::Engine running
  // batch and monitor work spawns exactly one pool.
  static std::uint64_t created_count();

  // Schedules fn and returns a future for its result; an exception
  // thrown by fn surfaces from future.get(). Throws std::runtime_error
  // if the pool has been shut down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only but std::function requires copyable
    // targets, so the task rides in a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  // Runs every already-submitted task to completion, then joins the
  // workers. Idempotent; later submit() calls throw.
  void shutdown();

 private:
  void enqueue(std::function<void()> task) KAV_EXCLUDES(mutex_);
  void run_worker() KAV_EXCLUDES(mutex_);

  // kav_pool_* instruments, resolved once at construction (see
  // thread_pool.cpp). Owned by the registry, not the pool.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;

  std::vector<std::thread> workers_;

  util::Mutex mutex_;
  util::CondVar wake_;
  std::deque<std::function<void()>> tasks_ KAV_GUARDED_BY(mutex_);
  bool stopping_ KAV_GUARDED_BY(mutex_) = false;
};

}  // namespace kav::pipeline

#endif  // KAV_PIPELINE_THREAD_POOL_H
