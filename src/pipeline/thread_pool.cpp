#include "pipeline/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/span.h"

namespace kav::pipeline {

namespace {
std::atomic<std::uint64_t> g_pools_created{0};
}  // namespace

// All counters are cumulative across every pool wired to the same
// registry; kav_pool_threads and kav_pool_queue_depth are likewise
// sums (each pool adds its contribution and removes it on shutdown).
struct ThreadPool::Metrics {
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_completed;
  obs::Gauge& queue_depth;
  obs::Gauge& threads;
  obs::Histogram& task_seconds;

  explicit Metrics(obs::MetricsRegistry& registry)
      : tasks_submitted(registry.counter("kav_pool_tasks_submitted_total",
                                         "Tasks submitted to the pool.")),
        tasks_completed(registry.counter(
            "kav_pool_tasks_completed_total",
            "Tasks the pool ran to completion (including ones whose "
            "exception was captured into a future).")),
        queue_depth(registry.gauge(
            "kav_pool_queue_depth",
            "Tasks enqueued but not yet claimed by any worker.")),
        threads(registry.gauge("kav_pool_threads",
                               "Worker threads across live pools.")),
        task_seconds(registry.histogram(
            "kav_pool_task_seconds",
            "Wall time per pool task, submission excluded.")) {}
};

std::uint64_t ThreadPool::created_count() {
  return g_pools_created.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  metrics_ = std::make_unique<Metrics>(
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global());
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  metrics_->threads.add(static_cast<std::int64_t>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { run_worker(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    util::MutexLock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    tasks_.push_back(std::move(task));
  }
  metrics_->tasks_submitted.add(1);
  metrics_->queue_depth.add(1);
  wake_.notify_one();
}

void ThreadPool::run_worker() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) wake_.wait(mutex_);
      if (tasks_.empty()) return;  // stopping, and every task is claimed
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    metrics_->queue_depth.sub(1);
    {
      obs::ScopedTimer timer(&metrics_->task_seconds, &obs::Tracer::global(),
                             "pool.task", "pipeline");
      task();  // packaged_task: exceptions are captured into the future
    }
    metrics_->tasks_completed.add(1);
  }
}

void ThreadPool::shutdown() {
  {
    util::MutexLock lock(mutex_);
    if (stopping_) {
      // Idempotent: the first call already joined the workers.
      return;
    }
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  metrics_->threads.sub(static_cast<std::int64_t>(workers_.size()));
}

}  // namespace kav::pipeline
