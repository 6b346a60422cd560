#include "ingest/trace_source.h"

#include <stdexcept>
#include <utility>

#include "history/serialization.h"
#include "store/indexed_source.h"

namespace kav {

// --- MemoryTraceSource -----------------------------------------------------

bool MemoryTraceSource::next(KeyedOperation& out) {
  if (pos_ >= trace_.ops.size()) return false;
  out = trace_.ops[pos_++];
  return true;
}

std::string MemoryTraceSource::describe() const {
  return "memory(" + std::to_string(trace_.size()) + " ops)";
}

// --- TextFileTraceSource ---------------------------------------------------

TextFileTraceSource::TextFileTraceSource(const std::string& path)
    : path_(path), trace_(read_trace_file(path)) {}

bool TextFileTraceSource::next(KeyedOperation& out) {
  if (pos_ >= trace_.ops.size()) return false;
  // Single-pass source: moving the key string out keeps drain() over
  // this source a one-copy path.
  out = std::move(trace_.ops[pos_++]);
  return true;
}

std::string TextFileTraceSource::describe() const { return "text:" + path_; }

// --- BinaryFileTraceSource -------------------------------------------------

namespace {

// Turns an unopenable path into a clear error before BinaryTraceReader
// would report a confusing truncated-header one.
const std::string& require_readable(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open trace file: " + path);
  return path;
}

}  // namespace

BinaryFileTraceSource::BinaryFileTraceSource(const std::string& path)
    : path_(path),
      in_(require_readable(path), std::ios::binary),
      reader_(in_) {}

bool BinaryFileTraceSource::next(KeyedOperation& out) {
  return reader_.next(out);
}

std::string BinaryFileTraceSource::describe() const {
  return "binary:" + path_;
}

// --- PushTraceSource -------------------------------------------------------

void PushTraceSource::push(std::string key, Operation op) {
  push(KeyedOperation{std::move(key), op});
}

void PushTraceSource::push(KeyedOperation kop) {
  {
    util::MutexLock lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(mutex_);
    if (closed_) {
      throw std::logic_error("PushTraceSource::push after close()");
    }
    items_.push_back(std::move(kop));
    // Only the first operation of a batch can find the consumer
    // waiting.
    if (items_.size() != 1) return;
  }
  not_empty_.notify_one();
}

void PushTraceSource::close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

TraceSource::Pull PushTraceSource::pull(KeyedOperation& out,
                                        const std::chrono::milliseconds* wait) {
  if (taken_pos_ == taken_.size()) {
    taken_.clear();
    taken_pos_ = 0;
    bool was_full = false;
    {
      util::MutexLock lock(mutex_);
      if (wait == nullptr) {
        while (!closed_ && items_.empty()) not_empty_.wait(mutex_);
      } else {
        const auto deadline = std::chrono::steady_clock::now() + *wait;
        while (!closed_ && items_.empty()) {
          if (not_empty_.wait_until(mutex_, deadline) ==
                  std::cv_status::timeout &&
              !closed_ && items_.empty()) {
            return Pull::pending;
          }
        }
      }
      if (items_.empty()) return Pull::closed;  // closed and drained
      was_full = items_.size() >= capacity_;
      items_.swap(taken_);
    }
    // Producers wait only at capacity, so only a full queue has
    // waiters; the swap leaves room for all of them.
    if (was_full) not_full_.notify_all();
  }
  out = std::move(taken_[taken_pos_++]);
  taken_left_.store(taken_.size() - taken_pos_, std::memory_order_relaxed);
  return Pull::item;
}

bool PushTraceSource::next(KeyedOperation& out) {
  return pull(out, nullptr) == Pull::item;
}

TraceSource::Pull PushTraceSource::try_next_for(
    KeyedOperation& out, std::chrono::milliseconds wait) {
  return pull(out, &wait);
}

std::string PushTraceSource::describe() const {
  const std::size_t taken = taken_left_.load(std::memory_order_relaxed);
  util::MutexLock lock(mutex_);
  return "push(" + std::to_string(items_.size() + taken) + " queued" +
         (closed_ ? ", closed)" : ")");
}

// --- Factory + drain -------------------------------------------------------

std::unique_ptr<TraceSource> open_trace_source(const std::string& path) {
  if (is_binary_trace_file(path)) {
    // Indexed v2 segments open mmap-backed with the selective
    // interface; v1 (and unsealed v2) files stream chunk by chunk.
    // A file claiming an index it cannot back up (corrupt footer)
    // throws here rather than silently degrading.
    if (auto indexed = IndexedTraceSource::try_open(path)) return indexed;
    return std::make_unique<BinaryFileTraceSource>(path);
  }
  return std::make_unique<TextFileTraceSource>(path);
}

KeyedTrace drain(TraceSource& source) {
  KeyedTrace trace;
  KeyedOperation kop;
  while (source.next(kop)) trace.ops.push_back(std::move(kop));
  return trace;
}

}  // namespace kav
