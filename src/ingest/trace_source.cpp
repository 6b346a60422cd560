#include "ingest/trace_source.h"

#include <stdexcept>
#include <utility>

#include "history/serialization.h"
#include "ingest/binary_trace.h"
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

// How far the cursor runs between page releases: large enough that the
// madvise calls cost nothing measurable, small enough that the resident
// window stays a rounding error next to the decoded trace.
constexpr std::uint64_t kReleaseStride = std::uint64_t{1} << 20;

}  // namespace

BinaryFileTraceSource::BinaryFileTraceSource(
    std::unique_ptr<MappedSegment> segment)
    : segment_(std::move(segment)), cursor_(segment_->cursor()) {}

bool BinaryFileTraceSource::next(KeyedOperation& out) {
  std::string_view key;
  if (!cursor_.next(key, out.op)) {
    // The stream is done, but the caller often keeps the source alive
    // while it decides: drop the last window too.
    segment_->release_below(segment_->size_bytes());
    return false;
  }
  out.key.assign(key);
  if (cursor_.offset() >= next_release_) {
    segment_->release_below(cursor_.offset());
    next_release_ = cursor_.offset() + kReleaseStride;
  }
  return true;
}

std::string BinaryFileTraceSource::describe() const {
  return "binary:" + segment_->path();
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
    auto segment = std::make_unique<MappedSegment>(path);
    if (!segment->indexed()) {
      return std::make_unique<BinaryFileTraceSource>(std::move(segment));
    }
    return std::make_unique<IndexedTraceSource>(
        std::vector<std::shared_ptr<const MappedSegment>>{std::move(segment)},
        "indexed:" + path);
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
