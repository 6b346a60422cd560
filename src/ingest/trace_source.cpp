#include "ingest/trace_source.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "history/serialization.h"
#include "ingest/binary_trace.h"
#include "store/indexed_source.h"

namespace kav {

bool TraceSource::pull_segment(SegmentWalk& walk, KeyedChunk& chunk,
                               std::size_t max_ops) {
  KeyId table_id = 0;
  Operation op;
  while (chunk.ops.size() < max_ops) {
    if (!walk.cursor.next(table_id, op)) return false;
    if (table_id >= walk.ids.size()) {
      walk.ids.resize(walk.cursor.key_count(), SegmentWalk::kUnnamed);
    }
    KeyId& id = walk.ids[table_id];
    if (id == SegmentWalk::kUnnamed) {
      id = interner_.name(chunk, walk.cursor.key(table_id));
    }
    chunk.ops.push_back({id, op});
  }
  return true;
}

namespace {

// pull() over a trace already in memory: interns each key in place, so
// no KeyedOperation is copied.
TraceSource::Pull pull_from(const KeyedTrace& trace, std::size_t& pos,
                            KeyInterner& interner, KeyedChunk& chunk,
                            std::size_t max_ops) {
  chunk.clear();
  const std::size_t end =
      pos + std::min(std::max<std::size_t>(1, max_ops), trace.size() - pos);
  for (; pos < end; ++pos) {
    interner.append(chunk, trace.ops[pos].key, trace.ops[pos].op);
  }
  return chunk.ops.empty() ? TraceSource::Pull::closed
                           : TraceSource::Pull::ready;
}

}  // namespace

// --- MemoryTraceSource -----------------------------------------------------

TraceSource::Pull MemoryTraceSource::pull(KeyedChunk& chunk,
                                          std::size_t max_ops,
                                          std::chrono::milliseconds wait) {
  (void)wait;
  return pull_from(*trace_, pos_, interner(), chunk, max_ops);
}

std::string MemoryTraceSource::describe() const {
  return "memory(" + std::to_string(trace_->size()) + " ops)";
}

// --- TextFileTraceSource ---------------------------------------------------

TextFileTraceSource::TextFileTraceSource(const std::string& path)
    : path_(path), trace_(read_trace_file(path)) {}

TraceSource::Pull TextFileTraceSource::pull(KeyedChunk& chunk,
                                            std::size_t max_ops,
                                            std::chrono::milliseconds wait) {
  (void)wait;
  return pull_from(trace_, pos_, interner(), chunk, max_ops);
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
    : segment_(std::move(segment)), walk_(*segment_) {}

void BinaryFileTraceSource::release_behind() {
  const std::uint64_t offset = walk_.cursor.offset();
  if (offset >= next_release_) {
    segment_->release_below(offset);
    next_release_ = offset + kReleaseStride;
  }
}

TraceSource::Pull BinaryFileTraceSource::pull(KeyedChunk& chunk,
                                              std::size_t max_ops,
                                              std::chrono::milliseconds wait) {
  (void)wait;
  chunk.clear();
  pull_segment(walk_, chunk, std::max<std::size_t>(1, max_ops));
  if (chunk.ops.empty()) {
    // The stream is done, but the caller often keeps the source alive
    // while it decides: drop the last window too.
    segment_->release_below(segment_->size_bytes());
    return Pull::closed;
  }
  release_behind();
  return Pull::ready;
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

TraceSource::Pull PushTraceSource::refill(
    const std::chrono::milliseconds* wait) {
  if (taken_pos_ < taken_.size()) return Pull::ready;
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
  // Producers wait only at capacity, so only a full queue has waiters;
  // the swap leaves room for all of them.
  if (was_full) not_full_.notify_all();
  return Pull::ready;
}

bool PushTraceSource::next(KeyedOperation& out) {
  if (refill(nullptr) != Pull::ready) return false;
  out = std::move(taken_[taken_pos_++]);
  taken_left_.store(taken_.size() - taken_pos_, std::memory_order_relaxed);
  return true;
}

TraceSource::Pull PushTraceSource::pull(KeyedChunk& chunk,
                                        std::size_t max_ops,
                                        std::chrono::milliseconds wait) {
  chunk.clear();
  const Pull refilled = refill(&wait);
  if (refilled != Pull::ready) return refilled;
  const std::size_t end =
      taken_pos_ +
      std::min(std::max<std::size_t>(1, max_ops), taken_.size() - taken_pos_);
  for (; taken_pos_ < end; ++taken_pos_) {
    interner().append(chunk, taken_[taken_pos_].key, taken_[taken_pos_].op);
  }
  taken_left_.store(taken_.size() - taken_pos_, std::memory_order_relaxed);
  return Pull::ready;
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
  for_each_operation(source, [&trace](const std::string& key,
                                      const Operation& op) {
    trace.ops.push_back({key, op});
  });
  return trace;
}

}  // namespace kav
