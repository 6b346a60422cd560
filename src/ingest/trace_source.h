// TraceSource: the one polymorphic input kav::Engine (core/engine.h)
// verifies and monitors from. Every way a trace reaches the library --
// an in-memory KeyedTrace, a text-format file, a binary .kavb file, a
// trace store, or a live producer pushing operations one at a time --
// is the same chunked stream, read through one call, pull(): each
// chunk names its operations by a dense KeyId assigned once, at the
// source, so the grouping and monitoring layers index per-key state
// instead of hashing a key string per operation. New backends
// (sockets, RPC front-ends, replay logs) plug in by implementing
// pull() and describe() instead of growing another facade overload.
//
// Sources are single-pass: pull() walks the stream once. File sources
// detect format by magic bytes (open_trace_source), never by file
// extension; drain() pulls any source into a KeyedTrace. Memory cost:
// binary file sources map the file and keep O(1 MiB) of it resident
// (pages behind the cursor are released as it advances), push sources
// hold O(capacity); text file sources load the whole trace at
// construction, which is inherent to the line-oriented text format.
#ifndef KAV_INGEST_TRACE_SOURCE_H
#define KAV_INGEST_TRACE_SOURCE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "history/keyed_trace.h"
#include "store/mapped_segment.h"
#include "util/thread_safety.h"

namespace kav {

class TraceSource {
 public:
  // Result of a chunked pull: operations arrived, nothing arrived
  // within the wait (stream still open), or the stream ended.
  enum class Pull : unsigned char { ready, pending, closed };

  virtual ~TraceSource() = default;

  // Clears `chunk` and fills it with up to `max_ops` (at least 1) of
  // the operations the source already holds, each named by its dense
  // KeyId, plus the names of the ids first seen in this chunk
  // (KeyedChunk). Ids number keys in order of first appearance in what
  // pull() has handed out. Waits at most ~`wait`, and only for the
  // first operation, so a consumer can re-check a CancelToken or
  // deadline between pulls. Returns Pull::ready with at least one
  // operation, Pull::pending with none (the stream is still open),
  // Pull::closed at the end of the stream. Throws std::runtime_error
  // on malformed input.
  virtual Pull pull(KeyedChunk& chunk, std::size_t max_ops,
                    std::chrono::milliseconds wait) = 0;

  // Human-readable origin for reports and error messages, e.g.
  // "memory(120 ops)" or "binary:trace.kavb".
  virtual std::string describe() const = 0;

 protected:
  // Names the keys of the operations this source hands out by pull().
  KeyInterner& interner() { return interner_; }

  // One .kavb segment being walked by key-table id: the cursor, and each
  // table id's pull() id (kUnnamed until the key's first record).
  struct SegmentWalk {
    explicit SegmentWalk(const MappedSegment& segment)
        : cursor(segment.cursor()) {}
    static constexpr KeyId kUnnamed = ~KeyId{0};
    MappedSegment::Cursor cursor;
    std::vector<KeyId> ids;
  };
  // Appends `walk`'s next records to `chunk` until it holds `max_ops`;
  // false once the segment is exhausted. Names each table id once per
  // segment, through interner(), so a key several segments hold keeps
  // its first id, and no key string is touched per operation.
  bool pull_segment(SegmentWalk& walk, KeyedChunk& chunk,
                    std::size_t max_ops);

 private:
  KeyInterner interner_;
};

// In-memory trace, replayed in insertion (arrival) order.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(KeyedTrace trace)
      : owned_(std::move(trace)), trace_(&owned_) {}
  // Reads `*trace` in place, without a copy; it must outlive the source.
  explicit MemoryTraceSource(const KeyedTrace* trace) : trace_(trace) {}

  MemoryTraceSource(const MemoryTraceSource&) = delete;
  MemoryTraceSource& operator=(const MemoryTraceSource&) = delete;

  Pull pull(KeyedChunk& chunk, std::size_t max_ops,
            std::chrono::milliseconds wait) override;
  std::string describe() const override;

 private:
  KeyedTrace owned_;
  const KeyedTrace* trace_;
  std::size_t pos_ = 0;
};

// Text-format file (history/serialization.h). The text reader is
// whole-stream, so the trace is parsed eagerly at construction; throws
// std::runtime_error with a line number on parse errors.
class TextFileTraceSource final : public TraceSource {
 public:
  explicit TextFileTraceSource(const std::string& path);

  Pull pull(KeyedChunk& chunk, std::size_t max_ops,
            std::chrono::milliseconds wait) override;
  std::string describe() const override;

 private:
  std::string path_;
  KeyedTrace trace_;
  std::size_t pos_ = 0;
};

// Unindexed binary .kavb file (v1, or a v2 segment that was never
// sealed), walked sequentially by a MappedSegment::Cursor. The source
// owns the mapping outright, so it releases the pages behind the
// cursor as it goes, and the rest when the stream ends: resident
// memory stays O(1 MiB) however large the file. pull() hands out the
// file's key-table ids without touching a key string per operation,
// renumbered by a vector lookup into first-appearance order (the
// identity on v1 files; a v2 file's block order can name a later id
// first). Throws std::runtime_error with a byte offset on malformed
// input.
class BinaryFileTraceSource final : public TraceSource {
 public:
  explicit BinaryFileTraceSource(std::unique_ptr<MappedSegment> segment);

  Pull pull(KeyedChunk& chunk, std::size_t max_ops,
            std::chrono::milliseconds wait) override;
  std::string describe() const override;

 private:
  // Releases the pages behind the cursor every kReleaseStride bytes.
  void release_behind();

  std::unique_ptr<MappedSegment> segment_;
  SegmentWalk walk_;
  std::uint64_t next_release_ = 0;  // cursor offset of the next release
};

// Incremental push source: producers push() completed operations from
// any thread; the consumer side (Engine::monitor, typically on another
// thread) pulls them via pull(), which waits until an operation is
// available or the source is closed. push() blocks while
// the shared queue holds `capacity` operations (backpressure) and
// throws std::logic_error after close().
//
// The handoff moves batches: when the consumer runs dry it swaps the
// whole shared queue out under one lock, and pull() hands the taken
// batch over as one chunk (up to its max_ops). The source signals only
// on the transitions a waiter needs -- the consumer when the queue
// goes from empty to non-empty, producers when a swap takes a full
// queue -- so a steady stream costs one lock round trip per batch, not
// a wakeup per operation. At most 2 x capacity operations are in
// flight: one queue being filled, one batch being handed out.
class PushTraceSource final : public TraceSource {
 public:
  explicit PushTraceSource(std::size_t capacity = 1'024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(std::string key, Operation op);
  void push(KeyedOperation kop) KAV_EXCLUDES(mutex_);
  // Ends the stream: pulls drain what is queued, then report the end.
  // Idempotent.
  void close() KAV_EXCLUDES(mutex_);

  // Hands out one operation, blocking until one arrives; false once
  // the source is closed and drained. Not part of the TraceSource
  // surface: it exists to time the producer/consumer handoff alone,
  // without interning (kavbench's ingest.push_handoff stage). Read a
  // source through pull() or through next(), not both.
  bool next(KeyedOperation& out) KAV_EXCLUDES(mutex_);
  // Times out with Pull::pending instead of blocking forever, so a
  // cancelled Engine::monitor over a push source that is never closed
  // still returns.
  Pull pull(KeyedChunk& chunk, std::size_t max_ops,
            std::chrono::milliseconds wait) override KAV_EXCLUDES(mutex_);
  // "push(N queued)", N counting both the shared queue and the batch
  // the consumer took but has not handed out yet.
  std::string describe() const override KAV_EXCLUDES(mutex_);

 private:
  // Consumer side: when the taken batch is handed out, swaps the shared
  // queue in. `wait` bounds the blocking wait; nullptr waits until an
  // operation or close() arrives. Pull::ready means taken_ holds an
  // operation not handed out yet.
  Pull refill(const std::chrono::milliseconds* wait) KAV_EXCLUDES(mutex_);

  // One lock orders the shared queue: producers block on not_full_
  // (capacity backpressure), the consumer blocks on not_empty_, and
  // close() flips closed_ then wakes both sides.
  mutable util::Mutex mutex_;
  util::CondVar not_full_;
  util::CondVar not_empty_;
  std::vector<KeyedOperation> items_ KAV_GUARDED_BY(mutex_);
  // Immutable after construction; readable without the lock.
  const std::size_t capacity_;
  bool closed_ KAV_GUARDED_BY(mutex_) = false;
  // The consumer's batch: touched only by the (single) consumer thread.
  std::vector<KeyedOperation> taken_;
  std::size_t taken_pos_ = 0;
  // Operations of taken_ not handed out yet, for describe() from any
  // thread.
  std::atomic<std::size_t> taken_left_{0};
};

// Opens a trace file as a source, deciding text vs binary by magic
// bytes (never by extension). A binary file is mapped once: an indexed
// (sealed v2) segment becomes an IndexedTraceSource
// (store/indexed_source.h), anything else a BinaryFileTraceSource over
// the same mapping. Throws std::runtime_error when the file cannot be
// opened, its header is malformed, or it claims an index it cannot
// back up (corrupt footer).
std::unique_ptr<TraceSource> open_trace_source(const std::string& path);

// Pulls a source dry, calling fn(key, op) for each operation in stream
// order; a pending pull (an open push source) just pulls again.
template <typename Fn>
void for_each_operation(TraceSource& source, Fn&& fn) {
  KeyedChunk chunk;
  std::vector<std::string> names;  // by KeyId
  while (source.pull(chunk, 1'024, std::chrono::milliseconds(100)) !=
         TraceSource::Pull::closed) {
    names.insert(names.end(), chunk.new_keys.begin(), chunk.new_keys.end());
    for (const IdOperation& iop : chunk.ops) fn(names[iop.key], iop.op);
  }
}

// Pulls a source dry into a KeyedTrace; drain(*open_trace_source(path))
// reads a trace file of either format.
KeyedTrace drain(TraceSource& source);

}  // namespace kav

#endif  // KAV_INGEST_TRACE_SOURCE_H
