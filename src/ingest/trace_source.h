// TraceSource: the one polymorphic input kav::Engine (core/engine.h)
// verifies and monitors from. Every way a trace reaches the library --
// an in-memory KeyedTrace, a text-format file, a binary .kavb file, or
// a live producer pushing operations one at a time -- is the same
// pull-based stream of KeyedOperations, so new backends (sockets, RPC
// front-ends, replay logs) plug in by implementing two methods instead
// of growing another facade overload.
//
// Sources are single-pass: next() walks the stream once. File sources
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

#include "history/history.h"
#include "history/keyed_trace.h"
#include "store/mapped_segment.h"
#include "util/thread_safety.h"

namespace kav {

class TraceSource {
 public:
  // Result of a bounded pull (try_next_for): an operation was produced,
  // nothing arrived within the wait (stream still open), or the stream
  // ended.
  enum class Pull : unsigned char { item, pending, closed };

  virtual ~TraceSource() = default;

  // Pulls the next operation; false at the end of the stream. May block
  // (push sources block until an operation arrives or the producer
  // closes). Throws std::runtime_error on malformed input.
  virtual bool next(KeyedOperation& out) = 0;

  // Bounded pull: like next(), but a source that might block
  // indefinitely returns Pull::pending after ~`wait` instead, so a
  // consumer can re-check a CancelToken or deadline between pulls
  // (Engine::monitor does). The default forwards to next() -- correct
  // for sources that never block longer than their input takes to
  // read; blocking sources (PushTraceSource) override it.
  virtual Pull try_next_for(KeyedOperation& out,
                            std::chrono::milliseconds wait) {
    (void)wait;
    return next(out) ? Pull::item : Pull::closed;
  }

  // Human-readable origin for reports and error messages, e.g.
  // "memory(120 ops)" or "binary:trace.kavb".
  virtual std::string describe() const = 0;
};

// Capability interface for sources backed by a per-key index (the
// trace store's mmap-backed IndexedTraceSource, store/indexed_source.h,
// is the one implementation). Streaming via next() still yields the
// full record stream in arrival order, so such a source behaves like
// any other; the extra methods let kav::Engine serve a selective run
// (RunOptions::key_filter) by materializing ONLY the requested keys'
// histories -- each one loaded inside a pool worker, straight from the
// index, with the rest of the input never decoded.
//
// Every per-key method costs an index lookup, independent of how many
// other keys the source holds, so a selective run costs O(requested
// keys), never a listing of the whole source.
class SelectiveTraceSource : public TraceSource {
 public:
  // True when the source's index holds `key` (even with zero records).
  virtual bool contains(const std::string& key) const = 0;
  // Distinct keys the source holds: Report::keys_available.
  virtual std::size_t key_count() const = 0;
  // Operations stored for `key`; 0 when absent. Available without
  // decoding records -- this is what index-driven shard budgeting and
  // scheduling read.
  virtual std::size_t key_op_count(const std::string& key) const = 0;
  // Decodes `key`'s operations (in arrival order) into a History.
  // Must be thread-safe and independent of the next() cursor: Engine
  // calls it concurrently from pool workers.
  virtual History load_key(const std::string& key) const = 0;
};

// In-memory trace, replayed in insertion (arrival) order.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(KeyedTrace trace) : trace_(std::move(trace)) {}

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

  // Memory sources alone are re-runnable: rewind to replay the same
  // trace through another Engine call.
  void rewind() { pos_ = 0; }

 private:
  KeyedTrace trace_;
  std::size_t pos_ = 0;
};

// Text-format file (history/serialization.h). The text reader is
// whole-stream, so the trace is parsed eagerly at construction; throws
// std::runtime_error with a line number on parse errors.
class TextFileTraceSource final : public TraceSource {
 public:
  explicit TextFileTraceSource(const std::string& path);

  bool next(KeyedOperation& out) override;
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
// memory stays O(1 MiB) however large the file. Throws std::runtime_error with a byte offset on malformed
// input.
class BinaryFileTraceSource final : public TraceSource {
 public:
  explicit BinaryFileTraceSource(std::unique_ptr<MappedSegment> segment);

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

 private:
  std::unique_ptr<MappedSegment> segment_;
  MappedSegment::Cursor cursor_;
  std::uint64_t next_release_ = 0;  // cursor offset of the next release
};

// Incremental push source: producers push() completed operations from
// any thread; the consumer side (Engine::monitor, typically on another
// thread) pulls them via next(), which blocks until an operation is
// available or the source is closed. push() blocks while the shared
// queue holds `capacity` operations (backpressure) and throws
// std::logic_error after close().
//
// The handoff moves batches: when the consumer runs dry it swaps the
// whole shared queue out under one lock and hands the taken operations
// out without locking. The source signals only on the transitions a
// waiter needs -- the consumer when the queue goes from empty to
// non-empty, producers when a swap takes a full queue -- so a steady
// stream costs one lock round trip per batch, not a wakeup per
// operation. At most 2 x capacity operations are in flight: one queue
// being filled, one batch being handed out.
class PushTraceSource final : public TraceSource {
 public:
  explicit PushTraceSource(std::size_t capacity = 1'024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(std::string key, Operation op);
  void push(KeyedOperation kop) KAV_EXCLUDES(mutex_);
  // Ends the stream: next() drains what is queued, then returns false.
  // Idempotent.
  void close() KAV_EXCLUDES(mutex_);

  bool next(KeyedOperation& out) override KAV_EXCLUDES(mutex_);
  // Times out with Pull::pending instead of blocking forever, so a
  // cancelled Engine::monitor over a push source that is never closed
  // still returns.
  Pull try_next_for(KeyedOperation& out,
                    std::chrono::milliseconds wait) override
      KAV_EXCLUDES(mutex_);
  // "push(N queued)", N counting both the shared queue and the batch
  // the consumer took but has not handed out yet.
  std::string describe() const override KAV_EXCLUDES(mutex_);

 private:
  // Consumer side: hands out the taken batch, refilling it from the
  // shared queue when it runs dry. `wait` bounds the refill's blocking
  // wait; nullptr waits until an operation or close() arrives.
  Pull pull(KeyedOperation& out, const std::chrono::milliseconds* wait)
      KAV_EXCLUDES(mutex_);

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

// Pulls a source dry into a KeyedTrace; drain(*open_trace_source(path))
// reads a trace file of either format.
KeyedTrace drain(TraceSource& source);

}  // namespace kav

#endif  // KAV_INGEST_TRACE_SOURCE_H
