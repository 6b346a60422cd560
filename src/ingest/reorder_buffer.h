// Out-of-order admission for the streaming checker. A real store
// reports operations when they *complete*, so arrivals are not sorted
// by start time -- but StreamingChecker's soundness rests on a
// watermark promise ("no future add starts at or before t"). The
// ReorderBuffer converts a bounded-disorder arrival stream into that
// promise automatically, replacing the caller-managed
// advance_watermark discipline.
//
// Contract: the producer promises *reorder slack* S -- when an
// operation arrives, every operation yet to arrive starts no more than
// S ticks before the maximum start seen so far (true whenever an
// operation's completion lags its start by at most S, e.g. S = max
// operation duration + delivery jitter). Under that promise:
//
//   * once max_start_seen reaches M, every future arrival starts
//     >= M - S, i.e. strictly after watermark = M - S - 1;
//   * every buffered operation with start <= watermark can be released
//     in start order, because nothing that could precede it is still
//     in flight.
//
// An arrival that violates the promise (start <= watermark) cannot be
// ordered any more; push() rejects it and counts it, and the keyed
// monitor reports it as a late_arrival violation -- for a monitor,
// "the slack was exceeded" is itself a finding.
//
// Memory is O(pending) = O(ops in flight within one slack window), the
// first factor of the monitor's O(slack + horizon) window bound.
#ifndef KAV_INGEST_REORDER_BUFFER_H
#define KAV_INGEST_REORDER_BUFFER_H

#include <cstdint>
#include <queue>
#include <vector>

#include "history/operation.h"
#include "util/time_types.h"

namespace kav {

class ReorderBuffer {
 public:
  // slack < 0 is normalized to 0 (arrivals already in start order).
  explicit ReorderBuffer(TimePoint slack);

  // Accepts one completed operation. Returns false -- and counts a
  // late rejection -- if op.start <= watermark(), i.e. the arrival
  // broke the slack promise and can no longer be emitted in order.
  bool push(const Operation& op);

  // Emits the next ready operation (start <= watermark()) in start
  // order; returns false when nothing is ready yet.
  bool pop(Operation& out);

  // End of stream: makes every buffered operation ready and pins the
  // watermark at +infinity (later pushes are all late).
  void flush();

  // Every future accepted push starts strictly after this; monotone.
  TimePoint watermark() const { return watermark_; }
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t late_rejected() const { return late_rejected_; }

 private:
  struct LaterStart {
    bool operator()(const Operation& a, const Operation& b) const {
      return a.start > b.start;  // min-heap by start
    }
  };

  TimePoint slack_;
  TimePoint watermark_ = kTimeMin;
  TimePoint max_start_seen_ = kTimeMin;
  std::priority_queue<Operation, std::vector<Operation>, LaterStart> pending_;
  std::uint64_t accepted_ = 0;
  std::uint64_t late_rejected_ = 0;
};

}  // namespace kav

#endif  // KAV_INGEST_REORDER_BUFFER_H
