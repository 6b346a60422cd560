// Test helper: names keys the way a TraceSource does (one KeyInterner
// for the feeder's life, so ids stay consistent across calls) and hands
// the resulting KeyedChunks to a KeyedStreamingMonitor.
#ifndef KAV_TESTS_CHUNK_FEED_H
#define KAV_TESTS_CHUNK_FEED_H

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "history/keyed_trace.h"
#include "ingest/keyed_monitor.h"

namespace kav::testing_util {

class ChunkFeeder {
 public:
  explicit ChunkFeeder(KeyedStreamingMonitor& monitor) : monitor_(monitor) {}

  // One operation, as a chunk of its own.
  void ingest(std::string_view key, const Operation& op) {
    chunk_.clear();
    interner_.append(chunk_, key, op);
    monitor_.ingest(chunk_);
  }

  // `trace` in arrival order, `chunk_ops` operations per chunk.
  void ingest(const KeyedTrace& trace, std::size_t chunk_ops) {
    for (std::size_t at = 0; at < trace.size(); at += chunk_ops) {
      chunk_.clear();
      const std::size_t end = std::min(trace.size(), at + chunk_ops);
      for (std::size_t i = at; i < end; ++i) {
        interner_.append(chunk_, trace.ops[i].key, trace.ops[i].op);
      }
      monitor_.ingest(chunk_);
    }
  }

 private:
  KeyedStreamingMonitor& monitor_;
  KeyInterner interner_;
  KeyedChunk chunk_;
};

}  // namespace kav::testing_util

#endif  // KAV_TESTS_CHUNK_FEED_H
