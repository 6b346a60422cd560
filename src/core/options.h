// EngineOptions -- the library's one options type. kav::Engine
// (core/engine.h) is constructed from it and configures the components
// it wires onto its shared pool: the sharded batch verifier
// (pipeline/sharded_verifier.h) takes fail_fast, and the keyed online
// monitor (ingest/keyed_monitor.h) reads the monitoring fields from this
// struct. It lives in its own header so the monitor need not include
// the Engine itself.
#ifndef KAV_CORE_OPTIONS_H
#define KAV_CORE_OPTIONS_H

#include <cstddef>

#include "core/streaming.h"
#include "core/verify.h"
#include "util/time_types.h"

namespace kav {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct EngineOptions {
  // What to verify: k, algorithm, normalization (core/verify.h).
  VerifyOptions verify;
  // Size of the one shared pool; 0 picks hardware_concurrency().
  std::size_t threads = 0;

  // Batch verification (Engine::verify): once one shard answers NO,
  // not-yet-started shards are skipped.
  bool fail_fast = false;

  // Online monitoring (Engine::monitor):
  StreamingOptions streaming;  // per-key staleness horizon
  // Arrival disorder bound handed to each key's ReorderBuffer: every
  // arrival starts at most this many ticks before the key's maximum
  // start seen so far. Safe choice: max operation duration plus
  // delivery jitter. Arrivals beyond the slack are late_arrival
  // findings, not crashes.
  TimePoint reorder_slack = 1'000;
  // Queue capacity of each monitor partition (keys are spread over one
  // partition per pool thread, ingest/keyed_monitor.h); an ingester
  // that outruns checking blocks while a partition queue is full
  // (backpressure) instead of growing an unbounded backlog. Also the
  // most operations Engine::monitor pulls per chunk, so a partition
  // queue never holds 2 x queue_capacity operations.
  std::size_t queue_capacity = 1'024;

  // Observability (src/obs/): the registry every subsystem this engine
  // owns reports into -- pool, sharded verifier, per-run monitors, and
  // any store from open_store(). nullptr = the process-wide
  // obs::MetricsRegistry::global(). Inject a private registry to
  // isolate one engine's series (tests do) or to scrape several
  // engines separately from one process.
  obs::MetricsRegistry* metrics = nullptr;
};

}  // namespace kav

#endif  // KAV_CORE_OPTIONS_H
