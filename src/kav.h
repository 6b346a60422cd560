// kav -- k-Atomicity Verification. One include for the whole public
// surface; kav::Engine (core/engine.h) is the front door:
//
//   #include "kav.h"
//
//   kav::Engine engine;                       // one shared thread pool
//   kav::Report batch = engine.verify(trace); // sharded batch verdicts
//   kav::Report live = engine.monitor(trace); // online monitoring
//
// Inputs come from any TraceSource (in-memory trace, text or binary
// .kavb file, live push stream); runs take per-call RunOptions
// (VerifyOptions override, CancelToken, timeout, key_filter, live
// findings); results come back as the unified Report. Surface map:
// docs/API.md.
// Paper-section map and per-algorithm guarantees: docs/ALGORITHMS.md.
#ifndef KAV_KAV_H
#define KAV_KAV_H

// The session API.
#include "core/engine.h"
#include "core/options.h"
#include "core/report.h"
#include "core/run_control.h"

// Decision procedures and their support types.
#include "core/analysis.h"
#include "core/fzf.h"
#include "core/gk.h"
#include "core/greedy.h"
#include "core/kwav.h"
#include "core/lbt.h"
#include "core/minimal_k.h"
#include "core/oracle.h"
#include "core/streaming.h"
#include "core/verdict.h"
#include "core/verify.h"
#include "core/witness.h"

// Histories, traces, and their serializations.
#include "history/anomaly.h"
#include "history/history.h"
#include "history/keyed_trace.h"
#include "history/operation.h"
#include "history/serialization.h"

// Ingest: binary format, reordering, online monitoring, trace sources.
#include "ingest/binary_trace.h"
#include "ingest/keyed_monitor.h"
#include "ingest/reorder_buffer.h"
#include "ingest/trace_source.h"

// Observability: metrics registry, span tracing, exporters, rolling
// rates, and the live HTTP telemetry server. Always on at near-zero
// cost; scrape Engine::snapshot() through obs::render_prometheus /
// obs::render_json, or serve it live with Engine::serve_telemetry()
// (docs/OBSERVABILITY.md).
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/rate_window.h"
#include "obs/span.h"
#include "obs/telemetry_server.h"

// Networking substrate (Linux epoll): the event loop under the
// telemetry server.
#include "net/event_loop.h"
#include "net/http.h"
#include "net/tcp.h"

// Trace store: persistent indexed segments, mmap-backed selective reads.
#include "store/indexed_source.h"
#include "store/mapped_segment.h"
#include "store/segment_writer.h"
#include "store/trace_store.h"

// Parallel verification pipeline.
#include "pipeline/sharded_verifier.h"
#include "pipeline/thread_pool.h"

#endif  // KAV_KAV_H
