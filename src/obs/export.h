// Exposition renderers: pure functions from a RegistrySnapshot to
// text, with no clocks, no I/O, and no global state, so the telemetry
// server (obs/telemetry_server.h) can serve their output verbatim and
// golden tests can pin it byte-for-byte.
//
//   render_prometheus() -- Prometheus text exposition format 0.0.4:
//     # HELP/# TYPE per metric name, histograms as cumulative
//     <name>_bucket{le="..."} series plus _sum/_count.
//   render_json()       -- one JSON document {"metrics": [...]}, each
//     metric carrying name/type/help/labels and either "value" or
//     histogram "count"/"sum"/"buckets".
//
// Both render doubles via shortest-round-trip formatting
// (std::to_chars), so output is locale-independent and deterministic
// for identical snapshots. Exact grammar: docs/OBSERVABILITY.md.
#ifndef KAV_OBS_EXPORT_H
#define KAV_OBS_EXPORT_H

#include <cstdio>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace kav::obs {

std::string render_prometheus(const RegistrySnapshot& snapshot);
std::string render_json(const RegistrySnapshot& snapshot);

// Format selector for the shared CLI/server dump path: trace_check
// --json, streaming_monitor --metrics, and the telemetry endpoints all
// go through the same renderers.
enum class ExportFormat {
  prometheus,
  json,
};

std::string render(const RegistrySnapshot& snapshot, ExportFormat format);

// Renders and writes in one call -- the CLI dump helper (stdout today,
// but any stream works). Returns false when the write came up short.
bool write_snapshot(std::FILE* stream, const RegistrySnapshot& snapshot,
                    ExportFormat format);

namespace detail {

// Building blocks shared with obs/telemetry_server.cpp (the /status
// JSON is hand-assembled from the same escaping + number formatting the
// exporters use, so the two surfaces cannot drift).
//
// Shortest round-trip decimal form via std::to_chars: "3", "0.004",
// "9.313225746154785e-10". Locale-independent and deterministic.
std::string format_double(double v);
// JSON string-content escaping (quotes, backslash, control chars).
void append_json_escaped(std::string& out, std::string_view s);
// Prometheus exposition escaping: backslash + newline always, quotes
// only inside label values (escape_quotes=true), per format 0.0.4.
void append_prometheus_escaped(std::string& out, std::string_view s,
                               bool escape_quotes);

}  // namespace detail

}  // namespace kav::obs

#endif  // KAV_OBS_EXPORT_H
