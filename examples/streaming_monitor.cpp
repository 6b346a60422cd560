// Online keyed 2-atomicity monitoring of a trace file -- Section VII's
// proposed experiment ("test whether existing storage systems provide
// 2-atomicity in practice") as a deployable tool, driven through the
// kav::Engine session API. The trace streams through the engine's
// monitor path (per-key ReorderBuffer + StreamingChecker shards on the
// engine's shared pool, memory O(slack + horizon) per key), with
// violations printed live as they are detected; --verify then re-runs
// the same trace through the engine's batch path -- on the same thread
// pool, which is the point of the session API.
//
// Accepts both trace formats, deciding by magic bytes via
// open_trace_source: text (`# kav trace v1`, history/serialization.h)
// or binary (.kavb, ingest/binary_trace.h -- streamed record by record
// without ever holding the whole trace).
//
//   $ ./streaming_monitor --horizon=10000 --slack=1000 trace.kavb
//   $ ./streaming_monitor --metrics trace.kavb   # Prometheus exposition
//   $ ./streaming_monitor --demo --ops=200 --replicas=5 --write-quorum=1
//         --read-quorum=1 --save=demo.kavb
//
// --metrics replaces the human-readable summary with the engine's full
// metrics snapshot in Prometheus text exposition format
// (obs::render_prometheus) -- the exact bytes a /metrics endpoint
// would serve after this run: ingest totals, watermark lag, reorder
// occupancy, pool queue statistics, per-kind violation counters.
//
// --listen=[ADDR:]PORT serves that endpoint for real while the run is
// live (obs::TelemetryServer: /metrics /status /healthz /spans; PORT 0
// picks an ephemeral port, printed to stderr); --linger keeps serving
// after the run until stdin closes, which is how ci.sh's telemetry
// smoke diffs a final scrape against the --metrics stdout.
//
// Exit status: 0 when every key's stream is clean, 1 otherwise.
#include <cstdio>
#include <string>

#include "kav.h"
#include "quorum/sim.h"
#include "util/flags.h"

using namespace kav;

namespace {

const char* kind_name(StreamingViolation::Kind kind) {
  switch (kind) {
    case StreamingViolation::Kind::not_2atomic:
      return "not-2-atomic";
    case StreamingViolation::Kind::horizon_exceeded:
      return "horizon-exceeded";
    case StreamingViolation::Kind::hard_anomaly:
      return "hard-anomaly";
    case StreamingViolation::Kind::late_arrival:
      return "late-arrival";
  }
  return "unknown";
}

void save_trace(const std::string& path, const KeyedTrace& trace) {
  const bool binary =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".kavb") == 0;
  if (binary) {
    write_binary_trace_file(path, trace);
  } else {
    write_trace_file(path, trace);
  }
  std::printf("saved %zu operations to %s (%s format)\n", trace.size(),
              path.c_str(), binary ? "binary" : "text");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  EngineOptions options;
  options.verify.k = 2;
  options.streaming.staleness_horizon = flags.get_int("horizon", 10'000);
  options.reorder_slack = flags.get_int("slack", 1'000);
  options.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  options.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue", 1'024));
  const bool demo = flags.get_bool("demo", false);
  const bool metrics = flags.get_bool("metrics", false);
  // --listen=[ADDR:]PORT serves live telemetry (GET /metrics /status
  // /healthz /spans) while the monitor runs; PORT 0 = ephemeral, the
  // bound endpoint prints to stderr.
  const std::string listen = flags.get_string("listen", "");
  // --linger keeps serving after the run until stdin hits EOF -- how
  // the CI smoke scrapes a quiesced engine deterministically.
  const bool linger = flags.get_bool("linger", false);
  // Batch re-verify on the same engine; defaults on in demo mode (the
  // trace is already in memory there).
  const bool reverify = flags.get_bool("verify", demo && !metrics);

  // Live sink: violations print the moment a drain task detects them,
  // not at finish() -- what a production deployment would page on.
  // Suppressed in --metrics mode, where stdout is the exposition.
  RunOptions run;
  if (!metrics) {
    run.on_finding = [](const std::string& key,
                        const StreamingViolation& violation) {
      std::printf("  LIVE [%s] key %s at watermark %lld: %s\n",
                  kind_name(violation.kind), key.c_str(),
                  static_cast<long long>(violation.when),
                  violation.detail.c_str());
    };
  }

  // --metrics scrapes this run alone through a private registry, so
  // the exposition holds exactly this engine's series.
  obs::MetricsRegistry registry;
  if (metrics) options.metrics = &registry;
  Engine engine(options);
  if (!listen.empty()) {
    try {
      const ListenAddress address = parse_listen_address(listen);
      obs::TelemetryServer& server =
          engine.serve_telemetry(address.address, address.port);
      // stderr, so --metrics stdout stays pure exposition.
      std::fprintf(stderr, "telemetry listening on http://%s:%u\n",
                   server.address().c_str(), server.port());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --listen=%s: %s\n", listen.c_str(),
                   e.what());
      return 2;
    }
  }
  Report report;
  KeyedTrace demo_trace;
  std::string path;
  if (demo) {
    quorum::QuorumConfig config;
    config.replicas = static_cast<int>(flags.get_int("replicas", 3));
    config.write_quorum = static_cast<int>(flags.get_int("write-quorum", 2));
    config.read_quorum = static_cast<int>(flags.get_int("read-quorum", 2));
    config.first_responders = flags.get_bool("first-responders", true);
    config.clients = static_cast<int>(flags.get_int("clients", 4));
    config.keys = static_cast<int>(flags.get_int("keys", 2));
    config.ops_per_client = static_cast<int>(flags.get_int("ops", 200));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::string save_path = flags.get_string("save", "");
    flags.check_unknown();
    if (!flags.positional().empty()) {
      std::fprintf(stderr,
                   "streaming_monitor: --demo does not take a trace file "
                   "(got '%s'); drop --demo to monitor a file\n",
                   flags.positional().front().c_str());
      return 2;
    }

    demo_trace = quorum::run_sloppy_quorum_sim(config).trace;
    if (!metrics) {
      std::printf("simulated %zu operations (N=%d W=%d R=%d, %s quorums)\n",
                  demo_trace.size(), config.replicas, config.write_quorum,
                  config.read_quorum,
                  config.first_responders ? "first-responder"
                                          : "fixed-subset");
    }
    if (!save_path.empty()) save_trace(save_path, demo_trace);
    report = engine.monitor(demo_trace, run);
  } else {
    flags.check_unknown();
    if (flags.positional().size() != 1) {
      std::fprintf(stderr,
                   "usage: streaming_monitor [--horizon=N] [--slack=N] "
                   "[--threads=N] [--queue=N] [--verify] "
                   "[--listen=[ADDR:]PORT] [--linger] <trace-file>\n"
                   "       streaming_monitor --demo [sim flags] "
                   "[--save=path[.kavb]]\n");
      return 2;
    }
    path = flags.positional().front();
    try {
      // Binary files stream record by record: one op in flight, never
      // the whole trace.
      auto source = open_trace_source(path);
      report = engine.monitor(*source, run);
      if (!metrics) std::printf("monitored %s\n", source->describe().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  if (linger) {
    // Keep serving until whoever launched us closes stdin; only then
    // does the final exposition below get rendered, so a scraper's
    // last GET /metrics and our stdout describe the same instant.
    while (std::fgetc(stdin) != EOF) {
    }
  }

  if (metrics) {
    // The run's registry in Prometheus text exposition format --
    // nothing else on stdout. Verdict stays in the exit code.
    obs::write_snapshot(stdout, engine.snapshot(),
                        obs::ExportFormat::prometheus);
    return report.all_yes() ? 0 : 1;
  }

  for (const auto& [key, result] : report.per_key) {
    std::printf(
        "key %-8s %-3s ingested=%llu evicted=%llu chunks=%llu "
        "peak-window=%zu\n",
        key.c_str(), result.findings.empty() ? "ok" : "NO",
        static_cast<unsigned long long>(result.stream.operations_ingested),
        static_cast<unsigned long long>(result.stream.operations_evicted),
        static_cast<unsigned long long>(result.stream.chunks_verified),
        result.stream.peak_window);
    for (const StreamingViolation& violation : result.findings) {
      std::printf("    [%s] at watermark %lld: %s\n",
                  kind_name(violation.kind),
                  static_cast<long long>(violation.when),
                  violation.detail.c_str());
    }
  }
  const MonitorStats& totals = report.monitor_totals;
  std::printf(
      "%s | %llu ops in %.3fs (%.0f ops/s) on %zu thread(s), "
      "peak window %zu, watermark lag %lld\n",
      report.summary().c_str(),
      static_cast<unsigned long long>(totals.operations_ingested),
      totals.elapsed_seconds, totals.ops_per_second, engine.thread_count(),
      totals.peak_window, static_cast<long long>(totals.max_watermark_lag));

  if (reverify) {
    // Same engine, same pool: the batch k = 2 audit double-checks the
    // online verdicts from the already-loaded (or re-opened) trace.
    Report batch;
    if (demo) {
      batch = engine.verify(demo_trace);
    } else {
      auto source = open_trace_source(path);
      batch = engine.verify(*source);
    }
    std::printf("batch re-verify (same engine, same pool): %s\n",
                batch.summary().c_str());
  }
  return report.all_yes() ? 0 : 1;
}
