// Audits a simulated Dynamo-style sloppy-quorum store for bounded
// staleness -- the experiment Section VII of the paper proposes
// ("test whether existing storage systems provide 2-atomicity in
// practice"). Runs the discrete-event simulator, then drives ONE
// kav::Engine three ways over the same trace: a batch k = 1 audit, a
// batch k = 2 audit (per-call VerifyOptions overrides on the same
// shards), and an online monitoring replay -- all three share the
// engine's single thread pool, which is the point of the
// session API.
//
//   $ ./quorum_audit --replicas=5 --write-quorum=1 --read-quorum=1
//         --first-responders=false --clients=4 --ops=60 --seed=7
//         --threads=4
#include <algorithm>
#include <cstdio>

#include "kav.h"
#include "quorum/sim.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace kav;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  quorum::QuorumConfig config;
  config.replicas = static_cast<int>(flags.get_int("replicas", 3));
  config.write_quorum = static_cast<int>(flags.get_int("write-quorum", 2));
  config.read_quorum = static_cast<int>(flags.get_int("read-quorum", 2));
  config.clients = static_cast<int>(flags.get_int("clients", 4));
  config.keys = static_cast<int>(flags.get_int("keys", 3));
  config.ops_per_client = static_cast<int>(flags.get_int("ops", 50));
  config.read_fraction = flags.get_double("read-fraction", 0.7);
  config.first_responders = flags.get_bool("first-responders", true);
  config.anti_entropy_interval =
      flags.get_int("anti-entropy-interval", 200);
  config.clock_skew_max = flags.get_int("clock-skew", 0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  // --listen=[ADDR:]PORT serves the audit's telemetry live (same
  // endpoints as streaming_monitor; PORT 0 = ephemeral, printed to
  // stderr).
  const std::string listen = flags.get_string("listen", "");
  flags.check_unknown();

  std::printf(
      "simulating: N=%d W=%d R=%d (%s quorums), %d clients x %d ops, "
      "%d keys, seed %llu\n",
      config.replicas, config.write_quorum, config.read_quorum,
      config.first_responders ? "first-responder" : "fixed-subset",
      config.clients, config.ops_per_client, config.keys,
      static_cast<unsigned long long>(config.seed));
  std::printf("quorum overlap: R + W %s N  =>  %s\n\n",
              config.read_quorum + config.write_quorum > config.replicas
                  ? ">"
                  : "<=",
              config.read_quorum + config.write_quorum > config.replicas
                  ? "strict (reads see fresh data)"
                  : "sloppy (staleness possible; the paper's k-atomicity "
                    "setting)");

  const quorum::SimResult result = quorum::run_sloppy_quorum_sim(config);
  std::printf("trace: %zu operations, %llu messages, %llu stale reads "
              "observed by the simulator\n\n",
              result.trace.size(),
              static_cast<unsigned long long>(result.stats.messages),
              static_cast<unsigned long long>(result.stats.stale_reads));

  // One Engine, one pool: the k = 1 and k = 2 batch audits reuse the
  // split shards with per-call overrides, and the online monitor replay
  // below runs on the same threads.
  EngineOptions engine_options;
  engine_options.threads = threads;
  Engine engine(engine_options);
  if (!listen.empty()) {
    try {
      const ListenAddress address = parse_listen_address(listen);
      obs::TelemetryServer& server =
          engine.serve_telemetry(address.address, address.port);
      std::fprintf(stderr, "telemetry listening on http://%s:%u\n",
                   server.address().c_str(), server.port());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --listen=%s: %s\n", listen.c_str(),
                   e.what());
      return 2;
    }
  }
  const KeyedHistories split = split_by_key(result.trace);
  RunOptions run;
  VerifyOptions verify;
  verify.k = 1;
  run.verify = verify;
  const Report report1 = engine.verify(split, run);
  verify.k = 2;
  run.verify = verify;
  const Report report2 = engine.verify(split, run);
  std::size_t largest = 0;
  for (const auto& [key, history] : split.per_key) {
    largest = std::max(largest, history.size());
  }
  std::printf("engine: %zu threads, %zu shards (largest %zu ops)\n\n",
              engine.thread_count(), split.per_key.size(), largest);

  TablePrinter table({"key", "ops", "writes", "c", "1-atomic", "2-atomic",
                      "minimal k"});
  int violations = 0;
  for (const auto& [key, history] : split.per_key) {
    // The facade normalizes repairable anomalies itself; hard anomalies
    // surface as precondition_failed.
    if (report2.per_key.at(key).verdict.outcome ==
        Outcome::precondition_failed) {
      table.add_row({key, std::to_string(history.size()), "-", "-",
                     "anomalous", "anomalous", "-"});
      continue;
    }
    const bool atomic1 = report1.per_key.at(key).verdict.yes();
    const bool atomic2 = report2.per_key.at(key).verdict.yes();
    violations += !atomic2;
    const MinimalKResult min_k = minimal_k(history);
    std::string min_k_text = std::to_string(min_k.k);
    if (!min_k.exact) min_k_text = "<= " + min_k_text;
    table.add_row({key, std::to_string(history.size()),
                   std::to_string(history.write_count()),
                   std::to_string(history.max_concurrent_writes()),
                   atomic1 ? "yes" : "NO", atomic2 ? "yes" : "NO",
                   min_k_text});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Online replay on the same engine (and the same pool): the monitor
  // flags the same keys the batch k = 2 audit does, plus streaming-only
  // findings like staleness-horizon violations.
  const Report live = engine.monitor(result.trace);
  std::printf("online monitor replay: %s | %.0f ops/s, peak window %zu\n",
              live.summary().c_str(), live.monitor_totals.ops_per_second,
              live.monitor_totals.peak_window);

  if (violations > 0) {
    std::printf("\n%d key(s) exceed 2-atomicity: this configuration cannot "
                "promise staleness <= 1 version.\n",
                violations);
    return 1;
  }
  std::printf("\nall keys within the 2-atomicity staleness bound.\n");
  return 0;
}
