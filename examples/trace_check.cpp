// Command-line trace checker: opens a recorded trace in either format
// (text or binary .kavb, auto-detected by magic via open_trace_source),
// verifies k-atomicity per key on a kav::Engine, and exits non-zero on
// violation -- suitable for CI pipelines over traces exported from a
// real store.
//
//   $ ./trace_check --k=2 trace.txt
//   $ ./trace_check --k=1 --algorithm=gk --threads=4 trace.kavb
//   $ ./trace_check --k=2 --fail-fast --timeout-ms=5000 trace.kavb
//   $ ./trace_check --keys=user:1,user:7 store.kavb   # selective audit
//   $ ./trace_check --json trace.kavb  # machine-readable metrics report
//   $ ./trace_check --demo          # generates and checks a demo trace
//
// --json replaces the human-readable output with one JSON document:
// the engine's full metrics snapshot (obs::render_json) -- every
// counter the run produced (keys verified, verdicts by outcome, shard
// timings, store/bloom statistics when reading an indexed segment).
// The exit code still carries the verdict, so CI can consume both.
//
// --keys=a,b,c verifies only the listed keys. Over an indexed .kavb
// v2 segment (written by the trace store, src/store/) only those
// keys' blocks are decoded -- auditing one key of a multi-gigabyte
// trace without reading the rest; over text or v1 inputs the stream
// is filtered while read (full decode, same verdicts).
#include <cstdio>
#include <string>
#include <vector>

#include "kav.h"
#include "quorum/sim.h"
#include "util/flags.h"

using namespace kav;

namespace {

Algorithm parse_algorithm(const std::string& name) {
  if (name == "auto") return Algorithm::auto_select;
  if (name == "gk") return Algorithm::gk;
  if (name == "lbt") return Algorithm::lbt;
  if (name == "fzf") return Algorithm::fzf;
  if (name == "greedy") return Algorithm::greedy;
  if (name == "oracle") return Algorithm::oracle;
  throw std::invalid_argument("unknown algorithm: " + name);
}

std::vector<std::string> parse_key_list(const std::string& csv) {
  std::vector<std::string> keys;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    if (end > begin) keys.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  EngineOptions options;
  options.verify.k = static_cast<int>(flags.get_int("k", 2));
  options.verify.algorithm =
      parse_algorithm(flags.get_string("algorithm", "auto"));
  options.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  options.fail_fast = flags.get_bool("fail-fast", false);
  RunOptions run;
  run.timeout =
      std::chrono::milliseconds(flags.get_int("timeout-ms", 0));
  run.key_filter = parse_key_list(flags.get_string("keys", ""));
  const bool demo = flags.get_bool("demo", false);
  const bool verbose = flags.get_bool("verbose", false);
  const bool json = flags.get_bool("json", false);
  flags.check_unknown();

  // --json mode scrapes this run alone: a private registry keeps the
  // output free of any other engine's series (and of nothing else in
  // this process, but the isolation is the idiom worth demonstrating).
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  Engine engine(options);
  Report report;
  if (demo) {
    quorum::QuorumConfig config;
    config.replicas = 5;
    config.write_quorum = 1;
    config.read_quorum = 1;
    config.first_responders = false;
    config.ops_per_client = 30;
    config.seed = 4;
    const KeyedTrace trace = quorum::run_sloppy_quorum_sim(config).trace;
    if (!json) {
      std::printf("generated demo trace (sloppy quorum, N=5 W=1 R=1): "
                  "%zu ops\n",
                  trace.size());
    }
    report = engine.verify(trace, run);
  } else {
    if (flags.positional().empty()) {
      std::fprintf(stderr,
                   "usage: trace_check [--k=K] [--algorithm=A] [--threads=N] "
                   "[--fail-fast] [--timeout-ms=N] [--keys=a,b,c] "
                   "<trace-file>\n"
                   "       trace_check --demo\n");
      return 2;
    }
    try {
      auto source = open_trace_source(flags.positional().front());
      report = engine.verify(*source, run);
      if (!json) {
        std::printf("checked %zu key(s) from %s\n", report.per_key.size(),
                    source->describe().c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  if (json) {
    // One JSON document on stdout, nothing else: the run's full
    // metrics snapshot. Verdict stays in the exit code.
    obs::write_snapshot(stdout, engine.snapshot(), obs::ExportFormat::json);
    return report.all_yes() && report.missing_keys.empty() ? 0 : 1;
  }

  std::printf("checking %d-atomicity with algorithm '%s' on %zu thread(s)\n",
              options.verify.k, to_string(options.verify.algorithm),
              engine.thread_count());
  if (report.selected) {
    std::printf("selective run: %zu/%zu keys matched the --keys filter\n",
                report.keys_selected, report.keys_available);
    for (const std::string& key : report.missing_keys) {
      std::printf("  requested key %-12s not present in the input\n",
                  key.c_str());
    }
  }
  for (const auto& [key, result] : report.per_key) {
    if (result.verdict.yes() && !verbose) continue;
    std::printf("  key %-12s %s\n", key.c_str(),
                describe(result.verdict).c_str());
  }
  std::printf("%s\n", report.summary().c_str());
  // A requested key the input does not contain fails the audit too:
  // exiting 0 on "--keys=typo" would be a silent no-op check.
  return report.all_yes() && report.missing_keys.empty() ? 0 : 1;
}
