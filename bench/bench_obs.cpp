// Telemetry serving costs: scrape latency against a live engine and --
// the number the design optimizes for -- verify/monitor throughput with
// a scraper hammering GET /metrics in the background versus without.
// The server ticks rate windows and renders on its own loop thread; the
// hot path only ever touches sharded atomic counters, so background
// scraping must cost the pipeline approximately nothing (the run_bench
// smoke guardrail holds the with-scraper throughput to within noise of
// the baseline).
//
// Scrape latency is measured through a real socket round trip
// (net::http_get against 127.0.0.1), so the number includes connect +
// render + loopback transfer: what an operator's Prometheus actually
// pays per scrape.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench_common.h"
#include "kav.h"
#include "util/rng.h"

namespace kav {
namespace {

std::size_t bench_ops() {
  if (const char* env = std::getenv("KAV_BENCH_OPS")) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed) / 5;
  }
  return 200'000;
}

KeyedTrace make_trace(std::size_t ops, int keys) {
  Rng rng(2026);
  KeyedTrace trace;
  std::vector<TimePoint> clocks(static_cast<std::size_t>(keys), 0);
  std::vector<Value> next_value(static_cast<std::size_t>(keys), 1);
  int key = 0;
  while (trace.size() < ops) {
    auto k = static_cast<std::size_t>(key);
    const Value value = next_value[k]++;
    const TimePoint t = clocks[k];
    trace.add("key" + std::to_string(key), make_write(t, t + 4, value));
    if (trace.size() < ops) {
      trace.add("key" + std::to_string(key),
                make_read(t + 5, t + 8, value,
                          static_cast<ClientId>(rng.bounded(8))));
    }
    clocks[k] = t + 12;
    key = (key + 1) % keys;
  }
  return trace;
}

const KeyedTrace& bench_trace() {
  static const KeyedTrace trace = make_trace(bench_ops(), 64);
  return trace;
}

// --- Scrape latency ---------------------------------------------------------

// One full GET /metrics round trip per iteration, against a registry
// pre-populated by a real monitor run (the realistic series count).
void scrape_metrics(benchmark::State& state) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  obs::TelemetryServer& server = engine.serve_telemetry();
  engine.monitor(bench_trace());

  std::size_t bytes = 0;
  for (auto _ : state) {
    const net::HttpResponse response =
        net::http_get(server.address(), server.port(), "/metrics");
    benchmark::DoNotOptimize(response.body.data());
    bytes += response.body.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["scrapes"] =
      static_cast<double>(state.iterations());
}
BENCHMARK(scrape_metrics)->Unit(benchmark::kMicrosecond);

void scrape_status(benchmark::State& state) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  obs::TelemetryServer& server = engine.serve_telemetry();
  engine.monitor(bench_trace());

  for (auto _ : state) {
    const net::HttpResponse response =
        net::http_get(server.address(), server.port(), "/status");
    benchmark::DoNotOptimize(response.body.data());
  }
}
BENCHMARK(scrape_status)->Unit(benchmark::kMicrosecond);

// --- Monitor throughput under scrape load -----------------------------------

// range(0): scraper threads issuing GET /metrics at a 5ms cadence for
// the whole run (0 = baseline). The cadence matters: an unthrottled
// scrape loop just time-shares the CPU with the monitor on small CI
// boxes (1 vCPU), drowning the signal in scheduler noise, while 200
// scrapes/sec is already ~1000x denser than a real Prometheus
// interval. The guardrail compares 0 vs 2: the monitor drains through
// sharded atomics and never takes the server's locks, so a scrape
// that BLOCKED the hot path (registry-wide lock, stop-the-world
// snapshot) would stretch wall time well past the cadence's CPU cost.
void monitor_under_scrape(benchmark::State& state) {
  const auto scrapers = static_cast<std::size_t>(state.range(0));
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  obs::TelemetryServer& server = engine.serve_telemetry();
  const std::string address = server.address();
  const std::uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrape_count{0};
  std::vector<std::thread> scraper_threads;
  for (std::size_t i = 0; i < scrapers; ++i) {
    scraper_threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        try {
          const net::HttpResponse response =
              net::http_get(address, port, "/metrics");
          benchmark::DoNotOptimize(response.body.data());
          scrape_count.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          break;  // server gone: bench teardown
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  std::uint64_t ops_done = 0;
  const bench::ProcessCpu cpu;
  for (auto _ : state) {
    const Report report = engine.monitor(bench_trace());
    benchmark::DoNotOptimize(&report);
    ops_done += bench_trace().size();
  }
  cpu.report(state, ops_done);
  done = true;
  for (std::thread& t : scraper_threads) t.join();

  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops_done), benchmark::Counter::kIsRate);
  state.counters["scrapers"] = static_cast<double>(scrapers);
  state.counters["scrapes"] = static_cast<double>(scrape_count.load());
}
BENCHMARK(monitor_under_scrape)->Arg(0)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kav

BENCHMARK_MAIN();
