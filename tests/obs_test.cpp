// Tests for the kav::obs spine (src/obs/): exact totals under
// concurrent hammering (the sharded cells must lose nothing), the
// histogram's float-exact bucket boundaries, byte-for-byte golden
// renders of both exporters, registry find-or-create semantics, the
// enabled gate, and the tracer ring.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace kav::obs {
namespace {

// --- Concurrent exactness --------------------------------------------------

TEST(ObsCounter, ConcurrentHammerIsExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hammer_total", "hammered");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Mix unit increments and weighted adds; both must land.
        if ((i & 3) == 0) {
          counter.add(3);
        } else {
          counter.add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Per thread: kPerThread/4 adds of 3 plus 3*kPerThread/4 adds of 1.
  const std::uint64_t expected =
      kThreads * (kPerThread / 4 * 3 + kPerThread / 4 * 3);
  EXPECT_EQ(counter.value(), expected);
}

TEST(ObsHistogram, ConcurrentHammerHasExactCountAndSum) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("hammer_seconds", "hammered");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Exact binary fractions: the atomic<double> sum accumulates
        // them without rounding, so the total is exactly comparable.
        histogram.observe(static_cast<double>(i & 7) * 0.25);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Sum of one thread's cycle: (0+1+...+7)*0.25 = 7.0 per 8 observations.
  const double expected_sum =
      static_cast<double>(kThreads) * (kPerThread / 8) * 7.0;
  EXPECT_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsGauge, AddSubSetRoundTrip) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth", "levels");
  gauge.add(10);
  gauge.sub(3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set(-4);
  EXPECT_EQ(gauge.value(), -4);
}

// --- Bucket boundaries -----------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreExact) {
  // The contract the exporters and goldens rely on: bucket b's upper
  // bound is 2^(b-30), inclusive; the next representable double above
  // it lands in bucket b+1; the one below stays in b. frexp makes
  // these comparisons float-exact, which this test pins per bucket.
  for (int b = 1; b < kHistogramBuckets - 1; ++b) {
    const double bound = Histogram::bucket_upper_bound(b);
    EXPECT_EQ(Histogram::bucket_index(bound), b) << "at bound of " << b;
    EXPECT_EQ(Histogram::bucket_index(
                  std::nextafter(bound, std::numeric_limits<double>::max())),
              b + 1)
        << "just above bound of " << b;
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(bound, 0.0)), b)
        << "just below bound of " << b;
  }
  // Bucket 0 takes its own bound and everything at or below it.
  EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper_bound(0)), 0);
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0);
  // The last bucket is the +Inf overflow: its own bound and beyond.
  EXPECT_EQ(Histogram::bucket_index(
                Histogram::bucket_upper_bound(kHistogramBuckets - 1)),
            kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(1e300), kHistogramBuckets - 1);
}

TEST(ObsHistogram, ObservationsLandInIndexedBuckets) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("landing_seconds", "landings");
  const std::vector<double> values = {0.0, 1e-12, 0.25, 0.5,
                                      1.0, 3.0,   1e9,  -2.0};
  for (const double v : values) histogram.observe(v);
  const HistogramSnapshot snap = histogram.snapshot();
  for (const double v : values) {
    EXPECT_GE(snap.buckets[static_cast<std::size_t>(Histogram::bucket_index(
                  v))],
              1u)
        << "value " << v;
  }
  EXPECT_EQ(snap.count, values.size());
}

// --- Golden renders --------------------------------------------------------

// One registry, one metric of each type, chosen so every formatted
// number is an exact short decimal. Byte-for-byte goldens: any change
// to exporter output is a wire-format change and must be deliberate.
RegistrySnapshot golden_snapshot() {
  static MetricsRegistry registry;
  static bool filled = false;
  if (!filled) {
    filled = true;
    registry.counter("demo_total", "Events.").add(3);
    registry.gauge("demo_depth", "Queue depth.", {{"pool", "a"}}).set(5);
    Histogram& h = registry.histogram("demo_seconds", "Latency.");
    h.observe(0.5);  // bucket 29, le="0.5"
    h.observe(1.0);  // bucket 30, le="1"
    h.observe(3.0);  // bucket 32, le="4"
  }
  return registry.snapshot();
}

TEST(ObsExport, PrometheusGolden) {
  const std::string expected =
      "# HELP demo_depth Queue depth.\n"
      "# TYPE demo_depth gauge\n"
      "demo_depth{pool=\"a\"} 5\n"
      "# HELP demo_seconds Latency.\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"0.5\"} 1\n"
      "demo_seconds_bucket{le=\"1\"} 2\n"
      "demo_seconds_bucket{le=\"4\"} 3\n"
      "demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "demo_seconds_sum 4.5\n"
      "demo_seconds_count 3\n"
      "# HELP demo_total Events.\n"
      "# TYPE demo_total counter\n"
      "demo_total 3\n";
  EXPECT_EQ(render_prometheus(golden_snapshot()), expected);
}

TEST(ObsExport, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"metrics\": [\n"
      "    {\"name\":\"demo_depth\",\"type\":\"gauge\",\"help\":\"Queue "
      "depth.\",\"labels\":{\"pool\":\"a\"},\"value\":5},\n"
      "    {\"name\":\"demo_seconds\",\"type\":\"histogram\",\"help\":"
      "\"Latency.\",\"labels\":{},\"count\":3,\"sum\":4.5,\"buckets\":["
      "{\"le\":0.5,\"count\":1},{\"le\":1,\"count\":2},{\"le\":4,\"count\":3}"
      "]},\n"
      "    {\"name\":\"demo_total\",\"type\":\"counter\",\"help\":\"Events."
      "\",\"labels\":{},\"value\":3}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(render_json(golden_snapshot()), expected);
}

TEST(ObsExport, EscapesLabelValuesAndHelp) {
  MetricsRegistry registry;
  registry
      .counter("esc_total", "line1\nline2 \"quoted\" back\\slash",
               {{"k", "a\"b\\c"}})
      .add(1);
  const std::string prom = render_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("# HELP esc_total line1\\nline2 \"quoted\" "
                      "back\\\\slash\n"),
            std::string::npos);
  EXPECT_NE(prom.find("esc_total{k=\"a\\\"b\\\\c\"} 1\n"), std::string::npos);
  const std::string json = render_json(registry.snapshot());
  EXPECT_NE(json.find("\"labels\":{\"k\":\"a\\\"b\\\\c\"}"),
            std::string::npos);
  EXPECT_NE(json.find("line1\\u000aline2"), std::string::npos);
}

TEST(ObsExport, EmptyRegistryRendersEmptyDocuments) {
  MetricsRegistry registry;
  EXPECT_EQ(render_prometheus(registry.snapshot()), "");
  EXPECT_EQ(render_json(registry.snapshot()),
            "{\n  \"metrics\": [\n  ]\n}\n");
}

TEST(ObsExport, LabelCollisionSeriesShareOneHelpTypeBlock) {
  // Same exposition name, different label sets: one # HELP/# TYPE
  // header, one line per series, series in sorted label order.
  MetricsRegistry registry;
  registry.counter("multi_total", "Multi.", {{"shard", "b"}}).add(2);
  registry.counter("multi_total", "Multi.", {{"shard", "a"}}).add(1);
  registry.counter("multi_total", "Multi.").add(3);
  const std::string prom = render_prometheus(registry.snapshot());
  EXPECT_EQ(
      prom,
      "# HELP multi_total Multi.\n"
      "# TYPE multi_total counter\n"
      "multi_total 3\n"
      "multi_total{shard=\"a\"} 1\n"
      "multi_total{shard=\"b\"} 2\n");
}

TEST(ObsExport, ObservationBeyondTopBucketRendersInfOnly) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("edge_seconds", "Edges.");
  histogram.observe(1e10);  // past the top finite bound (2^33)
  const std::string prom = render_prometheus(registry.snapshot());
  // No finite bucket holds the observation: only the +Inf cumulative
  // line appears, and count/sum still balance.
  EXPECT_NE(prom.find("edge_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("edge_seconds_bucket{le=\"0"), std::string::npos);
  EXPECT_NE(prom.find("edge_seconds_count 1\n"), std::string::npos);
}

TEST(ObsExport, RenderDispatchesOnFormat) {
  MetricsRegistry registry;
  registry.counter("fmt_total", "Formats.").add(4);
  const RegistrySnapshot snapshot = registry.snapshot();
  EXPECT_EQ(render(snapshot, ExportFormat::prometheus),
            render_prometheus(snapshot));
  EXPECT_EQ(render(snapshot, ExportFormat::json), render_json(snapshot));
}

TEST(ObsExport, WriteSnapshotRoundTripsThroughAStream) {
  MetricsRegistry registry;
  registry.counter("rt_total", "Round trips.").add(9);
  const RegistrySnapshot snapshot = registry.snapshot();
  for (const ExportFormat format :
       {ExportFormat::prometheus, ExportFormat::json}) {
    std::FILE* stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    ASSERT_TRUE(write_snapshot(stream, snapshot, format));
    std::fflush(stream);
    std::rewind(stream);
    std::string read_back;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), stream)) > 0) {
      read_back.append(buf, n);
    }
    std::fclose(stream);
    EXPECT_EQ(read_back, render(snapshot, format));
  }
}

TEST(ObsExportDetail, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(detail::format_double(3.0), "3");
  EXPECT_EQ(detail::format_double(0.004), "0.004");
  EXPECT_EQ(detail::format_double(-2.5), "-2.5");
  EXPECT_EQ(detail::format_double(0.0), "0");
}

TEST(ObsExportDetail, EscapingHelpers) {
  std::string out;
  detail::append_json_escaped(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "a\\\"b\\\\c\\u000ad\\u0001");
  out.clear();
  detail::append_prometheus_escaped(out, "a\"b\\c\nd",
                                    /*escape_quotes=*/true);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");
  out.clear();
  // HELP text keeps quotes literal per exposition format 0.0.4.
  detail::append_prometheus_escaped(out, "a\"b\\c\nd",
                                    /*escape_quotes=*/false);
  EXPECT_EQ(out, "a\"b\\\\c\\nd");
}

// --- Registry semantics ----------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same_total", "first help");
  Counter& b = registry.counter("same_total", "ignored second help");
  EXPECT_EQ(&a, &b);
  // Label order does not matter: labels are sorted at registration.
  Gauge& g1 =
      registry.gauge("same_depth", "h", {{"b", "2"}, {"a", "1"}});
  Gauge& g2 =
      registry.gauge("same_depth", "h", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&g1, &g2);
  // Different label values are distinct series.
  Gauge& g3 = registry.gauge("same_depth", "h", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&g1, &g3);
}

TEST(ObsRegistry, TypeConflictThrows) {
  MetricsRegistry registry;
  registry.counter("conflict_total", "a counter");
  EXPECT_THROW(registry.gauge("conflict_total", "now a gauge"),
               std::logic_error);
  EXPECT_THROW(registry.histogram("conflict_total", "now a histogram"),
               std::logic_error);
}

TEST(ObsRegistry, DuplicateLabelKeysThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(
      registry.counter("dup_total", "h", {{"k", "1"}, {"k", "2"}}),
      std::logic_error);
}

TEST(ObsRegistry, DisabledRegistryDropsUpdates) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("gated_total", "gated");
  Gauge& gauge = registry.gauge("gated_depth", "gated");
  Histogram& histogram = registry.histogram("gated_seconds", "gated");
  registry.set_enabled(false);
  counter.add(5);
  gauge.set(7);
  histogram.observe(1.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.snapshot().count, 0u);
  registry.set_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST(ObsRegistry, KavNoMetricsEnvDisablesAtConstruction) {
  ASSERT_EQ(setenv("KAV_NO_METRICS", "1", 1), 0);
  MetricsRegistry disabled;
  EXPECT_FALSE(disabled.enabled());
  ASSERT_EQ(setenv("KAV_NO_METRICS", "0", 1), 0);
  MetricsRegistry zero_means_on;
  EXPECT_TRUE(zero_means_on.enabled());
  ASSERT_EQ(unsetenv("KAV_NO_METRICS"), 0);
  MetricsRegistry unset_means_on;
  EXPECT_TRUE(unset_means_on.enabled());
}

TEST(ObsRegistry, SnapshotIsSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.counter("z_total", "z");
  registry.counter("a_total", "a", {{"x", "2"}});
  registry.counter("a_total", "a", {{"x", "1"}});
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a_total");
  EXPECT_EQ(snap.metrics[0].labels, (Labels{{"x", "1"}}));
  EXPECT_EQ(snap.metrics[1].labels, (Labels{{"x", "2"}}));
  EXPECT_EQ(snap.metrics[2].name, "z_total");
}

// --- Tracer ----------------------------------------------------------------

TEST(ObsTracer, SpanRecordsWhenEnabledOnly) {
  Tracer tracer(16);
  { Span span(&tracer, "obs.test", "test"); }
  EXPECT_TRUE(tracer.events().empty());
  tracer.enable();
  { Span span(&tracer, "obs.test", "test"); }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs.test");
  EXPECT_STREQ(events[0].category, "test");
}

TEST(ObsTracer, RingDropsOldestFirst) {
  Tracer tracer(4);
  tracer.enable();
  static const char* kNames[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (const char* name : kNames) {
    TraceEvent event;
    event.name = name;
    tracer.record(event);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_STREQ(events.front().name, "s2");  // oldest surviving
  EXPECT_STREQ(events.back().name, "s5");
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTracer, ChromeJsonDumpIsLoadableShape) {
  Tracer tracer(16);
  tracer.enable();
  {
    Span span(&tracer, "obs.dump", "test");
  }
  const std::string json = tracer.dump_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs.dump\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsScopedTimer, ObservesOnceAndStopIsIdempotent) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("timer_seconds", "timed");
  {
    ScopedTimer timer(&histogram);
    const double first = timer.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(timer.stop(), 0.0);  // second stop records nothing
  }
  EXPECT_EQ(histogram.snapshot().count, 1u);
}

TEST(ObsScopedTimer, DisabledSinksRecordNothing) {
  MetricsRegistry registry;
  registry.set_enabled(false);
  Histogram& histogram = registry.histogram("idle_seconds", "idle");
  Tracer tracer(4);  // never enabled
  {
    ScopedTimer timer(&histogram, &tracer, "obs.idle", "test");
  }
  EXPECT_EQ(histogram.snapshot().count, 0u);
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace kav::obs
