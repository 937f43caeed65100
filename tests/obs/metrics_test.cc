#include "obs/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace microprov {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterRegistersAndCounts) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("microprov_test_total", "",
                                         "a test counter");
  ASSERT_NE(counter, nullptr);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
  // Same (name, labels) -> same instrument.
  EXPECT_EQ(registry.GetCounter("microprov_test_total"), counter);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeries) {
  MetricsRegistry registry;
  Gauge* g0 = registry.GetGauge("microprov_pool_bundles", "shard=\"0\"");
  Gauge* g1 = registry.GetGauge("microprov_pool_bundles", "shard=\"1\"");
  ASSERT_NE(g0, nullptr);
  ASSERT_NE(g1, nullptr);
  EXPECT_NE(g0, g1);
  g0->Set(7);
  g1->Set(11);
  EXPECT_EQ(g0->value(), 7);
  EXPECT_EQ(g1->value(), 11);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("microprov_x_total"), nullptr);
  EXPECT_EQ(registry.GetGauge("microprov_x_total"), nullptr);
  EXPECT_EQ(registry.GetHistogram("microprov_x_total"), nullptr);
}

TEST(MetricsRegistryTest, GaugeAddAndSet) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("microprov_depth");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
}

TEST(MetricsRegistryTest, HistogramSnapshotPercentiles) {
  MetricsRegistry registry;
  HistogramMetric* hist = registry.GetHistogram("microprov_lat_nanos");
  ASSERT_NE(hist, nullptr);
  for (uint64_t v = 1; v <= 100; ++v) hist->Observe(v * 100);
  HistogramStats stats = hist->Snapshot();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_EQ(stats.max, 10000u);
  EXPECT_GT(stats.p50, 0u);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_LE(stats.p99, stats.max);
  EXPECT_NEAR(stats.mean, 5050.0, 1.0);
}

TEST(MetricsRegistryTest, ScopedLatencyTimerObserves) {
  MetricsRegistry registry;
  HistogramMetric* hist = registry.GetHistogram("microprov_t_nanos");
  { ScopedLatencyTimer timer(hist); }
  EXPECT_EQ(hist->Snapshot().count, 1u);
  // Null sink: no observation, no crash.
  { ScopedLatencyTimer timer(nullptr); }
  EXPECT_EQ(hist->Snapshot().count, 1u);
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("microprov_events_total", "", "events")->Increment(3);
  registry.GetGauge("microprov_level", "shard=\"0\"", "level")->Set(-2);
  registry.GetHistogram("microprov_lat_nanos", "", "latency")->Observe(50);

  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP microprov_events_total events\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE microprov_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_events_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE microprov_level gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_level{shard=\"0\"} -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE microprov_lat_nanos summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_lat_nanos{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("microprov_lat_nanos{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("microprov_lat_nanos_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_lat_nanos_sum 50\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusTextOneTypeLinePerFamily) {
  MetricsRegistry registry;
  registry.GetCounter("microprov_evictions_total", "reason=\"a\"", "help");
  registry.GetCounter("microprov_evictions_total", "reason=\"b\"");
  std::string text = registry.PrometheusText();
  const std::string type_line = "# TYPE microprov_evictions_total counter";
  size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
  // Both series still present.
  EXPECT_NE(text.find("microprov_evictions_total{reason=\"a\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_evictions_total{reason=\"b\"} 0\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, JsonExport) {
  MetricsRegistry registry;
  registry.GetCounter("microprov_a_total")->Increment(5);
  registry.GetHistogram("microprov_b_nanos")->Observe(9);
  std::string json = registry.Json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(
      json.find(
          "{\"name\":\"microprov_a_total\",\"labels\":\"\",\"type\":"
          "\"counter\",\"value\":5}"),
      std::string::npos);
  EXPECT_NE(json.find("\"type\":\"summary\",\"count\":1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, GoldenJson) {
  // Pins the whole JSON export, byte for byte: quoted labels, every
  // metric kind, and the ordering by name then labels.
  MetricsRegistry registry;
  registry.GetCounter("microprov_a_total", "shard=\"1\"")->Increment(5);
  registry.GetCounter("microprov_a_total", "shard=\"0\"")->Increment(2);
  registry.GetGauge("microprov_c_bytes")->Set(-7);
  // A tab in a label must come out escaped, or the document is invalid.
  registry.GetGauge("microprov_c_bytes", "path=\"a\tb\"")->Set(3);
  HistogramMetric* hist = registry.GetHistogram("microprov_b_nanos");
  for (uint64_t v : {9, 100, 1000, 25000}) hist->Observe(v);
  EXPECT_EQ(registry.Json(),
            R"({"metrics":[{"name":"microprov_a_total","labels":"shard=\"0\"")"
            R"(,"type":"counter","value":2},{"name":"microprov_a_total")"
            R"(,"labels":"shard=\"1\"","type":"counter","value":5})"
            R"(,{"name":"microprov_b_nanos","labels":"","type":"summary")"
            R"(,"count":4,"sum":26109,"p50":104,"p95":25000,"p99":25000)"
            R"(,"max":25000},{"name":"microprov_c_bytes","labels":"")"
            R"(,"type":"gauge","value":-7},{"name":"microprov_c_bytes")"
            R"(,"labels":"path=\"a\tb\"","type":"gauge","value":3}]})");
}

TEST(MetricsRegistryTest, SnapshotOrderedByNameThenLabels) {
  MetricsRegistry registry;
  registry.GetCounter("microprov_b_total");
  registry.GetGauge("microprov_a", "shard=\"1\"");
  registry.GetGauge("microprov_a", "shard=\"0\"");
  std::vector<MetricSnapshot> snaps = registry.Snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "microprov_a");
  EXPECT_EQ(snaps[0].labels, "shard=\"0\"");
  EXPECT_EQ(snaps[1].name, "microprov_a");
  EXPECT_EQ(snaps[1].labels, "shard=\"1\"");
  EXPECT_EQ(snaps[2].name, "microprov_b_total");
}

// Hammered under TSan by scripts/tier1.sh: concurrent updates on all
// three instrument kinds while another thread exports.
TEST(MetricsRegistryTest, ConcurrentUpdatesAndExport) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("microprov_c_total");
  Gauge* gauge = registry.GetGauge("microprov_g");
  HistogramMetric* hist = registry.GetHistogram("microprov_h_nanos");

  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        counter->Increment();
        gauge->Set(t);
        hist->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  std::string last;
  for (int i = 0; i < 50; ++i) last = registry.PrometheusText();
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(counter->value(), uint64_t{kThreads} * kOps);
  EXPECT_EQ(hist->Snapshot().count, uint64_t{kThreads} * kOps);
  EXPECT_FALSE(last.empty());
}

}  // namespace
}  // namespace obs
}  // namespace microprov
