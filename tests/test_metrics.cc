// Unit tests for the metrics registry: counter/gauge/histogram semantics
// (including under concurrent writers), collector lifecycle, Prometheus
// exposition format (golden output), and the reset-for-test fixture.
//
// Tests run against local Registry instances so they never depend on (or
// pollute) the process-wide Registry::Default() other subsystems report to,
// except the device-counter test at the end, which reads what a cluster's
// servers export there.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/engine/cluster.h"
#include "src/lang/gtravel.h"

namespace gt::metrics {
namespace {

TEST(MetricsTest, CounterBasics) {
  Registry reg;
  Counter* c = reg.GetCounter("gt_test_events_total", {{"kind", "a"}});
  EXPECT_EQ(c->Value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);

  // Same (name, labels) interns to the same counter; label order is
  // canonicalized so permuted label sets do not fork the series.
  EXPECT_EQ(reg.GetCounter("gt_test_events_total", {{"kind", "a"}}), c);
  Counter* c2 = reg.GetCounter("gt_test_events_total",
                               {{"z", "1"}, {"kind", "a"}});
  EXPECT_NE(c2, c);
  EXPECT_EQ(reg.GetCounter("gt_test_events_total", {{"kind", "a"}, {"z", "1"}}),
            c2);
}

TEST(MetricsTest, GaugeBasics) {
  Registry reg;
  Gauge* g = reg.GetGauge("gt_test_depth");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 4);
  g->Add(-10);
  EXPECT_EQ(g->Value(), -6);  // gauges may go negative
}

TEST(MetricsTest, HistogramBucketing) {
  Registry reg;
  Histogram* h = reg.GetHistogram("gt_test_latency_ms", {}, {1.0, 10.0, 100.0});
  h->Observe(0.5);    // <= 1
  h->Observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h->Observe(5.0);    // <= 10
  h->Observe(1000.0); // +Inf
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 1006.5);
  const std::vector<uint64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(MetricsTest, ConcurrentWritersLoseNothing) {
  Registry reg;
  Counter* c = reg.GetCounter("gt_test_concurrent_total");
  Gauge* g = reg.GetGauge("gt_test_concurrent_gauge");
  Histogram* h = reg.GetHistogram("gt_test_concurrent_ms", {}, {1.0, 2.0, 4.0});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        c->Inc();
        g->Add(1);
        h->Observe(static_cast<double>(t % 4) + 0.5);
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(c->Value(), expected);
  EXPECT_EQ(g->Value(), static_cast<int64_t>(expected));
  EXPECT_EQ(h->Count(), expected);
  uint64_t bucket_total = 0;
  for (uint64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, expected);
  // Sum is CAS-accumulated: every observation lands exactly once.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; t++) {
    expected_sum += (static_cast<double>(t % 4) + 0.5) * kPerThread;
  }
  EXPECT_DOUBLE_EQ(h->Sum(), expected_sum);
}

TEST(MetricsTest, ExpositionGolden) {
  Registry reg;
  reg.GetCounter("gt_test_requests_total", {{"server", "s0"}},
                 "Requests handled")->Inc(3);
  reg.GetCounter("gt_test_requests_total", {{"server", "s1"}})->Inc(4);
  reg.GetGauge("gt_test_queue_depth", {}, "Queue depth")->Set(2);
  Histogram* h =
      reg.GetHistogram("gt_test_ms", {{"server", "s0"}}, {1.0, 10.0}, "Latency");
  h->Observe(0.5);
  h->Observe(3.0);
  h->Observe(30.0);

  const std::string expected =
      "# HELP gt_test_ms Latency\n"
      "# TYPE gt_test_ms histogram\n"
      "gt_test_ms_bucket{server=\"s0\",le=\"1\"} 1\n"
      "gt_test_ms_bucket{server=\"s0\",le=\"10\"} 2\n"
      "gt_test_ms_bucket{server=\"s0\",le=\"+Inf\"} 3\n"
      "gt_test_ms_sum{server=\"s0\"} 33.5\n"
      "gt_test_ms_count{server=\"s0\"} 3\n"
      "# HELP gt_test_queue_depth Queue depth\n"
      "# TYPE gt_test_queue_depth gauge\n"
      "gt_test_queue_depth 2\n"
      "# HELP gt_test_requests_total Requests handled\n"
      "# TYPE gt_test_requests_total counter\n"
      "gt_test_requests_total{server=\"s0\"} 3\n"
      "gt_test_requests_total{server=\"s1\"} 4\n";
  EXPECT_EQ(reg.Expose(), expected);
}

TEST(MetricsTest, ExpositionEscapesLabelValues) {
  Registry reg;
  reg.GetCounter("gt_test_esc_total", {{"path", "a\\b\"c\nd"}})->Inc();
  const std::string out = reg.Expose();
  EXPECT_NE(out.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << out;
}

TEST(MetricsTest, PrefixFilterAndSum) {
  Registry reg;
  reg.GetCounter("gt_kv_ops_total", {{"db", "a"}})->Inc(5);
  reg.GetCounter("gt_kv_ops_total", {{"db", "b"}})->Inc(7);
  reg.GetCounter("gt_rpc_ops_total")->Inc(100);
  EXPECT_DOUBLE_EQ(reg.Sum("gt_kv_ops_total"), 12.0);
  const auto kv_only = reg.Collect("gt_kv_");
  ASSERT_EQ(kv_only.size(), 2u);
  for (const auto& s : kv_only) EXPECT_EQ(s.name, "gt_kv_ops_total");
  EXPECT_EQ(reg.Expose("gt_rpc_").find("gt_kv_"), std::string::npos);
}

TEST(MetricsTest, CollectorLifecycle) {
  Registry reg;
  reg.DescribeFamily("gt_test_collected_total", MetricType::kCounter,
                     "From a collector");
  const CollectorId id = reg.AddCollector([](std::vector<Sample>* out) {
    out->push_back({"gt_test_collected_total",
                    {{"instance", "i0"}},
                    9,
                    MetricType::kCounter});
  });
  std::string out = reg.Expose();
  EXPECT_NE(out.find("# TYPE gt_test_collected_total counter"), std::string::npos)
      << out;
  EXPECT_NE(out.find("gt_test_collected_total{instance=\"i0\"} 9"),
            std::string::npos)
      << out;
  EXPECT_DOUBLE_EQ(reg.Sum("gt_test_collected_total"), 9.0);

  reg.RemoveCollector(id);
  out = reg.Expose();
  EXPECT_EQ(out.find("gt_test_collected_total{"), std::string::npos) << out;
}

// Fixture pattern for tests that share a registry: reset between tests so
// no state bleeds across test boundaries.
class MetricsFixtureTest : public ::testing::Test {
 protected:
  void TearDown() override { registry_.ResetForTest(); }
  Registry registry_;
};

TEST_F(MetricsFixtureTest, ResetZeroesOwnedMetrics) {
  Counter* c = registry_.GetCounter("gt_test_fixture_total");
  Gauge* g = registry_.GetGauge("gt_test_fixture_gauge");
  Histogram* h = registry_.GetHistogram("gt_test_fixture_ms", {}, {1.0});
  c->Inc(10);
  g->Set(5);
  h->Observe(0.5);
  registry_.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.0);
  for (uint64_t b : h->BucketCounts()) EXPECT_EQ(b, 0u);
  // Handles stay valid after reset (pointers are stable for registry life).
  c->Inc();
  EXPECT_EQ(c->Value(), 1u);
}

TEST_F(MetricsFixtureTest, ResetLeavesCollectorsRegistered) {
  int calls = 0;
  registry_.AddCollector([&calls](std::vector<Sample>* out) {
    calls++;
    out->push_back({"gt_test_live_total", {}, 1, MetricType::kCounter});
  });
  registry_.ResetForTest();
  EXPECT_DOUBLE_EQ(registry_.Sum("gt_test_live_total"), 1.0);
  EXPECT_EQ(calls, 1);
}

// Each server exports its store's device-model counters, labelled with the
// server, and they read the device's own figures. Waits count the sleeps
// taken: a worker batch pays its accesses in one.
TEST(DeviceMetricsTest, ServersExportTheirDeviceCounters) {
  engine::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.device.access_latency_us = 50;
  auto cluster = engine::Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  graph::Catalog* catalog = (*cluster)->catalog();
  const auto node = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  graph::RefGraph g;
  for (graph::VertexId v = 0; v < 32; v++) {
    graph::VertexRecord rec;
    rec.id = v;
    rec.label = node;
    g.AddVertex(rec);
    for (graph::VertexId d : {(v + 1) % 32, (v * 7 + 3) % 32}) {
      graph::EdgeRecord e;
      e.src = v;
      e.label = link;
      e.dst = d;
      g.AddEdge(e);
    }
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());
  (*cluster)->straggler()->AddRule(
      engine::StragglerRule{.server_id = 1, .step = -1, .delay_us = 300, .max_hits = 1});
  lang::GTravel travel(catalog);
  travel.v({0});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*cluster)->Run(*plan, engine::EngineMode::kGraphTrek).ok());

  std::map<std::string, std::map<std::string, double>> by_server;
  for (const Sample& s : Registry::Default()->Collect("gt_device_")) {
    for (const auto& [key, value] : s.labels) {
      if (key == "server") by_server[value][s.name] = s.value;
    }
  }
  for (uint32_t i = 0; i < 2; i++) {
    const DeviceModel* device = (*cluster)->device(i);
    const auto& got = by_server["s" + std::to_string(i)];
    ASSERT_EQ(got.size(), 4u) << i;
    EXPECT_GT(device->total_accesses(), 0u) << i;
    EXPECT_EQ(got.at("gt_device_accesses_total"), device->total_accesses()) << i;
    EXPECT_EQ(got.at("gt_device_charged_us_total"), device->total_us()) << i;
    EXPECT_EQ(got.at("gt_device_injected_us_total"), device->injected_us()) << i;
    EXPECT_EQ(got.at("gt_device_waits_total"), device->waits()) << i;
    EXPECT_GT(device->waits(), 0u) << i;
    EXPECT_LE(device->waits(), device->total_accesses()) << i;
  }
  EXPECT_EQ((*cluster)->device(0)->injected_us(), 0u);
  EXPECT_EQ((*cluster)->device(1)->injected_us(), 300u);
}

}  // namespace
}  // namespace gt::metrics
