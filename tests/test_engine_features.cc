// Engine feature tests: status tracing + failure detection + restart,
// progress reporting, result streaming, concurrent traversals, visit
// statistics accounting and straggler behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

// Detect ThreadSanitizer on both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature) so timing-sensitive assertions can opt out.
#if defined(__SANITIZE_THREAD__)
#define GT_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GT_UNDER_TSAN 1
#endif
#endif

#include "src/common/sync.h"
#include "src/engine/cluster.h"
#include "src/engine/straggler.h"
#include "src/gen/rmat.h"
#include "src/lang/gtravel.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::EdgeRecord;
using graph::PropValue;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;
using lang::FilterOp;
using lang::GTravel;

RefGraph ChainGraph(Catalog* catalog, uint32_t length) {
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto next = catalog->Intern("next");
  for (VertexId v = 0; v <= length; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (VertexId v = 0; v < length; v++) {
    EdgeRecord e;
    e.src = v;
    e.label = next;
    e.dst = v + 1;
    g.AddEdge(e);
  }
  return g;
}

RefGraph RandomishGraph(Catalog* catalog, uint64_t seed, uint32_t n, uint32_t m) {
  Rng rng(seed);
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v = 0; v < n; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (uint32_t i = 0; i < m; i++) {
    EdgeRecord e;
    e.src = rng.Uniform(n);
    e.label = link;
    e.dst = rng.Uniform(n);
    g.AddEdge(e);
  }
  return g;
}

// --- result streaming ---------------------------------------------------------

TEST(EngineFeatureTest, LargeResultsStreamInChunks) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();

  // Hub with 10k leaves; the coordinator's result_chunk is 4096, so the
  // client must reassemble 3 chunks.
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto out = catalog->Intern("out");
  VertexRecord hub;
  hub.id = 0;
  hub.label = t;
  g.AddVertex(hub);
  for (VertexId v = 1; v <= 10000; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
    EdgeRecord e;
    e.src = 0;
    e.label = out;
    e.dst = v;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = GTravel(catalog).v({0}).e("out").Build();
  ASSERT_TRUE(plan.ok());
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vids.size(), 10000u);
  EXPECT_EQ(result->vids.front(), 1u);
  EXPECT_EQ(result->vids.back(), 10000u);
}

// --- failure detection + restart (paper Section IV-C) ----------------------------

TEST(EngineFeatureTest, LostExecutionIsDetectedAndReported) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.exec_timeout_ms = 300;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 3, 60, 240);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // Silently drop every frontier hand-off after the third: the downstream
  // executions are registered as created but never terminate.
  std::atomic<int> traverse_count{0};
  (*cluster)->inproc_transport()->SetFaultHook([&](const rpc::Message& m) {
    if (m.type != rpc::MsgType::kTraverse) return false;
    return traverse_count.fetch_add(1) >= 3;
  });

  auto client = (*cluster)->NewClient();
  GTravel travel(catalog);
  travel.v({1, 2, 3});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  RunOptions opts;
  opts.mode = EngineMode::kGraphTrek;
  opts.max_restarts = 0;  // surface the failure instead of retrying
  opts.failure_timeout_ms = 300;
  auto travel_id = client->Submit(*plan, opts);
  ASSERT_TRUE(travel_id.ok());
  auto result = client->Await(*travel_id, 10000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
}

TEST(EngineFeatureTest, ClientRestartsAfterTransientFailure) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.exec_timeout_ms = 300;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 4, 60, 240);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // Drop exactly one frontier hand-off; the restarted traversal runs clean.
  std::atomic<bool> dropped{false};
  (*cluster)->inproc_transport()->SetFaultHook([&](const rpc::Message& m) {
    if (m.type != rpc::MsgType::kTraverse) return false;
    return !dropped.exchange(true);
  });

  GTravel travel(catalog);
  travel.v({1, 2, 3});
  for (int i = 0; i < 3; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  const auto expected = lang::EvaluatePlanOnRefGraph(*plan, g, *catalog);

  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.mode = EngineMode::kGraphTrek;
  opts.max_restarts = 2;
  opts.failure_timeout_ms = 300;
  auto result = client->Run(*plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->restarts, 1u);
  EXPECT_EQ(result->vids, expected);
}

// --- progress reporting -----------------------------------------------------------

TEST(EngineFeatureTest, ProgressReportsExecutionCounts) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.device.access_latency_us = 2000;  // slow traversal so we catch it live
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 5, 150, 800);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1, 2, 3, 4, 5});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto client = (*cluster)->NewClient();
  for (EngineMode mode : {EngineMode::kSync, EngineMode::kGraphTrek}) {
    SCOPED_TRACE(EngineModeName(mode));
    RunOptions opts;
    opts.mode = mode;
    auto travel_id = client->Submit(*plan, opts);
    ASSERT_TRUE(travel_id.ok());

    // Poll progress while the traversal runs; counts must be sane.
    bool saw_activity = false;
    for (int i = 0; i < 50; i++) {
      auto progress = client->Progress(*travel_id, /*coordinator=*/0);
      if (!progress.ok()) break;  // traversal finished and state was cleaned up
      if (progress->total_created > 0) {
        saw_activity = true;
        EXPECT_GE(progress->total_created, progress->total_terminated);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auto result = client->Await(*travel_id, 60000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(saw_activity);
  }
}

// --- concurrent traversals ---------------------------------------------------------

TEST(EngineFeatureTest, ConcurrentTraversalsAllCorrect) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 6, 200, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  struct Job {
    lang::TraversalPlan plan;
    std::vector<VertexId> expected;
    EngineMode mode;
  };
  std::vector<Job> jobs;
  const EngineMode modes[] = {EngineMode::kSync, EngineMode::kAsyncPlain,
                              EngineMode::kGraphTrek};
  for (uint64_t i = 0; i < 9; i++) {
    GTravel travel(catalog);
    travel.v({i, i + 50, i + 100});
    for (uint64_t s = 0; s < 2 + i % 3; s++) travel.e("link");
    auto plan = travel.Build();
    ASSERT_TRUE(plan.ok());
    jobs.push_back(Job{*plan, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog),
                       modes[i % 3]});
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (auto& job : jobs) {
    threads.emplace_back([&cluster, &job, &failures] {
      auto client = (*cluster)->NewClient();
      RunOptions opts;
      opts.mode = job.mode;
      opts.coordinator = static_cast<ServerId>(job.plan.start_ids[0] % 4);
      auto result = client->Run(job.plan, opts);
      if (!result.ok() || result->vids != job.expected) failures++;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Regression: NewClient() used to bump a plain uint32_t counter, so threads
// creating clients concurrently (as the test above does) raced on it and
// could be handed the same endpoint id. TSan caught it; the counter is
// atomic now. Verify ids stay unique under contention.
TEST(EngineFeatureTest, ConcurrentNewClientIdsAreUnique) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<rpc::EndpointId> ids[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cluster, &ids, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto client = (*cluster)->NewClient();
        ids[t].push_back(client->id());
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<rpc::EndpointId> unique;
  for (auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads) * kPerThread);
}

// --- visit statistics (the Fig. 7 counters) ------------------------------------------

TEST(EngineFeatureTest, GraphTrekVisitCountersPartitionReceivedRequests) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 7, 150, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  (*cluster)->ResetStats();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());

  uint64_t received = 0, redundant = 0, combined = 0, real_io = 0;
  for (uint32_t s = 0; s < 4; s++) {
    auto snap = (*cluster)->server(s)->visit_stats().Read();
    received += snap.received;
    redundant += snap.redundant;
    combined += snap.combined;
    real_io += snap.real_io;
  }
  EXPECT_GT(received, 0u);
  EXPECT_GT(real_io, 0u);
  // The paper's accounting identity: the three counters partition the
  // received requests.
  EXPECT_EQ(received, redundant + combined + real_io);
  // On a deep traversal over a small graph, revisits dominate (Fig. 7).
  EXPECT_GT(redundant, real_io / 2);
}

TEST(EngineFeatureTest, AsyncPlainDoesMoreIoThanGraphTrek) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 8, 150, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto run_and_count = [&](EngineMode mode) {
    (*cluster)->ResetStats();
    auto result = (*cluster)->Run(*plan, mode);
    EXPECT_TRUE(result.ok());
    uint64_t io = 0;
    for (uint32_t s = 0; s < 4; s++) {
      io += (*cluster)->server(s)->visit_stats().Read().real_io;
    }
    return io;
  };

  const uint64_t async_io = run_and_count(EngineMode::kAsyncPlain);
  const uint64_t graphtrek_io = run_and_count(EngineMode::kGraphTrek);
  // The traversal-affiliate cache absorbs redundant visits before they hit
  // storage; plain async pays for each of them.
  EXPECT_GT(async_io, graphtrek_io);
}

// A worker pays its batch's device charges in one wait. On a device-on
// 8-step GraphTrek travel, merged batches keep the sleeps well under the
// accesses they pay for, and the answer still matches the oracle.
TEST(EngineFeatureTest, BatchedDeviceWaitsMatchOracle) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.device.access_latency_us = 50;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  gen::RmatConfig rcfg;
  rcfg.scale = 10;
  rcfg.avg_degree = 8;
  rcfg.attr_bytes = 16;
  gen::RmatGenerator rmat(rcfg);
  RefGraph g = rmat.Build(catalog);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({0, 1});
  for (int i = 0; i < 8; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  const auto expected = lang::EvaluatePlanOnRefGraph(*plan, g, *catalog);

  (*cluster)->ResetStats();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->vids, expected);
  uint64_t accesses = 0, waits = 0;
  for (uint32_t s = 0; s < 4; s++) {
    accesses += (*cluster)->device(s)->total_accesses();
    waits += (*cluster)->device(s)->waits();
  }
  EXPECT_GT(accesses, 0u);
  EXPECT_LT(waits, accesses / 2) << "accesses " << accesses;
}

TEST(EngineFeatureTest, AsyncPlainPaysOneReadPerArrival) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 8, 150, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto run_and_sum = [&](EngineMode mode) {
    (*cluster)->ResetStats();
    auto result = (*cluster)->Run(*plan, mode);
    EXPECT_TRUE(result.ok());
    VisitStats::Snapshot sum;
    for (uint32_t s = 0; s < 4; s++) {
      const auto snap = (*cluster)->server(s)->visit_stats().Read();
      sum.received += snap.received;
      sum.redundant += snap.redundant;
      sum.combined += snap.combined;
      sum.real_io += snap.real_io;
    }
    return sum;
  };

  // Distinct (step, vertex) pairs the travel reaches: the memo's misses.
  uint64_t distinct_visits = 0;
  std::set<VertexId> frontier = {1};
  const auto link = catalog->Lookup("link");
  for (int step = 0; step <= 6; step++) {
    distinct_visits += frontier.size();
    std::set<VertexId> next;
    for (VertexId v : frontier) {
      for (const auto& [dst, props] : g.Edges(v, link)) next.insert(dst);
    }
    frontier = std::move(next);
  }

  const VisitStats::Snapshot async_plain = run_and_sum(EngineMode::kAsyncPlain);
  const VisitStats::Snapshot graphtrek = run_and_sum(EngineMode::kGraphTrek);
  const VisitStats::Snapshot sync = run_and_sum(EngineMode::kSync);
  // Async-GT classifies arrivals like GraphTrek but absorbs nothing: every
  // arrival, redundant or not, pays its own read, and nothing merges.
  EXPECT_GT(async_plain.received, 0u);
  EXPECT_EQ(async_plain.real_io, async_plain.received);
  EXPECT_EQ(async_plain.combined, 0u);
  // Both engines give each distinct (step, vertex) pair exactly one owner
  // and count every other arrival as redundant. The raw arrival counts
  // themselves depend on how vertices spread over concurrent executions,
  // which is timing, so only their difference is fixed.
  EXPECT_EQ(async_plain.received - async_plain.redundant, distinct_visits);
  EXPECT_EQ(graphtrek.received - graphtrek.redundant, distinct_visits);
  // Sync-GT absorbs through the travel cache like GraphTrek and never
  // merges: each distinct (step, vertex) pair is read exactly once.
  EXPECT_EQ(sync.real_io, distinct_visits);
  EXPECT_EQ(sync.received - sync.redundant, distinct_visits);
  EXPECT_EQ(sync.combined, 0u);
}

// Counts, per server, the vertex accesses made by tasks (the engine
// publishes the step being processed; the scan start runs outside any).
class TaskAccessCounter final : public graph::AccessInterceptor {
 public:
  uint64_t OnVertexAccess(uint32_t server_id, VertexId) override {
    if (engine::tls_current_step >= 0) counts_[server_id].fetch_add(1);
    return 0;
  }
  uint64_t count(uint32_t server_id) const { return counts_[server_id].load(); }
  void Reset() {
    for (auto& c : counts_) c.store(0);
  }

 private:
  std::atomic<uint64_t> counts_[3] = {};
};

// A scan start hands each passing root's record to the root's task, so the
// travel reads each root's record exactly once: inside the scan. That holds
// for a start filtered beyond its type anchor and for a bare type start
// alike. A plan needs at least one hop, so the travel takes one along a label
// no vertex has: each root then costs one edge scan (a vertex access, no kv
// get) and nothing else is read. Each server's point reads are the scan's
// own: none on the sequential-run branch (more than 16 candidates), one per
// candidate on the point-read branch (16 or fewer). A task that re-read its
// root would add one task-time vertex access and one kv get per passing
// root (on the point-read branch only the former tells the read's place).
TEST(EngineFeatureTest, ScanStartRootsAreReadOnce) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const auto many = catalog->Intern("Many");  // ~40 per server: the run branch
  const auto few = catalog->Intern("Few");    // ~8 per server: the point-read branch
  const auto w = catalog->Intern("w");
  RefGraph g;
  for (VertexId v = 0; v < 144; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = v % 6 == 0 ? few : many;
    rec.props.Set(w, PropValue(static_cast<int64_t>(v * 37 % 100)));
    g.AddVertex(rec);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());
  TaskAccessCounter task_accesses;
  for (uint32_t s = 0; s < cfg.num_servers; s++) {
    (*cluster)->store(s)->SetInterceptor(&task_accesses);
  }

  constexpr uint64_t kPointReadCutoff = 16;  // GraphStore::ScanVerticesByTypeFiltered
  constexpr int64_t kLo = 20;
  constexpr int64_t kHi = 69;
  for (const bool filtered : {true, false}) {
    for (const char* type : {"Many", "Few"}) {
      SCOPED_TRACE(std::string(type) + (filtered ? " filtered" : " unfiltered"));
      const bool run_branch = std::string(type) == "Many";
      std::vector<uint64_t> candidates(cfg.num_servers, 0);
      std::vector<uint64_t> passing(cfg.num_servers, 0);
      for (VertexId vid : g.VerticesByType(catalog->Lookup(type))) {
        const uint32_t s = (*cluster)->partitioner()->ServerFor(vid);
        candidates[s]++;
        const int64_t wv = g.FindVertex(vid)->props.Find(w)->as_int();
        if (!filtered || (wv >= kLo && wv <= kHi)) passing[s]++;
      }
      for (uint32_t s = 0; s < cfg.num_servers; s++) {
        ASSERT_EQ(candidates[s] > kPointReadCutoff, run_branch) << "server " << s;
        ASSERT_GT(passing[s], 0u) << "server " << s;
      }
      GTravel travel(catalog);
      travel.v().va("type", FilterOp::kEq, {PropValue(type)});
      if (filtered) travel.va("w", FilterOp::kRange, {PropValue(kLo), PropValue(kHi)});
      auto plan = travel.e("no_such_label").count().Build();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const lang::RefEvalResult oracle = lang::EvaluatePlanExtOnRefGraph(*plan, g, *catalog);

      for (EngineMode mode :
           {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
        SCOPED_TRACE(EngineModeName(mode));
        (*cluster)->ResetStats();
        task_accesses.Reset();
        std::vector<uint64_t> gets_before(cfg.num_servers);
        for (uint32_t s = 0; s < cfg.num_servers; s++) {
          gets_before[s] = (*cluster)->store(s)->db()->stats().gets.load();
        }
        auto result = (*cluster)->Run(*plan, mode);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->count, oracle.count);
        for (uint32_t s = 0; s < cfg.num_servers; s++) {
          SCOPED_TRACE("server " + std::to_string(s));
          graph::GraphStore* store = (*cluster)->store(s);
          const uint64_t scan_reads = run_branch ? 0 : candidates[s];
          // The roots are exactly the vertices passing the start filters.
          EXPECT_EQ((*cluster)->server(s)->visit_stats().Read().per_step[0], passing[s]);
          EXPECT_EQ(store->db()->stats().gets.load() - gets_before[s], scan_reads);
          EXPECT_EQ(store->vertex_accesses(), scan_reads + passing[s]);  // + edge scans
          EXPECT_EQ(task_accesses.count(s), passing[s]);  // the edge scans alone
        }
      }
    }
  }
  for (uint32_t s = 0; s < cfg.num_servers; s++) (*cluster)->store(s)->SetInterceptor(nullptr);
}

// A store error in a scan start fails the travel with the store's Status:
// it must not cut off the rest of that server's roots and return a smaller
// OK answer. One record of each type is overwritten with one byte (the
// db()->Put idiom of GraphStoreTest.CorruptEdgeValueFailsScan), so both
// read branches of the scan hit it: `Many` (~40 candidates per server, the
// sequential run) and `Few` (~8 per server, the point reads). Every engine
// returns Corruption, which the client does not retry, and no travel state
// is left on any server.
TEST(EngineFeatureTest, CorruptScanStartRecordFailsTravel) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const auto many = catalog->Intern("Many");
  const auto few = catalog->Intern("Few");
  const auto next = catalog->Intern("next");
  constexpr VertexId kVertices = 144;
  RefGraph g;
  for (VertexId v = 0; v < kVertices; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = v % 6 == 0 ? few : many;
    g.AddVertex(rec);
    EdgeRecord e;
    e.src = v;
    e.label = next;
    e.dst = (v + 1) % kVertices;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto count_plan = [&](const char* type) {
    auto plan = GTravel(catalog)
                    .v()
                    .va("type", FilterOp::kEq, {PropValue(type)})
                    .e("next")
                    .count()
                    .Build();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  };
  // Clean, each start counts every vertex of its type.
  for (const char* type : {"Many", "Few"}) {
    const lang::TraversalPlan plan = count_plan(type);
    auto clean = (*cluster)->Run(plan, EngineMode::kGraphTrek);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->count, lang::EvaluatePlanExtOnRefGraph(plan, g, *catalog).count);
  }

  for (VertexId bad : {VertexId{50}, VertexId{48}}) {  // one Many, one Few record
    graph::GraphStore* store = (*cluster)->store((*cluster)->partitioner()->ServerFor(bad));
    ASSERT_TRUE(store->db()->Put(graph::VertexKey(bad), std::string(1, '\x01')).ok());
  }
  constexpr uint64_t kPointReadCutoff = 16;  // GraphStore::ScanVerticesByTypeFiltered
  auto client = (*cluster)->NewClient();
  for (const char* type : {"Many", "Few"}) {
    SCOPED_TRACE(type);
    const VertexId bad = std::string(type) == "Many" ? 50 : 48;
    size_t candidates = 0;  // on the corrupt record's server: picks the read branch
    for (VertexId vid : g.VerticesByType(catalog->Lookup(type))) {
      const auto* p = (*cluster)->partitioner();
      if (p->ServerFor(vid) == p->ServerFor(bad)) candidates++;
    }
    ASSERT_EQ(candidates > kPointReadCutoff, std::string(type) == "Many");
    const lang::TraversalPlan plan = count_plan(type);
    for (EngineMode mode : {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
      SCOPED_TRACE(EngineModeName(mode));
      RunOptions opts;
      opts.mode = mode;
      auto travel = client->Submit(plan, opts);
      ASSERT_TRUE(travel.ok()) << travel.status().ToString();
      auto result = client->Await(*travel, 30000);
      ASSERT_FALSE(result.ok()) << "OK with count " << result->count;
      EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();

      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      bool reclaimed = false;
      while (!reclaimed && std::chrono::steady_clock::now() < deadline) {
        reclaimed = true;
        for (uint32_t s = 0; s < cfg.num_servers; s++) {
          reclaimed = reclaimed && !(*cluster)->server(s)->HasTravelResidue(*travel);
        }
        if (!reclaimed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_TRUE(reclaimed) << "travel state not reclaimed within 20s";
    }
  }
}

// Runs `plan` on every engine and expects Corruption (which the client does
// not retry), with no travel state left behind on any server.
void ExpectCorruptionOnEveryEngine(Cluster* cluster, uint32_t num_servers,
                                   const lang::TraversalPlan& plan) {
  auto client = cluster->NewClient();
  for (EngineMode mode : {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    SCOPED_TRACE(EngineModeName(mode));
    RunOptions opts;
    opts.mode = mode;
    auto travel = client->Submit(plan, opts);
    ASSERT_TRUE(travel.ok()) << travel.status().ToString();
    auto result = client->Await(*travel, 30000);
    ASSERT_FALSE(result.ok()) << "OK with " << result->vids.size() << " vertices";
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool reclaimed = false;
    while (!reclaimed && std::chrono::steady_clock::now() < deadline) {
      reclaimed = true;
      for (uint32_t s = 0; s < num_servers; s++) {
        reclaimed = reclaimed && !cluster->server(s)->HasTravelResidue(*travel);
      }
      if (!reclaimed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(reclaimed) << "travel state not reclaimed within 20s";
  }
}

// A store error on a hop fails the travel: vertex 0's `e` edges lead to 1,
// 2 and 3 on two servers, and `v({0}).e("e")` must return Corruption on
// every engine, not a smaller OK answer, when the stored 0->2 edge value is
// cut short (the edge scan fails) or vertex 2's record is one byte (the
// hop's vertex read fails).
TEST(EngineFeatureTest, CorruptHopReadFailsTravel) {
  for (const char* corrupt : {"edge value", "vertex record"}) {
    SCOPED_TRACE(corrupt);
    ClusterConfig cfg;
    cfg.num_servers = 2;
    cfg.device.access_latency_us = 0;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    Catalog* catalog = (*cluster)->catalog();
    const auto e_label = catalog->Intern("e");
    const auto weight = catalog->Intern("weight");
    RefGraph g;
    for (VertexId v = 0; v <= 3; v++) {
      VertexRecord rec;
      rec.id = v;
      rec.label = catalog->Intern("N");
      g.AddVertex(rec);
    }
    for (VertexId dst = 1; dst <= 3; dst++) {
      EdgeRecord e;
      e.src = 0;
      e.label = e_label;
      e.dst = dst;
      e.props.Set(weight, PropValue("heavy"));
      g.AddEdge(e);
    }
    ASSERT_TRUE((*cluster)->Load(g).ok());
    auto plan = GTravel(catalog).v({0}).e("e").Build();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // No clean run first: it would cache vertex 0's adjacency row, which a
    // raw db()->Put behind the cache does not invalidate.
    ASSERT_EQ(lang::EvaluatePlanOnRefGraph(*plan, g, *catalog).size(), 3u);

    const auto* p = (*cluster)->partitioner();
    if (std::string(corrupt) == "edge value") {
      graph::PropMap props;
      props.Set(weight, PropValue("heavy"));
      std::string bad = graph::EncodeEdgeValue(props);
      bad.resize(bad.size() - 2);  // count and length parse, the bytes run out
      ASSERT_TRUE((*cluster)
                      ->store(p->ServerFor(0))
                      ->db()
                      ->Put(graph::EdgeKey(0, e_label, 2), bad)
                      .ok());
    } else {
      ASSERT_TRUE((*cluster)
                      ->store(p->ServerFor(2))
                      ->db()
                      ->Put(graph::VertexKey(2), std::string(1, '\x01'))
                      .ok());
    }
    ExpectCorruptionOnEveryEngine(cluster->get(), cfg.num_servers, *plan);
  }
}

// A corrupt vertex reached mid-ring fails the travel: 144 vertices in a
// `next` ring on three servers, vid 50's record overwritten with one byte,
// and `v({40..49}).e("next")` reaches 41..50. A dropped read Status would
// read vertex 50 as missing and return OK with 41..49.
TEST(EngineFeatureTest, CorruptRingVertexFailsTravel) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const auto many = catalog->Intern("Many");
  const auto next = catalog->Intern("next");
  constexpr VertexId kVertices = 144;
  RefGraph g;
  for (VertexId v = 0; v < kVertices; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = many;
    g.AddVertex(rec);
    EdgeRecord e;
    e.src = v;
    e.label = next;
    e.dst = (v + 1) % kVertices;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());
  std::vector<VertexId> starts;
  for (VertexId v = 40; v < 50; v++) starts.push_back(v);
  auto plan = GTravel(catalog).v(starts).e("next").Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(lang::EvaluatePlanOnRefGraph(*plan, g, *catalog).size(), 10u);

  graph::GraphStore* store = (*cluster)->store((*cluster)->partitioner()->ServerFor(50));
  ASSERT_TRUE(store->db()->Put(graph::VertexKey(50), std::string(1, '\x01')).ok());
  ExpectCorruptionOnEveryEngine(cluster->get(), cfg.num_servers, *plan);
}

// --- outbound frames ----------------------------------------------------------------

// Holds chosen vertex accesses until a condition holds, so a test can force
// which tasks queue up together. Each hold gives up after 5 s: a schedule
// that never forms fails the test's assertions instead of hanging it.
class AccessGate final : public graph::AccessInterceptor {
 public:
  void Hold(uint32_t server, VertexId vid, std::function<bool()> until) {
    auto rule = std::make_unique<HoldRule>();
    rule->server = server;
    rule->vid = vid;
    rule->until = std::move(until);
    holds_.push_back(std::move(rule));
  }
  // True once the held access on (server, vid) has started.
  bool Reached(uint32_t server, VertexId vid) const {
    for (const auto& h : holds_) {
      if (h->server == server && h->vid == vid) return h->reached.load();
    }
    return false;
  }

  uint64_t OnVertexAccess(uint32_t server_id, VertexId vid) override {
    for (const auto& h : holds_) {
      if (h->server != server_id || h->vid != vid) continue;
      h->reached.store(true);
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!h->until() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return 0;
  }

 private:
  struct HoldRule {
    uint32_t server = 0;
    VertexId vid = 0;
    std::function<bool()> until;
    std::atomic<bool> reached{false};
  };
  std::vector<std::unique_ptr<HoldRule>> holds_;  // fixed before the travel runs
};

TEST(EngineFeatureTest, BatchDispatchSharesFrameAcrossExecutions) {
  // r (s0) expands to a1 (s1), a2 (s2) and the decoy z (s0); a1 -> {b1, b3}
  // and a2 -> {b2, b4}, all four on s0; each b_i -> c_i on s1. The rtn() on
  // the b step puts the travel on the attribution protocol. s0's single
  // worker is held inside z's access until b1..b4 are all queued, so one
  // batch applies them: first one of a2's (queued first), then the rest in
  // vid order, so the two vertices of a2's step-2 execution are never
  // adjacent in the batch. The four expansions to s1 must leave in one
  // frame that answers to both step-2 executions.
  AccessGate gate;
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.workers_per_server = 1;
  cfg.exec_timeout_ms = 3000;  // a miscounted frame hangs the travel: fail fast
  // Duplicating every kTraverse frame on s0 -> s1 counts exactly those
  // frames in the link's `duplicated` column; receivers absorb the copies.
  cfg.net_faults = true;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const graph::Partitioner* partitioner = (*cluster)->partitioner();

  VertexId next = 1;
  auto pick_on = [&](ServerId server) {
    while (partitioner->ServerFor(next) != server) next++;
    return next++;
  };
  const VertexId r = pick_on(0);
  const VertexId z = pick_on(0);
  const VertexId a1 = pick_on(1);
  const VertexId a2 = pick_on(2);
  const VertexId b1 = pick_on(0);
  const VertexId b2 = pick_on(0);
  const VertexId b3 = pick_on(0);
  const VertexId b4 = pick_on(0);
  std::vector<VertexId> cs;
  for (int i = 0; i < 4; i++) cs.push_back(pick_on(1));

  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v : {r, z, a1, a2, b1, b2, b3, b4, cs[0], cs[1], cs[2], cs[3]}) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  auto edge = [&](VertexId src, VertexId dst) {
    EdgeRecord e;
    e.src = src;
    e.label = link;
    e.dst = dst;
    g.AddEdge(e);
  };
  for (VertexId a : {a1, a2, z}) edge(r, a);
  edge(a1, b1);
  edge(a1, b3);
  edge(a2, b2);
  edge(a2, b4);
  const std::vector<VertexId> bs = {b1, b2, b3, b4};
  for (size_t i = 0; i < bs.size(); i++) edge(bs[i], cs[i]);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // z holds s0's worker until b1..b4 are queued; a2 runs once z is held and
  // a1 once a2's b2, b4 are queued, so a2's execution is scheduled first and
  // the vid-ordered widening then interleaves the two executions.
  BackendServer* s0 = (*cluster)->server(0);
  gate.Hold(0, z, [s0] { return s0->queue_depth() >= 4; });
  gate.Hold(2, a2, [&gate, z] { return gate.Reached(0, z); });
  gate.Hold(1, a1, [s0] { return s0->queue_depth() >= 2; });
  for (uint32_t s = 0; s < 3; s++) (*cluster)->store(s)->SetInterceptor(&gate);
  rpc::LinkFault dup;
  dup.duplicate_probability = 1.0;
  dup.only_type = rpc::MsgType::kTraverse;
  (*cluster)->fault_transport()->SetLinkFault(0, 1, dup);

  auto plan = GTravel(catalog).v({r}).e("link").e("link").rtn().e("link").Build();
  ASSERT_TRUE(plan.ok());
  (*cluster)->ResetStats();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->vids, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog));
  EXPECT_EQ(result->vids, (std::vector<VertexId>{b1, b2, b3, b4}));

  // s0 -> s1 carried a1's step-1 frame and one step-3 frame for c1..c4.
  const auto links = (*cluster)->fault_transport()->LinkSnapshot();
  EXPECT_EQ(links.at(rpc::LinkKey{0, 1}).duplicated, 2u);
  // s0's frames: the root, r's three step-1 frames, the shared step-3 frame.
  EXPECT_EQ(s0->visit_stats().frames_sent.load(), 5u);
}

// r (s0) -> a1 (s1), a2 (s2); a1 -> b1 and a2 -> b2, both on s0; b1 -> c1
// and b2 -> c2, both on s1. s0's single worker is held inside b1's access
// until b2 is queued, so b1 and b2 apply in separate batches of separate
// executions. b1's batch leaves b2 queued, so its expansion waits; b2's
// batch brings the travel to local quiescence and one step-3 frame carries
// both. Settling per execution would send one step-3 frame each.
void RunFramesWaitForLocalQuiescence(bool rtn_at_b) {
  AccessGate gate;
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.workers_per_server = 1;
  cfg.exec_timeout_ms = 3000;  // a miscounted frame hangs the travel: fail fast
  cfg.net_faults = true;       // duplicated s0 -> s1 frames count them
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const graph::Partitioner* partitioner = (*cluster)->partitioner();

  VertexId next = 1;
  auto pick_on = [&](ServerId server) {
    while (partitioner->ServerFor(next) != server) next++;
    return next++;
  };
  const VertexId r = pick_on(0);
  const VertexId a1 = pick_on(1);
  const VertexId a2 = pick_on(2);
  const VertexId b1 = pick_on(0);
  const VertexId b2 = pick_on(0);
  const VertexId c1 = pick_on(1);
  const VertexId c2 = pick_on(1);

  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v : {r, a1, a2, b1, b2, c1, c2}) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (auto [src, dst] : std::vector<std::pair<VertexId, VertexId>>{
           {r, a1}, {r, a2}, {a1, b1}, {a2, b2}, {b1, c1}, {b2, c2}}) {
    EdgeRecord e;
    e.src = src;
    e.label = link;
    e.dst = dst;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  BackendServer* s0 = (*cluster)->server(0);
  gate.Hold(2, a2, [&gate, b1] { return gate.Reached(0, b1); });
  gate.Hold(0, b1, [s0] { return s0->queue_depth() >= 1; });
  for (uint32_t s = 0; s < 3; s++) (*cluster)->store(s)->SetInterceptor(&gate);
  rpc::LinkFault dup;
  dup.duplicate_probability = 1.0;
  dup.only_type = rpc::MsgType::kTraverse;
  (*cluster)->fault_transport()->SetLinkFault(0, 1, dup);

  GTravel travel(catalog);
  travel.v({r}).e("link").e("link");
  if (rtn_at_b) travel.rtn();
  travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  (*cluster)->ResetStats();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->vids, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog));
  EXPECT_EQ(result->vids.size(), 2u);

  // s0 -> s1 carried r's step-1 frame and one step-3 frame for c1, c2.
  const auto links = (*cluster)->fault_transport()->LinkSnapshot();
  EXPECT_EQ(links.at(rpc::LinkKey{0, 1}).duplicated, 2u);
  // s0's frames: the root, r's two step-1 frames, the shared step-3 frame.
  EXPECT_EQ(s0->visit_stats().frames_sent.load(), 4u);
}

TEST(EngineFeatureTest, FramesWaitForLocalQuiescence) {
  {
    SCOPED_TRACE("rtn() on the b step (attribution protocol)");
    RunFramesWaitForLocalQuiescence(/*rtn_at_b=*/true);
  }
  {
    SCOPED_TRACE("plain (direct protocol)");
    RunFramesWaitForLocalQuiescence(/*rtn_at_b=*/false);
  }
}

// Logs every vertex access in order, holding the first access of one
// vertex for `hold` before logging it.
class AccessLog final : public graph::AccessInterceptor {
 public:
  AccessLog(uint32_t held_server, VertexId held_vid, std::chrono::milliseconds hold)
      : held_server_(held_server), held_vid_(held_vid), hold_(hold) {}

  uint64_t OnVertexAccess(uint32_t server_id, VertexId vid) override {
    if (server_id == held_server_ && vid == held_vid_ && !held_.exchange(true)) {
      std::this_thread::sleep_for(hold_);
    }
    MutexLock lk(&mu_);
    log_.emplace_back(server_id, vid);
    return 0;
  }
  std::vector<std::pair<uint32_t, VertexId>> Log() {
    MutexLock lk(&mu_);
    return log_;
  }

 private:
  const uint32_t held_server_;
  const VertexId held_vid_;
  const std::chrono::milliseconds hold_;
  std::atomic<bool> held_{false};
  Mutex mu_;
  std::vector<std::pair<uint32_t, VertexId>> log_ GT_GUARDED_BY(mu_);
};

// Roots r0 (s0) and r1 (s1) both expand to vertices on s2, and r1's first
// access is held for 100 ms. Under the barrier s2 holds s0's step-1 frame
// until r1's execution has terminated too, so no step-1 access starts
// before r1's last step-0 access, and each root server sends s2 one frame.
TEST(EngineFeatureTest, SyncHoldsNextStepUntilEveryServerDrains) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.workers_per_server = 1;
  cfg.exec_timeout_ms = 3000;  // a lost release hangs the travel: fail fast
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const graph::Partitioner* partitioner = (*cluster)->partitioner();

  VertexId next = 1;
  auto pick_on = [&](ServerId server) {
    while (partitioner->ServerFor(next) != server) next++;
    return next++;
  };
  const VertexId r0 = pick_on(0);
  const VertexId r1 = pick_on(1);
  const VertexId a = pick_on(2);
  const VertexId b = pick_on(2);
  const VertexId c = pick_on(2);

  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v : {r0, r1, a, b, c}) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (auto [src, dst] :
       std::vector<std::pair<VertexId, VertexId>>{{r0, a}, {r0, b}, {r1, b}, {r1, c}}) {
    EdgeRecord e;
    e.src = src;
    e.label = link;
    e.dst = dst;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  AccessLog log(/*held_server=*/1, r1, std::chrono::milliseconds(100));
  for (uint32_t s = 0; s < 3; s++) (*cluster)->store(s)->SetInterceptor(&log);

  auto plan = GTravel(catalog).v({r0, r1}).e("link").Build();
  ASSERT_TRUE(plan.ok());
  (*cluster)->ResetStats();
  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.mode = EngineMode::kSync;
  opts.coordinator = 2;  // root frames leave s2, so s0's and s1's frames are step-1 frames
  auto result = client->Run(*plan, opts);
  for (uint32_t s = 0; s < 3; s++) (*cluster)->store(s)->SetInterceptor(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->vids, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog));
  EXPECT_EQ(result->vids, (std::vector<VertexId>{a, b, c}));

  const auto accesses = log.Log();
  size_t r1_last = 0;
  size_t step1_first = accesses.size();
  for (size_t i = 0; i < accesses.size(); i++) {
    const VertexId vid = accesses[i].second;
    if (vid == r1) r1_last = i;
    if ((vid == a || vid == b || vid == c) && step1_first == accesses.size()) step1_first = i;
  }
  ASSERT_LT(step1_first, accesses.size());
  EXPECT_GT(step1_first, r1_last);
  EXPECT_EQ((*cluster)->server(0)->visit_stats().frames_sent.load(), 1u);
  EXPECT_EQ((*cluster)->server(1)->visit_stats().frames_sent.load(), 1u);
}

// Every hand-off frame on the s0 -> s1 link is delayed 30 ms, so the
// coordinator's release of each step reaches s1 before s0's frame of that
// step, and reaches it before s1 has seen any frame of the travel. The
// release must leave the step released on s1, so the late frame starts on
// arrival instead of waiting for a release that already came.
TEST(EngineFeatureTest, SyncStartsFramesThatArriveAfterTheirRelease) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.net_faults = true;
  cfg.exec_timeout_ms = 3000;  // a frame held past its release hangs the travel
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const graph::Partitioner* partitioner = (*cluster)->partitioner();

  VertexId next = 1;
  auto pick_on = [&](ServerId server) {
    while (partitioner->ServerFor(next) != server) next++;
    return next++;
  };
  const VertexId r = pick_on(0);
  const VertexId a = pick_on(1);
  const VertexId b = pick_on(0);
  const VertexId c = pick_on(1);

  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v : {r, a, b, c}) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (auto [src, dst] : std::vector<std::pair<VertexId, VertexId>>{{r, a}, {a, b}, {b, c}}) {
    EdgeRecord e;
    e.src = src;
    e.label = link;
    e.dst = dst;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  rpc::LinkFault late;
  late.delay_us = 30000;
  late.only_type = rpc::MsgType::kTraverse;
  (*cluster)->fault_transport()->SetLinkFault(0, 1, late);

  auto plan = GTravel(catalog).v({r}).e("link").e("link").e("link").Build();
  ASSERT_TRUE(plan.ok());
  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.mode = EngineMode::kSync;
  opts.coordinator = 2;
  auto result = client->Run(*plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->vids, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog));
  EXPECT_EQ(result->vids, (std::vector<VertexId>{c}));
  // The step-1 frame for a and the step-3 frame for c both came in late.
  const auto links = (*cluster)->fault_transport()->LinkSnapshot();
  EXPECT_EQ(links.at(rpc::LinkKey{0, 1}).delayed, 2u);
}

// --- straggler injection ---------------------------------------------------------------

TEST(EngineFeatureTest, InjectedStragglerSlowsSyncMoreThanGraphTrek) {
#if defined(GT_UNDER_TSAN)
  // This test compares wall-clock timings; TSan's instrumentation overhead
  // swamps the injected 2 ms delays and makes the comparison meaningless.
  GTEST_SKIP() << "timing comparison is not meaningful under ThreadSanitizer";
#endif
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.device.access_latency_us = 100;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 9, 300, 2400);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto timed_run = [&](EngineMode mode) {
    auto result = (*cluster)->Run(*plan, mode);
    EXPECT_TRUE(result.ok());
    return result->elapsed_ms;
  };

  // Baseline (no straggler).
  const double sync_base = timed_run(EngineMode::kSync);
  const double gt_base = timed_run(EngineMode::kGraphTrek);

  // Straggler on server 2, steps 1 and 3: fixed 2 ms delays.
  for (int step : {1, 3}) {
    (*cluster)->straggler()->AddRule(
        StragglerRule{.server_id = 2, .step = step, .delay_us = 2000, .max_hits = 40});
  }
  const double sync_straggled = timed_run(EngineMode::kSync);
  (*cluster)->straggler()->ClearRules();
  for (int step : {1, 3}) {
    (*cluster)->straggler()->AddRule(
        StragglerRule{.server_id = 2, .step = step, .delay_us = 2000, .max_hits = 40});
  }
  const double gt_straggled = timed_run(EngineMode::kGraphTrek);
  (*cluster)->straggler()->ClearRules();

  // Both engines must feel the delay; the asynchronous engine's *relative*
  // penalty must not exceed the synchronous one's by more than noise.
  EXPECT_GT(sync_straggled, sync_base);
  const double sync_penalty = sync_straggled / sync_base;
  const double gt_penalty = gt_straggled / gt_base;
  EXPECT_LT(gt_penalty, sync_penalty * 1.5)
      << "sync " << sync_base << "->" << sync_straggled << " gt " << gt_base << "->"
      << gt_straggled;
}

// --- coordinator result bounds ---------------------------------------------------------

TEST(EngineFeatureTest, BranchPathUnionOverCapFails) {
  // Two three-hop alternatives from vertex 0, each yielding 41^3 = 68,921
  // distinct chains (under the coordinator's 2^17 path cap); their union,
  // 137,842 chains, is over it. Alternative "a" enters through mids 1..41,
  // alternative "c" through mids 101..141; both then fan out through the
  // complete bipartite layers 1001..1041 and 2001..2041.
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const auto t = catalog->Intern("N");
  const auto a = catalog->Intern("a");
  const auto b = catalog->Intern("b");
  const auto c = catalog->Intern("c");
  RefGraph g;
  auto add_vertex = [&](VertexId v) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  };
  auto add_edge = [&](VertexId src, graph::LabelId label, VertexId dst) {
    EdgeRecord e;
    e.src = src;
    e.label = label;
    e.dst = dst;
    g.AddEdge(e);
  };
  constexpr VertexId kWidth = 41;
  add_vertex(0);
  for (VertexId i = 0; i < kWidth; i++) {
    for (VertexId v : {1 + i, 101 + i, 1001 + i, 2001 + i}) add_vertex(v);
  }
  for (VertexId i = 0; i < kWidth; i++) {
    add_edge(0, a, 1 + i);
    add_edge(0, c, 101 + i);
    for (VertexId j = 0; j < kWidth; j++) {
      add_edge(1 + i, b, 1001 + j);
      add_edge(101 + i, b, 1001 + j);
      add_edge(1001 + i, b, 2001 + j);
    }
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = GTravel(catalog)
                  .v({0})
                  .branch({GTravel::Alt(catalog).e("a"), GTravel::Alt(catalog).e("c")})
                  .e("b")
                  .e("b")
                  .path()
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("path result limit exceeded"), std::string::npos)
      << result.status().ToString();
}

// --- misc -----------------------------------------------------------------------------

TEST(EngineFeatureTest, InvalidPlanBytesRejectedAtSubmit) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  // Hand-craft a submit with garbage plan bytes.
  SubmitPayload submit;
  submit.mode = static_cast<uint8_t>(EngineMode::kGraphTrek);
  submit.plan = "not-a-plan";
  rpc::Mailbox mailbox((*cluster)->transport(), rpc::kClientIdBase + 500);
  auto reply = mailbox.Call(0, rpc::MsgType::kSubmitTraversal, submit.Encode());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, rpc::MsgType::kTraversalComplete);
  auto done = CompletePayload::Decode(reply->payload);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->ok, 0);
}

TEST(EngineFeatureTest, CacheIsCleanedUpAfterTraversal) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 10, 100, 500);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = GTravel(catalog).v({1, 2}).e("link").e("link").Build();
  ASSERT_TRUE(plan.ok());
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());

  // The completion broadcast erases the travel's cache entries on every
  // server (poll briefly: the abort message is asynchronous).
  bool clean = false;
  for (int i = 0; i < 100 && !clean; i++) {
    clean = (*cluster)->server(0)->cache_size() == 0 &&
            (*cluster)->server(1)->cache_size() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(clean);
}

TEST(EngineFeatureTest, DeepChainTraversal) {
  // 40-hop traversal down a chain: far beyond any social-network diameter,
  // the paper's "longer traversals" scenario in miniature.
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = ChainGraph(catalog, 64);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({0});
  for (int i = 0; i < 40; i++) travel.e("next");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  for (EngineMode mode :
       {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = (*cluster)->Run(*plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode);
    EXPECT_EQ(result->vids, std::vector<VertexId>{40}) << EngineModeName(mode);
  }
}

}  // namespace
}  // namespace gt::engine
