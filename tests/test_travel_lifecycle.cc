// Travel-lifecycle tests: request-queue order-key collision regression,
// cooperative cancellation reclaim, coordinator admission control,
// server-enforced deadlines, and completion without the maintenance tick.
#include <gtest/gtest.h>

#include <chrono>
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

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/engine/cluster.h"
#include "src/engine/request_queue.h"
#include "src/lang/gtravel.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::EdgeRecord;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;
using lang::GTravel;

double MetricSum(const char* name) {
  return metrics::Registry::Default()->Sum(name);
}

// --- request-queue order keys ------------------------------------------------

// Regression: the old packed order key truncated the arrival sequence to 44
// bits, so a FIFO task whose raw seq equalled a priority task's packed
// (step << 44) | seq silently overwrote it in queue_ while merge_index_
// still recorded the orphaned key. With disjoint key classes both tasks
// must coexist and both must pop.
TEST(RequestQueueTest, OrderKeysDoNotCollideAcrossClasses) {
  RequestQueue q;

  // Priority task: step 1, seq 5. Old packed key: (1 << 44) | 5.
  q.SetNextSeqForTest(5);
  q.Push(VertexTask{/*travel=*/1, /*step=*/1, /*vid=*/7, /*exec=*/11,
                    /*is_owner=*/true},
         /*priority=*/true, /*mergeable=*/true);

  // FIFO task whose raw seq equals that packed value. Old key: (1 << 44) + 5
  // — identical, so the emplace was a silent no-op and this task vanished.
  q.SetNextSeqForTest((1ULL << 44) + 5);
  q.Push(VertexTask{/*travel=*/2, /*step=*/0, /*vid=*/9, /*exec=*/22,
                    /*is_owner=*/true},
         /*priority=*/false, /*mergeable=*/false);

  EXPECT_EQ(q.size(), 2u);

  // Both tasks must come back out (order is irrelevant here; the pre-fix
  // bug either dropped one or died asserting in ExtractGroupLocked).
  std::vector<VertexTask> popped;
  std::vector<VertexTask> batch;
  while (q.size() > 0 && q.PopBatch(&batch)) {
    popped.insert(popped.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_NE(popped[0].travel, popped[1].travel);
}

// Without a consumer count PopBatch hands out exactly one {travel, vertex}
// merge group even while other vertices of the same travel are queued. With
// one, it widens to that travel's other vertices only up to the caller's
// share of the queued tasks, so a second worker still finds work, and never
// past kMaxBatchVertices vertices.
TEST(RequestQueueTest, PopBatchTakesOneGroupOrItsShareOfTheQueue) {
  auto fill = [](RequestQueue* q, graph::VertexId vertices) {
    for (uint32_t step = 0; step < 3; step++) {
      for (graph::VertexId vid = 1; vid <= vertices; vid++) {
        q->Push(VertexTask{/*travel=*/7, step, vid, /*exec=*/vid, /*is_owner=*/true},
                /*priority=*/true, /*mergeable=*/true);
      }
    }
  };
  auto distinct_vids = [](const std::vector<VertexTask>& batch) {
    std::set<graph::VertexId> vids;
    for (const auto& t : batch) vids.insert(t.vid);
    return vids.size();
  };
  std::vector<VertexTask> batch;

  RequestQueue single;
  fill(&single, 4);
  ASSERT_TRUE(single.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 3u);  // every step's task for one vertex
  EXPECT_EQ(distinct_vids(batch), 1u);

  // 12 queued tasks, 2 consumers: a share of 6 tasks is two whole vertices.
  RequestQueue shared;
  fill(&shared, 4);
  ASSERT_TRUE(shared.PopBatch(&batch, /*consumers=*/2));
  EXPECT_EQ(batch.size(), 6u);
  EXPECT_EQ(distinct_vids(batch), 2u);
  EXPECT_EQ(shared.size(), 6u);

  RequestQueue deep;
  fill(&deep, 100);
  ASSERT_TRUE(deep.PopBatch(&batch, /*consumers=*/1));
  EXPECT_EQ(distinct_vids(batch), RequestQueue::kMaxBatchVertices);
  EXPECT_EQ(batch.size(), 3 * RequestQueue::kMaxBatchVertices);
}

// --- cluster-level lifecycle -------------------------------------------------

// Two-level fan-out: root 0 -> 1..fan1, each mid vertex -> fan2 distinct
// leaves. A two-hop travel from the root keeps hundreds of vertex tasks in
// flight, which (with a slow device model) pins the travel in the server
// queues long enough to observe admission rejections and cancellation.
// Every vertex carries w = vid % 10 for filtered scan starts.
RefGraph FanoutGraph(Catalog* catalog, uint32_t fan1, uint32_t fan2) {
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto out = catalog->Intern("out");
  const auto w = catalog->Intern("w");
  const VertexId leaves_base = 1 + fan1;
  const VertexId total = leaves_base + fan1 * fan2;
  for (VertexId v = 0; v < total; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    rec.props.Set(w, graph::PropValue(static_cast<int64_t>(v % 10)));
    g.AddVertex(rec);
  }
  for (VertexId mid = 1; mid <= fan1; mid++) {
    EdgeRecord e;
    e.src = 0;
    e.label = out;
    e.dst = mid;
    g.AddEdge(e);
    for (uint32_t j = 0; j < fan2; j++) {
      EdgeRecord leaf;
      leaf.src = mid;
      leaf.label = out;
      leaf.dst = leaves_base + (mid - 1) * fan2 + j;
      g.AddEdge(leaf);
    }
  }
  return g;
}

lang::TraversalPlan TwoHopPlan(Catalog* catalog) {
  auto plan = GTravel(catalog).v({0}).e("out").e("out").Build();
  EXPECT_TRUE(plan.ok());
  return *plan;
}

TEST(TravelLifecycleTest, AdmissionLimitRejectsThenBackoffRetrySucceeds) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.admission_limits = {{1, 1, 1}};  // one in-flight travel per class
  cfg.device.access_latency_us = 2000;
  // Uncached edge scans on a slow device keep the first travel in flight
  // while the second submits.
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(FanoutGraph(catalog, 20, 10)).ok());
  auto plan = TwoHopPlan(catalog);

  auto holder = (*cluster)->NewClient();
  auto contender = (*cluster)->NewClient();
  RunOptions opts;  // kGraphTrek, class kNormal

  const double rejected_before = MetricSum("gt_travel_rejected_total");
  const double admitted_before = MetricSum("gt_travel_admitted_total");

  // Travel A occupies the sole kNormal slot (~200 slow vertex accesses).
  auto travel_a = holder->Submit(plan, opts);
  ASSERT_TRUE(travel_a.ok());

  // Travel B bounces off the limit with a retryable Unavailable.
  auto travel_b = contender->Submit(plan, opts);
  ASSERT_FALSE(travel_b.ok());
  EXPECT_TRUE(travel_b.status().IsUnavailable()) << travel_b.status().ToString();
  EXPECT_GE(MetricSum("gt_travel_rejected_total"), rejected_before + 1);

  // A different class has its own slot: an interactive submit is admitted
  // even while the normal slot is taken.
  RunOptions interactive = opts;
  interactive.priority = TravelClass::kInteractive;
  auto travel_c = contender->Submit(plan, interactive);
  ASSERT_TRUE(travel_c.ok()) << travel_c.status().ToString();
  auto result_c = contender->Await(*travel_c, 60000);
  ASSERT_TRUE(result_c.ok()) << result_c.status().ToString();

  auto result_a = holder->Await(*travel_a, 60000);
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  EXPECT_EQ(result_a->vids.size(), 200u);

  // Run() absorbs rejections with jittered backoff: occupy the slot again,
  // then Run a contender; its resubmits land once the holder finishes.
  auto travel_d = holder->Submit(plan, opts);
  ASSERT_TRUE(travel_d.ok());
  RunOptions retry = opts;
  retry.backoff_base_ms = 5;
  auto result_e = contender->Run(plan, retry);
  ASSERT_TRUE(result_e.ok()) << result_e.status().ToString();
  EXPECT_EQ(result_e->vids.size(), 200u);
  ASSERT_TRUE(holder->Await(*travel_d, 60000).ok());

  EXPECT_GE(MetricSum("gt_travel_admitted_total"), admitted_before + 4);
}

// Cancellation reclaims an anchored travel and a filtered scan start alike.
// The scan start's roots are cancelled while queued, holding the records
// their pushed-down scan read; those leave with the root execution. Ending
// a travel erases its record only: its tasks still queued pop and are
// dropped unread, so after the cancel each server's store sees at most the
// accesses of the batches already inside their I/O phase (each of a
// worker's at most kMaxBatchVertices vertices one read plus one edge scan).
TEST(TravelLifecycleTest, CancelledTravelIsFullyReclaimedOnEveryServer) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 20000;  // 20ms per vertex access
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  // 1,200 isolated type-N vertices beside the fan-out widen the scan start
  // to ~1,430 roots, ~480 per server: far more than the two batches in
  // flight, so reading the dropped ones would break the bound below.
  RefGraph g = FanoutGraph(catalog, 30, 12);
  for (VertexId v = g.num_vertices(), end = v + 1200; v < end; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = catalog->Intern("N");
    rec.props.Set(catalog->Intern("w"), graph::PropValue(static_cast<int64_t>(v % 10)));
    g.AddVertex(rec);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());
  // Each root that passes the start filters is a 20ms edge scan at step 0.
  auto scan_start = GTravel(catalog)
                        .v()
                        .va("type", lang::FilterOp::kEq, {graph::PropValue("N")})
                        .va("w", lang::FilterOp::kRange,
                            {graph::PropValue(int64_t{0}), graph::PropValue(int64_t{8})})
                        .e("out")
                        .e("out")
                        .Build();
  ASSERT_TRUE(scan_start.ok());

  const double cancelled_before = MetricSum("gt_travel_cancelled_total");
  auto client = (*cluster)->NewClient();
  for (const auto& [name, plan] :
       {std::pair{"anchored", TwoHopPlan(catalog)}, std::pair{"scan start", *scan_start}}) {
    SCOPED_TRACE(name);
    // Hundreds of vertex accesses at 20ms across 3 servers x 2 workers:
    // either travel runs for seconds unless cancellation reclaims it.
    RunOptions opts;
    auto travel = client->Submit(plan, opts);
    ASSERT_TRUE(travel.ok());

    // Cancel only once the travel's tasks are queued somewhere.
    bool queued = false;
    const auto queue_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!queued && std::chrono::steady_clock::now() < queue_deadline) {
      for (uint32_t s = 0; s < cfg.num_servers; s++) {
        queued = queued || (*cluster)->server(s)->queue_depth() != 0;
      }
      if (!queued) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(queued) << "no task queued within 5s";

    // Give up after 50ms; Await cancels the travel at its coordinator, which
    // fans kAbortTraversal out to every server.
    auto result = client->Await(*travel, 50);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
    std::vector<uint64_t> accesses_at_cancel;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      accesses_at_cancel.push_back((*cluster)->store(s)->vertex_accesses());
    }

    // Every server must drain the travel's queued tasks and drop its state
    // (plans, execs with their held root records, memo entries, cache
    // residue, trace buffers).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool reclaimed = false;
    while (std::chrono::steady_clock::now() < deadline) {
      reclaimed = true;
      for (uint32_t s = 0; s < cfg.num_servers; s++) {
        BackendServer* server = (*cluster)->server(s);
        if (server->queue_depth() != 0 || server->HasTravelResidue(*travel)) {
          reclaimed = false;
          break;
        }
      }
      if (reclaimed) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(reclaimed) << "travel state not reclaimed within 20s";
    const uint64_t in_flight_bound =
        uint64_t{cfg.workers_per_server} * RequestQueue::kMaxBatchVertices * 2;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      EXPECT_LE((*cluster)->store(s)->vertex_accesses() - accesses_at_cancel[s],
                in_flight_bound)
          << "server " << s << " read tasks queued for a cancelled travel";
    }
  }
  EXPECT_GE(MetricSum("gt_travel_cancelled_total"), cancelled_before + 2);

  // The cluster keeps serving after the cancellations.
  auto after = (*cluster)->Run(TwoHopPlan(catalog), EngineMode::kGraphTrek);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->vids.size(), 360u);
}

// Cancelling one travel reclaims that travel's state only. A GraphTrek
// travel's filtered scan start queues ~150 roots per server, more than two
// workers' batches (2 x 64 vertices) take at once, and a Sync-GT travel's
// roots queue behind them. The GraphTrek travel is cancelled while both
// have tasks queued on every server: its state leaves every server while
// the Sync-GT travel's stays, and the Sync-GT travel then completes with
// the reference evaluator's answer.
TEST(TravelLifecycleTest, CancelLeavesConcurrentTravelIntact) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 20000;  // 20ms per vertex access
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  const RefGraph g = FanoutGraph(catalog, 40, 12);
  ASSERT_TRUE((*cluster)->Load(g).ok());
  auto scan_start = [&](int64_t w_hi) {
    auto plan = GTravel(catalog)
                    .v()
                    .va("type", lang::FilterOp::kEq, {graph::PropValue("N")})
                    .va("w", lang::FilterOp::kRange,
                        {graph::PropValue(int64_t{0}), graph::PropValue(w_hi)})
                    .e("out")
                    .Build();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  };
  const lang::TraversalPlan cancelled_plan = scan_start(8);  // w in [0, 8]: 90% of vertices
  const lang::TraversalPlan kept_plan = scan_start(0);       // w = 0: 10%
  // Roots per server: every server must have received both travels' roots
  // before the cancel.
  std::vector<uint64_t> roots(cfg.num_servers, 0);
  for (VertexId vid = 0; vid < g.num_vertices(); vid++) {
    const uint64_t w = vid % 10;  // FanoutGraph's w
    roots[(*cluster)->partitioner()->ServerFor(vid)] += (w <= 8 ? 1 : 0) + (w == 0 ? 1 : 0);
  }

  auto canceller = (*cluster)->NewClient();
  auto keeper = (*cluster)->NewClient();
  RunOptions graphtrek;
  RunOptions sync;
  sync.mode = EngineMode::kSync;
  auto cancelled = canceller->Submit(cancelled_plan, graphtrek);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  auto kept = keeper->Submit(kept_plan, sync);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();

  const auto queue_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool queued = false;
  while (!queued && std::chrono::steady_clock::now() < queue_deadline) {
    queued = true;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      BackendServer* server = (*cluster)->server(s);
      queued = queued && server->visit_stats().Read().received >= roots[s] &&
               server->queue_depth() != 0;
    }
    if (!queued) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queued) << "both travels' roots not queued within 5s";
  ASSERT_TRUE(canceller->Cancel(*cancelled).ok());

  auto has_residue = [&](uint32_t s, TravelId travel) {
    return (*cluster)->server(s)->HasTravelResidue(travel);
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool reclaimed = false;
  while (!reclaimed && std::chrono::steady_clock::now() < deadline) {
    reclaimed = true;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      reclaimed = reclaimed && !has_residue(s, *cancelled);
    }
    if (!reclaimed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reclaimed) << "cancelled travel not reclaimed within 20s";
  for (uint32_t s = 0; s < cfg.num_servers; s++) {
    EXPECT_TRUE(has_residue(s, *kept)) << "server " << s << " dropped the live travel";
  }

  auto result = keeper->Await(*kept, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<VertexId> oracle = lang::EvaluatePlanOnRefGraph(kept_plan, g, *catalog);
  EXPECT_FALSE(oracle.empty());
  EXPECT_EQ(result->vids, oracle);
}

TEST(TravelLifecycleTest, DeadlineExceededCompletesAsTimeout) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.device.access_latency_us = 20000;
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(FanoutGraph(catalog, 20, 10)).ok());

  const double deadline_before = MetricSum("gt_travel_deadline_exceeded_total");

  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.deadline_ms = 30;  // far below the ~2s the travel needs
  opts.client_timeout_ms = 30000;
  auto result = client->Run(TwoHopPlan(catalog), opts);
  ASSERT_FALSE(result.ok());
  // Timeout, not Aborted: deadline expiry must not trigger the restart
  // policy (the resubmission would blow the deadline again).
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
  EXPECT_GE(MetricSum("gt_travel_deadline_exceeded_total"), deadline_before + 1);

  // Deadline enforcement reclaims like cancellation does.
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool drained = false;
  while (std::chrono::steady_clock::now() < wait_until) {
    drained = true;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      if ((*cluster)->server(s)->queue_depth() != 0) {
        drained = false;
        break;
      }
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(drained) << "queues not drained after deadline expiry";
}

// Completion detection needs no maintenance tick: every frame and trace
// item leaves at its travel's local quiescence on each server, so plain
// (direct-protocol) travels complete while the tick never fires. A tick
// flushing the trace buffers would hold each travel for its 60 s period.
TEST(TravelLifecycleTest, PlainTravelCompletesWithoutMaintenanceTick) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.maintenance_interval_ms = 60000;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  bench::BenchConfig bcfg;
  bcfg.rmat_scale = 9;
  const RefGraph g = bench::BuildRmat1(catalog, bcfg);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto client = (*cluster)->NewClient();
  RunOptions opts;  // kGraphTrek; plain hops take the direct protocol
  opts.client_timeout_ms = 10000;
  opts.max_restarts = 0;
  for (uint32_t steps : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(steps) + " steps");
    const auto plan = bench::HopPlan(catalog, bench::kBenchSource, steps);
    auto result = client->Run(plan, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->vids, lang::EvaluatePlanOnRefGraph(plan, g, *catalog));
    EXPECT_LT(result->elapsed_ms, 10000.0);
  }
}

}  // namespace
}  // namespace gt::engine
