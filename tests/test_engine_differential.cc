// Cross-engine differential test: the three engines (Sync-GT, Async-GT,
// GraphTrek) are three implementations of one semantics, so on any graph
// and any valid GTravel plan they must return identical result sets — and
// all three must agree with the in-memory reference evaluator.
//
// The harness generates seeded random property graphs (two vertex types,
// two edge labels, integer properties, cycles and parallel paths so
// re-visits actually occur) and random plans mixing v()/e()/va()/ea()/rtn()
// including intermediate returns (the attribution protocol). A separate leg
// repeats the comparison under a FaultInjectingTransport that duplicates
// every kTraverse frame and drops a fraction on one link, checking the
// status-tracing restart path converges to the same answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

// Detect ThreadSanitizer on both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature) so the seed count can shrink under instrumentation.
#if defined(__SANITIZE_THREAD__)
#define GT_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GT_UNDER_TSAN 1
#endif
#endif

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/engine/client.h"
#include "src/engine/cluster.h"
#include "src/engine/straggler.h"
#include "src/graph/ingest.h"
#include "src/lang/gtravel.h"
#include "src/rpc/fault_transport.h"
#include "src/rpc/inproc_transport.h"
#include "tests/racing_harness.h"
#include "tests/test_util.h"

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

// Random property graph: types A/B with an integer weight, edge labels
// x/y with an integer cost. Dense enough (and cyclic) that traversals
// revisit vertices, which is what exercises the travel cache, execution
// merging and trace dedup differently per engine.
RefGraph BuildRandomGraph(Catalog* catalog, Rng* rng, uint32_t n) {
  RefGraph g;
  const auto type_a = catalog->Intern("A");
  const auto type_b = catalog->Intern("B");
  const auto w_key = catalog->Intern("w");
  const auto p_key = catalog->Intern("p");
  const auto label_x = catalog->Intern("x");
  const auto label_y = catalog->Intern("y");

  for (VertexId v = 0; v < n; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = rng->Bernoulli(0.6) ? type_a : type_b;
    rec.props.Set(w_key, PropValue(static_cast<int64_t>(rng->Uniform(100))));
    g.AddVertex(rec);
  }
  const uint32_t edges = n * 3;
  for (uint32_t i = 0; i < edges; i++) {
    EdgeRecord e;
    e.src = rng->Uniform(n);
    e.dst = rng->Uniform(n);  // self-loops and duplicates are legal
    e.label = rng->Bernoulli(0.5) ? label_x : label_y;
    e.props.Set(p_key, PropValue(static_cast<int64_t>(rng->Uniform(100))));
    g.AddEdge(e);
  }
  return g;
}

// Random plan over the graph above. Always valid by construction (Build()
// is still asserted): anchored or scan start, 2-4 hops over x/y, optional
// vertex/edge property filters, optional rtn() markers including
// intermediate ones (which force the attribution protocol).
lang::TraversalPlan BuildRandomPlan(Catalog* catalog, Rng* rng, uint32_t n) {
  GTravel travel(catalog);

  if (rng->Bernoulli(0.75)) {
    // Anchored start: 1-3 random entry vertices (duplicates allowed — the
    // engines must dedup them identically).
    std::vector<VertexId> ids;
    const uint32_t k = 1 + static_cast<uint32_t>(rng->Uniform(3));
    for (uint32_t i = 0; i < k; i++) ids.push_back(rng->Uniform(n));
    travel.v(ids);
  } else {
    // Unanchored scan over one type index.
    travel.v().va("type", FilterOp::kEq, {PropValue(rng->Bernoulli(0.5) ? "A" : "B")});
  }
  if (rng->Bernoulli(0.2)) {
    const int64_t lo = static_cast<int64_t>(rng->Uniform(50));
    travel.va("w", FilterOp::kRange, {PropValue(lo), PropValue(lo + 45)});
  }
  if (rng->Bernoulli(0.15)) travel.rtn();

  const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(3));
  for (uint32_t h = 0; h < hops; h++) {
    travel.e(rng->Bernoulli(0.5) ? "x" : "y");
    if (rng->Bernoulli(0.25)) {
      const int64_t lo = static_cast<int64_t>(rng->Uniform(40));
      travel.ea("p", FilterOp::kRange, {PropValue(lo), PropValue(lo + 55)});
    }
    if (rng->Bernoulli(0.2)) {
      travel.va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{85})});
    }
    // Intermediate rtn() on non-final hops triggers per-vertex attribution
    // through the answer tree; a final rtn() is the direct protocol.
    if (rng->Bernoulli(0.3)) travel.rtn();
  }

  auto plan = travel.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// Extended random plan: every language extension, one flavor per plan so
// each seed sweep covers all of them. Flavor 0 is the legacy generator
// above (rtn/attribution); 1 = repeat/until loops (optionally aggregated);
// 2 = count()/group() terminals; 3 = branch() unions (optionally with
// repeat inside alternatives and an aggregate terminal); 4 = path() chains
// (hop count capped by the kMaxPathSteps validation rule).
lang::TraversalPlan BuildRandomExtPlan(Catalog* catalog, Rng* rng, uint32_t n) {
  const uint32_t flavor = rng->Uniform(5);
  if (flavor == 0) return BuildRandomPlan(catalog, rng, n);

  GTravel travel(catalog);
  if (rng->Bernoulli(0.7)) {
    std::vector<VertexId> ids;
    const uint32_t k = 1 + static_cast<uint32_t>(rng->Uniform(3));
    for (uint32_t i = 0; i < k; i++) ids.push_back(rng->Uniform(n));
    travel.v(ids);
  } else {
    travel.v().va("type", FilterOp::kEq, {PropValue(rng->Bernoulli(0.5) ? "A" : "B")});
  }

  auto random_hop = [&](GTravel& t, bool allow_repeat) {
    t.e(rng->Bernoulli(0.5) ? "x" : "y");
    if (allow_repeat && rng->Bernoulli(0.35)) {
      t.repeat(2 + static_cast<uint32_t>(rng->Uniform(2)));
    }
    if (rng->Bernoulli(0.25)) {
      const int64_t lo = static_cast<int64_t>(rng->Uniform(40));
      t.ea("p", FilterOp::kRange, {PropValue(lo), PropValue(lo + 55)});
    }
    if (rng->Bernoulli(0.2)) {
      t.va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{85})});
    }
  };

  switch (flavor) {
    case 1: {  // repeat/until
      const uint32_t hops = 1 + static_cast<uint32_t>(rng->Uniform(3));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, /*allow_repeat=*/true);
      if (rng->Bernoulli(0.6)) {
        const int64_t lo = static_cast<int64_t>(rng->Uniform(60));
        travel.until("w", FilterOp::kRange, {PropValue(lo), PropValue(lo + 30)});
      }
      if (rng->Bernoulli(0.3)) {
        rng->Bernoulli(0.5) ? travel.count()
                            : travel.group(rng->Bernoulli(0.5) ? "w" : "type");
      }
      break;
    }
    case 2: {  // aggregate terminals
      const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(3));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, /*allow_repeat=*/false);
      if (rng->Bernoulli(0.5)) {
        if (rng->Bernoulli(0.3)) travel.rtn();  // count() composes with rtn()
        travel.count();
      } else {
        travel.group(rng->Bernoulli(0.5) ? "w" : "type");
      }
      break;
    }
    case 3: {  // branch unions
      if (rng->Bernoulli(0.5)) random_hop(travel, /*allow_repeat=*/false);
      std::vector<GTravel> alts;
      const uint32_t num_alts = 2 + static_cast<uint32_t>(rng->Uniform(2));
      for (uint32_t a = 0; a < num_alts; a++) {
        GTravel alt = GTravel::Alt(catalog);
        const uint32_t alt_hops = 1 + static_cast<uint32_t>(rng->Uniform(2));
        for (uint32_t h = 0; h < alt_hops; h++) random_hop(alt, /*allow_repeat=*/true);
        alts.push_back(std::move(alt));
      }
      travel.branch(std::move(alts));
      if (rng->Bernoulli(0.4)) random_hop(travel, /*allow_repeat=*/false);
      if (rng->Bernoulli(0.3)) {
        rng->Bernoulli(0.5) ? travel.count()
                            : travel.group(rng->Bernoulli(0.5) ? "w" : "type");
      }
      break;
    }
    default: {  // path chains
      const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(2));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, /*allow_repeat=*/false);
      travel.path();
      break;
    }
  }

  auto plan = travel.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// Mode-aware comparison of one engine result against the extended
// reference evaluation.
void ExpectMatchesRefEval(const lang::TraversalPlan& plan, const TraversalResult& result,
                          const lang::RefEvalResult& oracle) {
  switch (plan.result_mode) {
    case lang::ResultMode::kVertices:
      EXPECT_EQ(result.vids, oracle.vids);
      break;
    case lang::ResultMode::kCount:
      EXPECT_EQ(result.count, oracle.count);
      EXPECT_TRUE(result.vids.empty());
      break;
    case lang::ResultMode::kGroup:
      EXPECT_EQ(result.groups, oracle.groups);
      break;
    case lang::ResultMode::kPaths: {
      EXPECT_EQ(result.paths, oracle.paths);
      if (result.paths != oracle.paths) {
        std::vector<std::vector<graph::VertexId>> extra, missing;
        std::set_difference(result.paths.begin(), result.paths.end(),
                            oracle.paths.begin(), oracle.paths.end(),
                            std::back_inserter(extra));
        std::set_difference(oracle.paths.begin(), oracle.paths.end(),
                            result.paths.begin(), result.paths.end(),
                            std::back_inserter(missing));
        auto render = [](const std::vector<std::vector<graph::VertexId>>& ps) {
          std::string s;
          for (size_t i = 0; i < ps.size() && i < 8; i++) {
            s += " [";
            for (size_t j = 0; j < ps[i].size(); j++) {
              if (j) s += ",";
              s += std::to_string(ps[i][j]);
            }
            s += "]";
          }
          return s;
        };
        ADD_FAILURE() << "paths diff: " << extra.size() << " extra:" << render(extra)
                      << " | " << missing.size() << " missing:" << render(missing);
      }
      break;
    }
  }
}

constexpr EngineMode kAllModes[] = {EngineMode::kSync, EngineMode::kAsyncPlain,
                                    EngineMode::kGraphTrek};

TEST(EngineDifferentialTest, AllEnginesMatchOracleOnRandomWorkloads) {
#if defined(GT_UNDER_TSAN)
  const uint64_t seeds = 6;  // instrumented runs cost ~10x; keep coverage daily-size
#else
  const uint64_t seeds = 20;
#endif
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    ClusterConfig cfg;
    cfg.num_servers = 3;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    Catalog* catalog = (*cluster)->catalog();

    const uint32_t n = 60 + static_cast<uint32_t>(rng.Uniform(60));
    RefGraph g = BuildRandomGraph(catalog, &rng, n);
    ASSERT_TRUE((*cluster)->Load(g).ok());

    // Several plans per graph amortize the cluster setup cost. The extended
    // generator rotates through every language flavor (legacy rtn, repeat/
    // until, count/group, branch, path).
    for (int q = 0; q < 5; q++) {
      SCOPED_TRACE("query=" + std::to_string(q));
      const lang::TraversalPlan plan = BuildRandomExtPlan(catalog, &rng, n);
      const lang::RefEvalResult oracle =
          lang::EvaluatePlanExtOnRefGraph(plan, g, *catalog);
      for (EngineMode mode : kAllModes) {
        SCOPED_TRACE(EngineModeName(mode));
        const ServerId coordinator =
            static_cast<ServerId>(rng.Uniform(cfg.num_servers));
        // Every run executes twice: the first pass populates the adjacency
        // cache (cold), the second is served from it (warm). A stale or
        // torn cached row would make the passes disagree with the oracle
        // or each other, so this doubles as the cache's differential gate.
        for (int pass = 0; pass < 2; pass++) {
          SCOPED_TRACE(pass == 0 ? "cache=cold" : "cache=warm");
          auto result = (*cluster)->Run(plan, mode, coordinator);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          // TraversalResult::vids/paths are sorted + deduplicated, as is
          // the oracle, so vector equality is multiset equality.
          ExpectMatchesRefEval(plan, *result, oracle);
        }
      }
    }
  }
}

// Scan-start plan over BuildRandomGraph whose start carries a "w" range
// filter beyond its type anchor, so the coordinator's planner always sets
// push_start_filters and every server reads its candidates through
// GraphStore::ScanVerticesByTypeFiltered. 1-3 hops with optional edge and
// vertex filters, then a random result mode.
lang::TraversalPlan BuildPushedDownScanPlan(Catalog* catalog, Rng* rng, const char* type) {
  GTravel travel(catalog);
  const int64_t lo = static_cast<int64_t>(rng->Uniform(50));
  travel.v()
      .va("type", FilterOp::kEq, {PropValue(type)})
      .va("w", FilterOp::kRange, {PropValue(lo), PropValue(lo + 45)});
  const uint32_t mode = rng->Uniform(4);  // vertices, count, group, path
  if (mode == 0 && rng->Bernoulli(0.2)) travel.rtn();
  const uint32_t hops = 1 + static_cast<uint32_t>(rng->Uniform(3));
  for (uint32_t h = 0; h < hops; h++) {
    travel.e(rng->Bernoulli(0.5) ? "x" : "y");
    if (rng->Bernoulli(0.25)) {
      const int64_t p_lo = static_cast<int64_t>(rng->Uniform(40));
      travel.ea("p", FilterOp::kRange, {PropValue(p_lo), PropValue(p_lo + 55)});
    }
    if (rng->Bernoulli(0.2)) {
      travel.va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{85})});
    }
    if (mode == 0 && rng->Bernoulli(0.3)) travel.rtn();
  }
  switch (mode) {
    case 1:
      travel.count();
      break;
    case 2:
      travel.group(rng->Bernoulli(0.5) ? "w" : "type");
      break;
    case 3:
      travel.path();
      break;
    default:
      break;
  }
  auto plan = travel.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// Pushdown leg: every coordinator plans every travel, so a filtered scan
// start reads its candidates inside the type-index scan — as one sequential
// run when a server holds more than 16 of them, as one MultiGet otherwise.
// Graph sizes alternate between small (every server at or under the cutoff)
// and large (over it), and the sweep asserts that both branches ran; all
// three engines must agree with the reference evaluator in every mode.
TEST(EngineDifferentialTest, PushedDownScanStartsMatchOracle) {
#if defined(GT_UNDER_TSAN)
  const uint64_t seeds = 2;
#else
  const uint64_t seeds = 8;
#endif
  constexpr uint64_t kPointReadCutoff = 16;  // GraphStore::ScanVerticesByTypeFiltered
  uint32_t point_branch_scans = 0;
  uint32_t run_branch_scans = 0;
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 15485863);
    ClusterConfig cfg;
    cfg.num_servers = 3;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    Catalog* catalog = (*cluster)->catalog();

    // ~10 type-A vertices per server on small graphs, ~50 on large ones.
    const bool large = seed % 2 == 0;
    const uint32_t n = large ? 240 + static_cast<uint32_t>(rng.Uniform(40))
                             : 40 + static_cast<uint32_t>(rng.Uniform(10));
    RefGraph g = BuildRandomGraph(catalog, &rng, n);
    ASSERT_TRUE((*cluster)->Load(g).ok());

    for (int q = 0; q < 4; q++) {
      SCOPED_TRACE("query=" + std::to_string(q));
      const char* type = rng.Bernoulli(0.5) ? "A" : "B";
      for (uint32_t s = 0; s < cfg.num_servers; s++) {
        uint64_t candidates = 0;
        ASSERT_TRUE((*cluster)
                        ->store(s)
                        ->ScanVerticesByType(catalog->Intern(type),
                                             [&](VertexId) {
                                               candidates++;
                                               return true;
                                             })
                        .ok());
        if (candidates > kPointReadCutoff) {
          run_branch_scans++;
        } else if (candidates > 0) {
          point_branch_scans++;
        }
      }
      const lang::TraversalPlan plan = BuildPushedDownScanPlan(catalog, &rng, type);
      const lang::RefEvalResult oracle = lang::EvaluatePlanExtOnRefGraph(plan, g, *catalog);
      for (EngineMode mode : kAllModes) {
        SCOPED_TRACE(EngineModeName(mode));
        const ServerId coordinator = static_cast<ServerId>(rng.Uniform(cfg.num_servers));
        auto result = (*cluster)->Run(plan, mode, coordinator);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectMatchesRefEval(plan, *result, oracle);
      }
    }
  }
  EXPECT_GT(point_branch_scans, 0u);
  EXPECT_GT(run_branch_scans, 0u);
}

TEST(EngineDifferentialTest, EnginesMatchOracleUnderDuplicationAndDrops) {
  // Idempotence leg: duplicate every kTraverse frame on every link, and
  // additionally drop a fraction of them on one link so the failure
  // detector's restart path runs. Only kTraverse and Sync-GT's kReleaseStep
  // are exercised because only they are idempotent by design (exec-id dedup
  // absorbs re-delivered frames, and a re-delivered release finds its held
  // frames gone; duplicated kReturnVertices frames would double-count
  // protocol state, which the transport never re-delivers). Every engine
  // hands off through kTraverse, so this leg covers all three.
#if defined(GT_UNDER_TSAN)
  const uint64_t seeds = 2;
#else
  const uint64_t seeds = 5;
#endif
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 104729);
    ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.net_faults = true;
    cfg.net_fault_seed = seed;
    cfg.exec_timeout_ms = 1000;  // lost work must be re-detected quickly
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    Catalog* catalog = (*cluster)->catalog();

    const uint32_t n = 40 + static_cast<uint32_t>(rng.Uniform(30));
    RefGraph g = BuildRandomGraph(catalog, &rng, n);
    ASSERT_TRUE((*cluster)->Load(g).ok());

    rpc::LinkFault dup;
    dup.duplicate_probability = 1.0;
    dup.only_type = rpc::MsgType::kTraverse;
    (*cluster)->fault_transport()->SetLinkFault(rpc::kAnyEndpoint,
                                                rpc::kAnyEndpoint, dup);
    rpc::LinkFault lossy = dup;
    lossy.drop_probability = 0.2;
    (*cluster)->fault_transport()->SetLinkFault(1, 2, lossy);

    const lang::TraversalPlan plan = BuildRandomExtPlan(catalog, &rng, n);
    const lang::RefEvalResult oracle = lang::EvaluatePlanExtOnRefGraph(plan, g, *catalog);
    auto client = (*cluster)->NewClient();
    for (EngineMode mode : kAllModes) {
      SCOPED_TRACE(EngineModeName(mode));
      RunOptions opts;
      opts.mode = mode;
      opts.coordinator = 0;
      opts.max_restarts = 8;  // drops can kill several attempts in a row
      auto result = client->Run(plan, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectMatchesRefEval(plan, *result, oracle);
    }
    EXPECT_GT(
        (*cluster)->fault_transport()->stats().messages_duplicated.load(), 0u);
    {
      // Sync-GT with every step release delivered twice on every link.
      SCOPED_TRACE("Sync-GT, duplicated releases");
      (*cluster)->fault_transport()->ClearAllFaults();
      rpc::LinkFault dup_release;
      dup_release.duplicate_probability = 1.0;
      dup_release.only_type = rpc::MsgType::kReleaseStep;
      (*cluster)->fault_transport()->SetLinkFault(rpc::kAnyEndpoint, rpc::kAnyEndpoint,
                                                  dup_release);
      RunOptions opts;
      opts.mode = EngineMode::kSync;
      opts.coordinator = 0;
      auto result = client->Run(plan, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectMatchesRefEval(plan, *result, oracle);
    }
    // The engines must have actually absorbed re-deliveries (not merely
    // gotten lucky): the dedup counter is part of the exposed registry.
    EXPECT_GT(metrics::Registry::Default()->Sum("gt_engine_duplicate_frames_total"),
              0.0);
  }
}

// Holds every kReturnVertices send for `stall` in the sending thread, outside
// any lock, as if the scheduler preempted that thread between taking its
// messages from the server's outbox and handing them to the fabric.
class StallingTransport final : public rpc::Transport {
 public:
  StallingTransport(rpc::Transport* inner, std::chrono::microseconds stall)
      : inner_(inner), stall_(stall) {}

  Status RegisterEndpoint(rpc::EndpointId id, rpc::MessageHandler handler) override {
    return inner_->RegisterEndpoint(id, std::move(handler));
  }
  void UnregisterEndpoint(rpc::EndpointId id) override { inner_->UnregisterEndpoint(id); }
  Status Send(rpc::Message msg) override {
    if (msg.type == rpc::MsgType::kReturnVertices) std::this_thread::sleep_for(stall_);
    return inner_->Send(std::move(msg));
  }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  rpc::Transport* const inner_;
  const std::chrono::microseconds stall_;
};

// Send-order leg. Plain travels (no rtn() on a non-final step) use the
// direct protocol: servers send final results to the coordinator
// (kReturnVertices), and the coordinator completes the travel once status
// tracing has seen every execution terminate. Each server must therefore
// send its results before the trace batch reporting their execution's
// termination, even when the maintenance tick flushes that batch while a
// worker is still sending the results. The stall spans the 5 ms tick often
// enough that an out-of-order drain loses results on several travels of
// every run.
TEST(EngineDifferentialTest, PlainTravelResultsPrecedeTheirTermination) {
  constexpr uint32_t kServers = 3;
#if defined(GT_UNDER_TSAN)
  constexpr int kTravels = 4;
#else
  constexpr int kTravels = 12;
#endif
  gt::testing::ScopedTempDir dir;
  rpc::InProcTransport fabric{rpc::InProcConfig{}};
  StallingTransport transport(&fabric, std::chrono::microseconds(3000));
  graph::HashPartitioner partitioner(kServers);
  Catalog catalog;
  std::vector<std::unique_ptr<graph::GraphStore>> stores;
  std::vector<std::unique_ptr<BackendServer>> servers;
  for (uint32_t i = 0; i < kServers; i++) {
    auto store = graph::GraphStore::Open(dir.sub("s" + std::to_string(i)),
                                         graph::GraphStoreOptions{});
    ASSERT_TRUE(store.ok());
    stores.push_back(std::move(*store));
    ServerConfig scfg;
    scfg.id = i;
    scfg.num_servers = kServers;
    servers.push_back(std::make_unique<BackendServer>(scfg, stores.back().get(),
                                                      &partitioner, &catalog, &transport));
    ASSERT_TRUE(servers.back()->Start().ok());
  }

  Rng rng(2718);
  const uint32_t n = 80;
  RefGraph g = BuildRandomGraph(&catalog, &rng, n);
  std::vector<graph::GraphStore*> raw;
  for (auto& store : stores) raw.push_back(store.get());
  graph::GraphLoader loader(&partitioner, std::move(raw));
  ASSERT_TRUE(g.LoadInto(&loader).ok());
  ASSERT_TRUE(loader.Finish().ok());

  GraphTrekClient client(&transport, rpc::kClientIdBase, kServers);
  for (int q = 0; q < kTravels; q++) {
    SCOPED_TRACE("travel=" + std::to_string(q));
    auto plan = GTravel(&catalog)
                    .v({rng.Uniform(n), rng.Uniform(n)})
                    .e(rng.Bernoulli(0.5) ? "x" : "y")
                    .e(rng.Bernoulli(0.5) ? "x" : "y")
                    .Build();
    ASSERT_TRUE(plan.ok());
    const auto oracle = lang::EvaluatePlanOnRefGraph(*plan, g, catalog);
    for (EngineMode mode : {EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
      SCOPED_TRACE(EngineModeName(mode));
      RunOptions opts;
      opts.mode = mode;
      opts.coordinator = static_cast<ServerId>(q % kServers);
      auto result = client.Run(*plan, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->vids, oracle);
    }
  }
  for (auto& server : servers) server->Stop();
  transport.Shutdown();
}

// Mutate-while-traversing: a Darshan trickle-ingest stream plus churn on
// the queried subgraph races random travels on all three engines. Each
// travel is compared to the reference evaluator on the frozen copy of the
// graph at its own pin point (DumpAtTravelPin) — see racing_harness.h.
TEST(EngineDifferentialTest, MutationsRacingTravelsMatchPinnedOracle) {
#if defined(GT_UNDER_TSAN)
  const uint64_t seeds = 1;
  const int travels = 9;
#else
  const uint64_t seeds = 3;
  const int travels = 15;
#endif
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.retain_snapshots_for_test = true;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());

    auto mutator = (*cluster)->NewClient();
    auto traveler = (*cluster)->NewClient();
    gt::testing::RacingEnv env;
    env.mutator = mutator.get();
    env.traveler = traveler.get();
    env.catalog = (*cluster)->catalog();
    env.dump_at_pin = [&](TravelId t) { return (*cluster)->DumpAtTravelPin(t); };
    env.has_residue = [&](TravelId t) {
      for (uint32_t s = 0; s < cfg.num_servers; s++) {
        if ((*cluster)->server(s)->HasTravelResidue(t)) return true;
      }
      return false;
    };
    gt::testing::RunMutateRacingLeg(env, seed, travels);

    // Draining the retained pins must release every KV snapshot: nothing
    // else may be left holding compaction GC hostage.
    (*cluster)->DropRetainedSnapshotsForTest();
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      EXPECT_EQ((*cluster)->store(s)->db()->NumLiveSnapshots(), 0u) << s;
    }
  }
}

// Deterministic torn-read control: proves the differential leg actually
// catches the bug the snapshot pin fixes. A 3-vertex chain 1 -x-> 2 -x-> 3
// is traversed while vertex 2 is deleted mid-travel (the step-0 access is
// stalled long enough for the delete to land first). With snapshot
// isolation the travel answers from its pin ({3}); with isolation off it
// reads the live store and sees the torn graph (deleted mid-path vertex).
TEST(EngineDifferentialTest, TornReadControlRequiresSnapshotIsolation) {
  for (const bool isolation : {true, false}) {
    SCOPED_TRACE(isolation ? "snapshot_isolation=on" : "snapshot_isolation=off");
    ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.snapshot_isolation = isolation;
    cfg.retain_snapshots_for_test = true;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    Catalog* catalog = (*cluster)->catalog();

    auto client = (*cluster)->NewClient();
    for (VertexId v : {1u, 2u, 3u}) {
      ASSERT_TRUE(client->PutVertex(v, "A", {{"w", PropValue(int64_t(v))}}).ok());
    }
    ASSERT_TRUE(client->PutEdge(1, "x", 2).ok());
    ASSERT_TRUE(client->PutEdge(2, "x", 3).ok());

    GTravel travel(catalog);
    travel.v({1}).e("x").e("x");
    auto plan = travel.Build();
    ASSERT_TRUE(plan.ok());

    // Stall the anchor's step-0 access on every server (only its owner
    // fires) so the delete below is guaranteed to land mid-travel, after
    // admission/pinning but before the traversal reaches vertex 2.
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      (*cluster)->straggler()->AddRule(
          StragglerRule{.server_id = s, .step = 0, .delay_us = 400000, .max_hits = 1});
    }

    RunOptions opts;
    opts.mode = EngineMode::kGraphTrek;
    auto submitted = client->Submit(*plan, opts);
    ASSERT_TRUE(submitted.ok());

    // Wait for the travel to be inside the stalled access, then delete the
    // mid-path vertex. The synchronous ack returns in well under the 400ms
    // stall, so the ordering is deterministic.
    const auto stall_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*cluster)->straggler()->total_injected_delays() == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), stall_deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(client->DeleteVertex(2).ok());

    auto result = client->Await(*submitted);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The frozen-copy oracle at the pin point. With isolation on the pin
    // predates the delete, so the oracle sees the full chain; with
    // isolation off there is no pin and DumpAtTravelPin degrades to the
    // live (post-delete) state.
    auto frozen = (*cluster)->DumpAtTravelPin(result->travel_id);
    ASSERT_TRUE(frozen.ok());
    const std::vector<VertexId> oracle =
        lang::EvaluatePlanOnRefGraph(*plan, *frozen, *catalog);

    if (isolation) {
      EXPECT_NE(frozen->FindVertex(2), nullptr);
      EXPECT_EQ(oracle, (std::vector<VertexId>{3}));
      EXPECT_EQ(result->vids, oracle);
    } else {
      // The unpinned travel walked 1 -> 2 before the delete but found 2
      // gone when visiting it: a torn read the frozen-at-submit oracle
      // ({3}) flags. This is the pre-fix behaviour the leg exists to catch.
      EXPECT_EQ(frozen->FindVertex(2), nullptr);
      EXPECT_EQ(result->vids, std::vector<VertexId>{});
      EXPECT_NE(result->vids, (std::vector<VertexId>{3}));
    }
  }
}

}  // namespace
}  // namespace gt::engine
