// Engine correctness: every traversal, on every engine (Sync-GT, Async-GT,
// GraphTrek), must return exactly the vertices the reference evaluator
// computes on the staged in-memory graph. This file sweeps randomized
// graphs × plan shapes × server counts as property tests, plus targeted
// rtn()/filter/revisit scenarios.
#include <gtest/gtest.h>

#include <memory>

#include "src/engine/cluster.h"
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

constexpr EngineMode kAllModes[] = {EngineMode::kSync, EngineMode::kAsyncPlain,
                                    EngineMode::kGraphTrek};

std::unique_ptr<Cluster> MakeCluster(uint32_t servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  auto cluster = Cluster::Create(cfg);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return std::move(*cluster);
}

// Runs the plan on all three engines and checks each against the oracle.
void ExpectAllEnginesMatchOracle(Cluster* cluster, const RefGraph& g,
                                 const lang::TraversalPlan& plan,
                                 const char* context = "") {
  const auto expected = lang::EvaluatePlanOnRefGraph(plan, g, *cluster->catalog());
  for (EngineMode mode : kAllModes) {
    auto result = cluster->Run(plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode) << " " << context << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->vids, expected)
        << EngineModeName(mode) << " " << context << ": got " << result->vids.size()
        << " results, expected " << expected.size();
  }
}

// A small random multi-label graph with int properties for filter tests.
RefGraph RandomGraph(Catalog* catalog, uint64_t seed, uint32_t num_vertices,
                     uint32_t num_edges, uint32_t num_labels) {
  Rng rng(seed);
  RefGraph g;
  const auto val_k = catalog->Intern("val");
  const auto w_k = catalog->Intern("w");
  std::vector<graph::LabelId> vlabels, elabels;
  for (uint32_t i = 0; i < num_labels; i++) {
    vlabels.push_back(catalog->Intern("VType" + std::to_string(i)));
    elabels.push_back(catalog->Intern("etype" + std::to_string(i)));
  }
  for (VertexId v = 0; v < num_vertices; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = vlabels[rng.Uniform(num_labels)];
    rec.props.Set(val_k, PropValue(static_cast<int64_t>(rng.Uniform(100))));
    g.AddVertex(std::move(rec));
  }
  for (uint32_t i = 0; i < num_edges; i++) {
    EdgeRecord e;
    e.src = rng.Uniform(num_vertices);
    e.dst = rng.Uniform(num_vertices);
    e.label = elabels[rng.Uniform(num_labels)];
    e.props.Set(w_k, PropValue(static_cast<int64_t>(rng.Uniform(100))));
    g.AddEdge(std::move(e));
  }
  return g;
}

// --- property sweep: random graphs × random plans × engines -------------------------

struct SweepCase {
  uint64_t seed;
  uint32_t servers;
  uint32_t steps;
};

class EngineEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineEquivalenceSweep, AllEnginesMatchOracle) {
  const SweepCase& c = GetParam();
  auto cluster = MakeCluster(c.servers);
  Catalog* catalog = cluster->catalog();
  RefGraph g = RandomGraph(catalog, c.seed, /*num_vertices=*/200, /*num_edges=*/900,
                           /*num_labels=*/3);
  ASSERT_TRUE(cluster->Load(g).ok());

  Rng rng(c.seed * 7919 + c.steps);
  // Random plan: random start vertices, random edge labels per hop, and a
  // filter sprinkled on a random hop.
  std::vector<VertexId> starts;
  for (int i = 0; i < 3; i++) starts.push_back(rng.Uniform(200));

  GTravel travel(catalog);
  travel.v(starts);
  const uint32_t filtered_hop = c.steps > 0 ? rng.Uniform(c.steps) : 0;
  for (uint32_t s = 0; s < c.steps; s++) {
    travel.e("etype" + std::to_string(rng.Uniform(3)));
    if (s == filtered_hop) {
      travel.va("val", FilterOp::kRange,
                {PropValue(int64_t{10}), PropValue(int64_t{85})});
    }
  }
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectAllEnginesMatchOracle(cluster.get(), g, *plan, "sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalenceSweep,
    ::testing::Values(SweepCase{1, 1, 2}, SweepCase{2, 2, 3}, SweepCase{3, 3, 4},
                      SweepCase{4, 4, 5}, SweepCase{5, 5, 2}, SweepCase{6, 4, 6},
                      SweepCase{7, 2, 8}, SweepCase{8, 8, 3}, SweepCase{9, 8, 5},
                      SweepCase{10, 3, 1}, SweepCase{11, 6, 4}, SweepCase{12, 4, 7}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_s" +
             std::to_string(info.param.servers) + "_h" + std::to_string(info.param.steps);
    });

// rtn() placement sweep on random graphs: rtn at the source, at an
// intermediate step and at the final step, plus double rtn.
class RtnPlacementSweep : public ::testing::TestWithParam<int> {};

TEST_P(RtnPlacementSweep, AllEnginesMatchOracle) {
  const int rtn_step = GetParam();  // 0..3, or -1 for double rtn
  auto cluster = MakeCluster(4);
  Catalog* catalog = cluster->catalog();
  RefGraph g = RandomGraph(catalog, 1234, 150, 700, 2);
  ASSERT_TRUE(cluster->Load(g).ok());

  Rng rng(99);
  std::vector<VertexId> starts;
  for (int i = 0; i < 4; i++) starts.push_back(rng.Uniform(150));

  GTravel travel(catalog);
  travel.v(starts);
  if (rtn_step == 0) travel.rtn();
  for (int s = 0; s < 3; s++) {
    travel.e("etype" + std::to_string(s % 2));
    if (rtn_step == s + 1 || rtn_step == -1) travel.rtn();
    if (s == 1) {
      travel.va("val", FilterOp::kRange, {PropValue(int64_t{5}), PropValue(int64_t{90})});
    }
  }
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster.get(), g, *plan, "rtn-placement");
}

INSTANTIATE_TEST_SUITE_P(Placements, RtnPlacementSweep, ::testing::Values(-1, 0, 1, 2, 3));

// --- targeted scenarios -----------------------------------------------------------

class EngineScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = MakeCluster(4);
    catalog_ = cluster_->catalog();
  }

  std::unique_ptr<Cluster> cluster_;
  Catalog* catalog_ = nullptr;
};

TEST_F(EngineScenarioTest, EmptyResultWhenStartMissing) {
  RefGraph g = RandomGraph(catalog_, 5, 50, 100, 2);
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_).v({99999}).e("etype0").Build();
  ASSERT_TRUE(plan.ok());
  for (EngineMode mode : kAllModes) {
    auto result = cluster_->Run(*plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode);
    EXPECT_TRUE(result->vids.empty()) << EngineModeName(mode);
  }
}

TEST_F(EngineScenarioTest, ZeroHopPlanReturnsStartSet) {
  RefGraph g = RandomGraph(catalog_, 6, 50, 100, 2);
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_).v({1, 2, 3, 99999}).Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "zero-hop");
}

TEST_F(EngineScenarioTest, TypeScanStartMatchesOracle) {
  RefGraph g = RandomGraph(catalog_, 7, 120, 500, 3);
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_)
                  .v()
                  .va("type", FilterOp::kEq, {PropValue("VType1")})
                  .e("etype0")
                  .e("etype1")
                  .Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "type-scan");
}

TEST_F(EngineScenarioTest, EdgeFiltersApplyPerHop) {
  RefGraph g = RandomGraph(catalog_, 8, 100, 600, 2);
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_)
                  .v({1, 5, 9})
                  .e("etype0")
                  .ea("w", FilterOp::kRange, {PropValue(int64_t{20}), PropValue(int64_t{80})})
                  .e("etype1")
                  .ea("w", FilterOp::kIn,
                      {PropValue(int64_t{1}), PropValue(int64_t{2}), PropValue(int64_t{3}),
                       PropValue(int64_t{40}), PropValue(int64_t{41}),
                       PropValue(int64_t{42}), PropValue(int64_t{77})})
                  .Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "edge-filters");
}

TEST_F(EngineScenarioTest, RevisitsAcrossStepsWorkOnCycle) {
  // a <-> b cycle plus a tail; an N-step walk revisits vertices at different
  // steps (legal per the paper) while same-step duplicates are deduplicated.
  RefGraph g;
  const auto t = catalog_->Intern("N");
  const auto next = catalog_->Intern("next");
  for (VertexId v = 0; v < 4; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  auto edge = [&](VertexId s, VertexId d) {
    EdgeRecord e;
    e.src = s;
    e.label = next;
    e.dst = d;
    g.AddEdge(e);
  };
  edge(0, 1);
  edge(1, 0);
  edge(1, 2);
  edge(2, 3);
  ASSERT_TRUE(cluster_->Load(g).ok());

  GTravel travel(catalog_);
  travel.v({0});
  for (int i = 0; i < 6; i++) travel.e("next");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "cycle");
}

TEST_F(EngineScenarioTest, HighFanoutHubGraph) {
  // Star graph: hub -> 200 leaves -> back to hub. Stresses batch hand-offs.
  RefGraph g;
  const auto t = catalog_->Intern("N");
  const auto out = catalog_->Intern("out");
  const auto back = catalog_->Intern("back");
  VertexRecord hub;
  hub.id = 0;
  hub.label = t;
  g.AddVertex(hub);
  for (VertexId v = 1; v <= 200; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
    EdgeRecord e1;
    e1.src = 0;
    e1.label = out;
    e1.dst = v;
    g.AddEdge(e1);
    EdgeRecord e2;
    e2.src = v;
    e2.label = back;
    e2.dst = 0;
    g.AddEdge(e2);
  }
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_).v({0}).e("out").rtn().e("back").e("out").Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "hub");
}

TEST_F(EngineScenarioTest, RtnWithNoCompletingPathReturnsNothing) {
  // rtn-marked vertices whose continuation is filtered out must NOT be
  // returned ("only for those vertices whose resulting traversals reach the
  // end of the call chain").
  RefGraph g;
  const auto t = catalog_->Intern("N");
  const auto e1 = catalog_->Intern("hop");
  const auto tag_k = catalog_->Intern("tag");
  for (VertexId v = 0; v < 3; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    rec.props.Set(tag_k, PropValue(static_cast<int64_t>(v)));
    g.AddVertex(rec);
  }
  EdgeRecord ed;
  ed.src = 0;
  ed.label = e1;
  ed.dst = 1;
  g.AddEdge(ed);
  ed.src = 1;
  ed.label = e1;
  ed.dst = 2;
  g.AddEdge(ed);
  ASSERT_TRUE(cluster_->Load(g).ok());

  // rtn the middle vertex, but require the final vertex to have tag == 99
  // (nothing does).
  auto plan = GTravel(catalog_)
                  .v({0})
                  .e("hop")
                  .rtn()
                  .e("hop")
                  .va("tag", FilterOp::kEq, {PropValue(int64_t{99})})
                  .Build();
  ASSERT_TRUE(plan.ok());
  for (EngineMode mode : kAllModes) {
    auto result = cluster_->Run(*plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode);
    EXPECT_TRUE(result->vids.empty()) << EngineModeName(mode);
  }
}

TEST_F(EngineScenarioTest, FiveHopsOnDenseRandomGraphMatchOracle) {
  // Five hops over two labels on a dense random graph (150 vertices, 900
  // edges): later steps reach vertices through several parents, which
  // exercises the memo's redundant arrivals on every engine.
  auto cluster = MakeCluster(3);
  Catalog* catalog = cluster->catalog();
  RefGraph g = RandomGraph(catalog, 17, 150, 900, 2);
  ASSERT_TRUE(cluster->Load(g).ok());
  GTravel travel(catalog);
  travel.v({1, 2, 3});
  for (int i = 0; i < 5; i++) travel.e("etype" + std::to_string(i % 2));
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster.get(), g, *plan, "dense 5-hop");
}

TEST_F(EngineScenarioTest, RmatGraphTraversalMatchesOracle) {
  gen::RmatConfig rcfg;
  rcfg.scale = 8;  // 256 vertices
  rcfg.avg_degree = 4;
  rcfg.attr_bytes = 16;
  gen::RmatGenerator rmat(rcfg);
  RefGraph g = rmat.Build(catalog_);
  ASSERT_TRUE(cluster_->Load(g).ok());
  GTravel travel(catalog_);
  travel.v({1});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "rmat");
}

TEST_F(EngineScenarioTest, SequentialTraversalsOnOneClusterStayCorrect) {
  RefGraph g = RandomGraph(catalog_, 21, 120, 500, 2);
  ASSERT_TRUE(cluster_->Load(g).ok());
  for (uint64_t i = 0; i < 5; i++) {
    GTravel travel(catalog_);
    travel.v({i, i + 10, i + 20});
    travel.e("etype0").e("etype1");
    auto plan = travel.Build();
    ASSERT_TRUE(plan.ok());
    ExpectAllEnginesMatchOracle(cluster_.get(), g, *plan, "sequential");
  }
}

TEST_F(EngineScenarioTest, DifferentCoordinatorsGiveSameAnswer) {
  RefGraph g = RandomGraph(catalog_, 23, 100, 400, 2);
  ASSERT_TRUE(cluster_->Load(g).ok());
  auto plan = GTravel(catalog_).v({3, 4}).e("etype0").e("etype0").Build();
  ASSERT_TRUE(plan.ok());
  const auto expected = lang::EvaluatePlanOnRefGraph(*plan, g, *catalog_);
  for (ServerId coord = 0; coord < 4; coord++) {
    for (EngineMode mode : kAllModes) {
      auto result = cluster_->Run(*plan, mode, coord);
      ASSERT_TRUE(result.ok()) << "coord " << coord;
      EXPECT_EQ(result->vids, expected) << "coord " << coord << " " << EngineModeName(mode);
    }
  }
}

}  // namespace
}  // namespace gt::engine
