// Planner tests: golden plan-rewrite expectations (filter reordering and
// predicate pushdown) plus a property test that
// every rewrite is result-identical under the extended reference evaluator
// on seeded random graphs. The cross-engine planner-on/planner-off leg
// lives in test_engine_differential.cc; this file pins the rewrite logic
// itself, with no cluster in the loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lang/gtravel.h"
#include "src/lang/planner.h"

namespace gt::lang {
namespace {

using graph::Catalog;
using graph::EdgeRecord;
using graph::PropValue;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;

// Fixed-composition graph for the goldens: 10 vertices, 2 of type A and
// 8 of type B (so the type-EQ("A") selectivity is exactly 0.2, below the
// 0.35 RANGE prior), 30 x-edges (avg out-degree 3.0).
RefGraph BuildGoldenGraph(Catalog* catalog) {
  RefGraph g;
  const auto type_a = catalog->Intern("A");
  const auto type_b = catalog->Intern("B");
  const auto w_key = catalog->Intern("w");
  const auto label_x = catalog->Intern("x");
  for (VertexId v = 0; v < 10; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = v < 2 ? type_a : type_b;
    rec.props.Set(w_key, PropValue(static_cast<int64_t>(v * 10)));
    g.AddVertex(rec);
  }
  // Each vertex points at its next three neighbours: 30 distinct edges
  // (RefGraph upserts on (src, label, dst), so the dsts must differ).
  for (uint32_t i = 0; i < 30; i++) {
    EdgeRecord e;
    e.src = i % 10;
    e.dst = (e.src + 1 + i / 10) % 10;
    e.label = label_x;
    g.AddEdge(e);
  }
  return g;
}

TEST(PlannerTest, CollectPlanStatsCountsTypesAndLabels) {
  Catalog catalog;
  RefGraph g = BuildGoldenGraph(&catalog);
  const PlanStats stats = CollectPlanStats(g);
  EXPECT_EQ(stats.total_vertices, 10u);
  EXPECT_EQ(stats.vertices_per_type.at(catalog.Lookup("A")), 2u);
  EXPECT_EQ(stats.vertices_per_type.at(catalog.Lookup("B")), 8u);
}

TEST(PlannerTest, TypeEqSelectivityUsesTrueFraction) {
  Catalog catalog;
  RefGraph g = BuildGoldenGraph(&catalog);
  const PlanStats stats = CollectPlanStats(g);
  const auto type_key = catalog.Intern("type");
  const Filter type_a{type_key, FilterOp::kEq, {PropValue("A")}};
  const Filter type_b{type_key, FilterOp::kEq, {PropValue("B")}};
  const Filter type_unknown{type_key, FilterOp::kEq, {PropValue("Nobody")}};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(type_a, stats, catalog, type_key), 0.2);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(type_b, stats, catalog, type_key), 0.8);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(type_unknown, stats, catalog, type_key), 0.0);
  // Non-type filters fall back to the per-op priors, ordered EQ < IN < RANGE.
  const Filter eq{catalog.Intern("w"), FilterOp::kEq, {PropValue(int64_t{1})}};
  const Filter in{catalog.Intern("w"),
                  FilterOp::kIn,
                  {PropValue(int64_t{1}), PropValue(int64_t{2}), PropValue(int64_t{3})}};
  const Filter range{catalog.Intern("w"),
                     FilterOp::kRange,
                     {PropValue(int64_t{0}), PropValue(int64_t{9})}};
  const double s_eq = EstimateSelectivity(eq, stats, catalog, type_key);
  const double s_in = EstimateSelectivity(in, stats, catalog, type_key);
  const double s_range = EstimateSelectivity(range, stats, catalog, type_key);
  EXPECT_LT(s_eq, s_in);
  EXPECT_LT(s_in, s_range);
}

TEST(PlannerTest, GoldenReorderPutsSelectiveTypeFilterFirst) {
  Catalog catalog;
  RefGraph g = BuildGoldenGraph(&catalog);
  const PlanStats stats = CollectPlanStats(g);
  const auto type_key = catalog.Intern("type");

  // Chained order: the RANGE (0.35) before the type-EQ "A" (0.2). The
  // rewrite must stable-sort the AND list so the cheaper eliminator runs
  // first — and change nothing else.
  GTravel travel(&catalog);
  travel.v()
      .va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{50})})
      .va("type", FilterOp::kEq, {PropValue("A")})
      .e("x");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->start_vertex_filters.size(), 2u);
  EXPECT_EQ(plan->start_vertex_filters[0].op, FilterOp::kRange);

  PlannerReport report;
  const TraversalPlan rewritten = RewritePlan(*plan, stats, catalog, type_key, &report);
  ASSERT_EQ(rewritten.start_vertex_filters.size(), 2u);
  EXPECT_EQ(rewritten.start_vertex_filters[0].key, type_key);
  EXPECT_EQ(rewritten.start_vertex_filters[1].op, FilterOp::kRange);
  EXPECT_EQ(report.filter_lists_reordered, 1u);
  EXPECT_TRUE(rewritten.Validate().ok());
  // Hops, result mode and start ids are untouched.
  EXPECT_EQ(rewritten.hops.size(), plan->hops.size());
  EXPECT_EQ(rewritten.result_mode, plan->result_mode);
  EXPECT_EQ(rewritten.start_ids, plan->start_ids);
}

TEST(PlannerTest, GoldenReorderSortsHopFilterListsByOpPrior) {
  Catalog catalog;
  RefGraph g = BuildGoldenGraph(&catalog);
  const PlanStats stats = CollectPlanStats(g);
  const auto type_key = catalog.Intern("type");

  GTravel travel(&catalog);
  travel.v({0})
      .e("x")
      .ea("p", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{9})})
      .ea("p", FilterOp::kEq, {PropValue(int64_t{5})});
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->hops[0].edge_filters.size(), 2u);
  EXPECT_EQ(plan->hops[0].edge_filters[0].op, FilterOp::kRange);

  const TraversalPlan rewritten = RewritePlan(*plan, stats, catalog, type_key);
  EXPECT_EQ(rewritten.hops[0].edge_filters[0].op, FilterOp::kEq);
  EXPECT_EQ(rewritten.hops[0].edge_filters[1].op, FilterOp::kRange);
}

TEST(PlannerTest, GoldenPushdownOnlyWhenScanStartCarriesExtraFilters) {
  Catalog catalog;
  RefGraph g = BuildGoldenGraph(&catalog);
  const PlanStats stats = CollectPlanStats(g);
  const auto type_key = catalog.Intern("type");

  // Type anchor only: the index scan already yields exactly the start set.
  GTravel bare(&catalog);
  bare.v().va("type", FilterOp::kEq, {PropValue("B")}).e("x");
  auto bare_plan = bare.Build();
  ASSERT_TRUE(bare_plan.ok());
  PlannerReport report;
  TraversalPlan rewritten = RewritePlan(*bare_plan, stats, catalog, type_key, &report);
  EXPECT_FALSE(rewritten.push_start_filters);
  EXPECT_FALSE(report.pushed_down);

  // Extra start filter: pushed into the scan.
  GTravel filtered(&catalog);
  filtered.v()
      .va("type", FilterOp::kEq, {PropValue("B")})
      .va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{50})})
      .e("x");
  auto filtered_plan = filtered.Build();
  ASSERT_TRUE(filtered_plan.ok());
  rewritten = RewritePlan(*filtered_plan, stats, catalog, type_key, &report);
  EXPECT_TRUE(rewritten.push_start_filters);
  EXPECT_TRUE(report.pushed_down);

  // Anchored starts never push down (there is no index scan to push into).
  GTravel anchored(&catalog);
  anchored.v({1, 2}).va("w", FilterOp::kRange,
                        {PropValue(int64_t{0}), PropValue(int64_t{50})});
  anchored.e("x");
  auto anchored_plan = anchored.Build();
  ASSERT_TRUE(anchored_plan.ok());
  rewritten = RewritePlan(*anchored_plan, stats, catalog, type_key, &report);
  EXPECT_FALSE(rewritten.push_start_filters);
}

// --- Property test: rewrites preserve reference-evaluator results ----------

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
  for (uint32_t i = 0; i < n * 3; i++) {
    EdgeRecord e;
    e.src = rng->Uniform(n);
    e.dst = rng->Uniform(n);
    e.label = rng->Bernoulli(0.5) ? label_x : label_y;
    e.props.Set(p_key, PropValue(static_cast<int64_t>(rng->Uniform(100))));
    g.AddEdge(e);
  }
  return g;
}

// Random plan spanning every language flavor (mirrors the differential
// harness's generator, but pure lang-level — no cluster).
TraversalPlan BuildRandomExtPlan(Catalog* catalog, Rng* rng, uint32_t n) {
  GTravel travel(catalog);
  if (rng->Bernoulli(0.7)) {
    std::vector<VertexId> ids;
    const uint32_t k = 1 + static_cast<uint32_t>(rng->Uniform(3));
    for (uint32_t i = 0; i < k; i++) ids.push_back(rng->Uniform(n));
    travel.v(ids);
  } else {
    travel.v().va("type", FilterOp::kEq, {PropValue(rng->Bernoulli(0.5) ? "A" : "B")});
    if (rng->Bernoulli(0.5)) {
      travel.va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{80})});
    }
  }
  auto random_hop = [&](GTravel& t, bool allow_repeat) {
    t.e(rng->Bernoulli(0.5) ? "x" : "y");
    if (allow_repeat && rng->Bernoulli(0.3)) {
      t.repeat(2 + static_cast<uint32_t>(rng->Uniform(2)));
    }
    if (rng->Bernoulli(0.3)) {
      const int64_t lo = static_cast<int64_t>(rng->Uniform(40));
      t.ea("p", FilterOp::kRange, {PropValue(lo), PropValue(lo + 55)});
    }
    if (rng->Bernoulli(0.3)) {
      t.va("w", FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{85})});
    }
  };
  const uint32_t flavor = rng->Uniform(5);
  switch (flavor) {
    case 0: {  // legacy rtn
      const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(3));
      for (uint32_t h = 0; h < hops; h++) {
        random_hop(travel, false);
        if (rng->Bernoulli(0.3)) travel.rtn();
      }
      break;
    }
    case 1: {  // repeat/until
      const uint32_t hops = 1 + static_cast<uint32_t>(rng->Uniform(3));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, true);
      if (rng->Bernoulli(0.6)) {
        const int64_t lo = static_cast<int64_t>(rng->Uniform(60));
        travel.until("w", FilterOp::kRange, {PropValue(lo), PropValue(lo + 30)});
      }
      break;
    }
    case 2: {  // aggregate
      const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(3));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, false);
      rng->Bernoulli(0.5) ? travel.count()
                          : travel.group(rng->Bernoulli(0.5) ? "w" : "type");
      break;
    }
    case 3: {  // branch
      if (rng->Bernoulli(0.5)) random_hop(travel, false);
      std::vector<GTravel> alts;
      const uint32_t num_alts = 2 + static_cast<uint32_t>(rng->Uniform(2));
      for (uint32_t a = 0; a < num_alts; a++) {
        GTravel alt = GTravel::Alt(catalog);
        const uint32_t alt_hops = 1 + static_cast<uint32_t>(rng->Uniform(2));
        for (uint32_t h = 0; h < alt_hops; h++) random_hop(alt, true);
        alts.push_back(std::move(alt));
      }
      travel.branch(std::move(alts));
      if (rng->Bernoulli(0.4)) random_hop(travel, false);
      break;
    }
    default: {  // path
      const uint32_t hops = 2 + static_cast<uint32_t>(rng->Uniform(2));
      for (uint32_t h = 0; h < hops; h++) random_hop(travel, false);
      travel.path();
      break;
    }
  }
  auto plan = travel.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlannerTest, RewritesPreserveReferenceResultsOnSeededGraphs) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 6700417);
    Catalog catalog;
    const auto type_key = catalog.Intern("type");
    const uint32_t n = 30 + static_cast<uint32_t>(rng.Uniform(50));
    RefGraph g = BuildRandomGraph(&catalog, &rng, n);
    const PlanStats stats = CollectPlanStats(g);

    for (int q = 0; q < 5; q++) {
      SCOPED_TRACE("query=" + std::to_string(q));
      const TraversalPlan plan = BuildRandomExtPlan(&catalog, &rng, n);
      const TraversalPlan rewritten = RewritePlan(plan, stats, catalog, type_key);
      ASSERT_TRUE(rewritten.Validate().ok()) << rewritten.Validate().ToString();

      const RefEvalResult before = EvaluatePlanExtOnRefGraph(plan, g, catalog);
      const RefEvalResult after = EvaluatePlanExtOnRefGraph(rewritten, g, catalog);
      EXPECT_EQ(before.vids, after.vids);
      EXPECT_EQ(before.count, after.count);
      EXPECT_EQ(before.groups, after.groups);
      EXPECT_EQ(before.paths, after.paths);

      // The rewrite is a fixpoint: re-planning an already-planned plan
      // changes nothing (the bench replans per submission, so this matters).
      const TraversalPlan again = RewritePlan(rewritten, stats, catalog, type_key);
      EXPECT_EQ(again.Encode(), rewritten.Encode());
    }
  }
}

}  // namespace
}  // namespace gt::lang
