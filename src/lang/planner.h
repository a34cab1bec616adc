// Statistics-driven plan rewriting. The planner consumes vertex counts per
// type and applies two result-identical rewrites:
//
//   1. Filter reordering: AND-composed va()/ea() filter lists are
//      stable-sorted by estimated selectivity (cheapest-to-eliminate
//      first). AND is commutative, so the rewrite cannot change results.
//   2. Predicate pushdown: scan-start plans with filters beyond the type
//      anchor set push_start_filters, so the engines apply every start
//      filter inside the type-index scan and only matching vertices become
//      root execs. Engines re-apply the filters at processing time
//      (idempotent), so this is result-identical by construction.
//
// The differential harness enforces planner-on == planner-off equality on
// randomized plans; test_planner.cc pins the rewrite goldens.
#pragma once

#include <cstdint>
#include <map>

#include "src/graph/ref_graph.h"
#include "src/lang/plan.h"

namespace gt::lang {

// Graph statistics the planner consumes. On a server these come from the
// local shard (hash partitioning makes the shard a uniform sample, so the
// ratios are representative); tests and benches build them from a RefGraph.
struct PlanStats {
  uint64_t total_vertices = 0;
  std::map<graph::LabelId, uint64_t> vertices_per_type;
};

// Which rewrites ran (for goldens and for the bench's self-report).
struct PlannerReport {
  uint32_t filter_lists_reordered = 0;
  bool pushed_down = false;
};

// Builds PlanStats by counting a RefGraph (tests, benches, clients).
PlanStats CollectPlanStats(const graph::RefGraph& graph);

// Estimated fraction of candidate vertices/edges a filter keeps. Type-EQ
// filters use the per-type counts; the rest use fixed per-op priors scaled
// by IN-list width. `catalog` resolves type filter values to label ids.
double EstimateSelectivity(const Filter& f, const PlanStats& stats,
                           const graph::Catalog& catalog, graph::Catalog::Id type_key);

// Applies the rewrites above. Never changes plan semantics; the returned
// plan passes Validate() whenever the input did.
TraversalPlan RewritePlan(const TraversalPlan& plan, const PlanStats& stats,
                          const graph::Catalog& catalog, graph::Catalog::Id type_key,
                          PlannerReport* report = nullptr);

}  // namespace gt::lang
