// GTravel: the chainable traversal-building language from the paper,
// in C++ method-chaining form:
//
//   auto plan = GTravel(&catalog)
//                   .v({user_id})
//                   .e("run").ea("start_ts", FilterOp::kRange, {t_s, t_e})
//                   .e("read").va("type", FilterOp::kEq, {"text"})
//                   .rtn()
//                   .Build();
//
// Selectors/filters (paper surface):
//   v(ids)   - entry vertices by id; v() with a type va() scans the index
//   e(label) - follow edges of the given type (one traversal step)
//   va(...)  - filter the current working set's vertices (AND-composed)
//   ea(...)  - filter the edges just traversed (must follow e())
//   rtn()    - mark the current working set for return; returned vertices
//              are those whose traversals reach the end of the chain
//
// Language extensions (see DESIGN.md "GTravel language & scan starts"):
//   repeat(n)   - execute the most recent e() step n times in sequence
//   until(...)  - with repeat on the final step: vertices matching the
//                 filter at any iteration become terminal results
//   branch({A}) - fork the working set across alternative hop chains
//                 (built with GTravel::Alt) and merge them by union
//   count()     - terminal: return only the result-set cardinality
//   group(key)  - terminal: return result vertices grouped by a property
//   path()      - terminal: return full visited vertex chains
//
// Build() validates the chain and resolves names against the catalog.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/graph/ref_graph.h"
#include "src/lang/plan.h"

namespace gt::lang {

class GTravel {
 public:
  explicit GTravel(graph::Catalog* catalog) : catalog_(catalog) {}

  // Builds a branch alternative: a bare hop chain (e/ea/va/repeat only; no
  // v(), rtn(), until(), terminals or nested branch()) passed to branch().
  static GTravel Alt(graph::Catalog* catalog) {
    GTravel alt(catalog);
    alt.is_alt_ = true;
    alt.has_v_ = true;  // alternatives continue an existing working set
    return alt;
  }

  // Entry-point selector. Call exactly once, first.
  GTravel& v(std::vector<graph::VertexId> ids = {});

  // Follow edges with the given label into the next step.
  GTravel& e(const std::string& label);

  // Vertex property filter on the current working set.
  GTravel& va(const std::string& key, FilterOp op, std::vector<graph::PropValue> values);

  // Edge property filter on the edges most recently traversed.
  GTravel& ea(const std::string& key, FilterOp op, std::vector<graph::PropValue> values);

  // Mark the current working set for return.
  GTravel& rtn();

  // Execute the most recent e() step n times in sequence (1 <= n <= 64).
  GTravel& repeat(uint32_t n);

  // Terminate the repeat loop early: vertices matching the filter at any
  // iteration boundary become terminal results. Only valid on the final
  // step of the chain, and incompatible with rtn()/path()/branch().
  GTravel& until(const std::string& key, FilterOp op, std::vector<graph::PropValue> values);

  // Fork the working set across the alternatives' hop chains and merge the
  // outcomes by union. Alternatives are built with GTravel::Alt. At most
  // one branch per traversal; steps chained after branch() run on the
  // merged set.
  GTravel& branch(std::vector<GTravel> alternatives);

  // Terminal steps: set the result mode and end the chain.
  GTravel& count();
  GTravel& group(const std::string& key);
  GTravel& path();

  // Validates and compiles the chain. Errors:
  //  - v() missing, repeated, or not first
  //  - ea() before any e(); repeat()/until() before any e()
  //  - RANGE filters without exactly 2 values / EQ without exactly 1
  //  - v() without ids and without a type EQ filter (unindexable scan)
  //  - no steps at all; steps after a terminal; invalid extension composition
  //    (see TraversalPlan::Validate)
  Result<TraversalPlan> Build() const;

 private:
  struct PendingFilter {
    bool is_edge = false;
    bool is_until = false;
    std::string key;
    FilterOp op = FilterOp::kEq;
    std::vector<graph::PropValue> values;
    int step = -1;  // 0 = start, i = after hop i-1
  };

  Status CheckFilterShape(const PendingFilter& f) const;
  void SetError(const std::string& msg);

  graph::Catalog* catalog_;
  bool is_alt_ = false;
  bool has_v_ = false;
  bool v_first_error_ = false;   // a selector/filter preceded v()
  bool v_repeated_ = false;
  std::string chain_error_;      // first chain-shape error (checked in Build)
  std::vector<graph::VertexId> start_ids_;
  std::vector<std::string> hop_labels_;
  std::vector<uint32_t> hop_repeats_;
  std::vector<PendingFilter> filters_;
  std::vector<int> rtn_steps_;
  ResultMode result_mode_ = ResultMode::kVertices;
  std::string group_key_;
  bool terminal_ = false;
  int branch_step_ = -1;  // hop count at the branch point, -1 = none
  std::vector<GTravel> branch_alts_;
};

// Reference evaluator: runs a plan against an in-memory RefGraph, used as
// the oracle in engine tests and by small examples. Returns the rtn-marked
// working sets' vertices (or the final working set when no rtn is present),
// deduplicated and sorted. The catalog provides the "type" pseudo-property
// (vertex label) used by va("type", ...) filters. Handles only
// ResultMode::kVertices plans without branches (legacy surface); extended
// plans go through EvaluatePlanExtOnRefGraph.
std::vector<graph::VertexId> EvaluatePlanOnRefGraph(const TraversalPlan& plan,
                                                    const graph::RefGraph& graph,
                                                    const graph::Catalog& catalog);

// Extended reference evaluation covering every language extension: repeat
// and until unroll exactly as the engines unroll them, branches evaluate as
// the union of their flattened sub-plans, and the result mode renders the
// (deduplicated) result set.
struct RefEvalResult {
  // kVertices (and the basis for every other mode): sorted distinct ids.
  std::vector<graph::VertexId> vids;
  // kCount.
  uint64_t count = 0;
  // kGroup: encoded PropValue of the group key -> distinct result vertices
  // with that value. A vertex missing the key groups under PropValue("");
  // when group_key is the "type" pseudo-property the label name is used.
  std::map<std::string, uint64_t> groups;
  // kPaths: sorted distinct visited vertex chains (start..result).
  std::vector<std::vector<graph::VertexId>> paths;
};
RefEvalResult EvaluatePlanExtOnRefGraph(const TraversalPlan& plan,
                                        const graph::RefGraph& graph,
                                        const graph::Catalog& catalog);

// Renders the group value of one vertex exactly as the engines do: the
// stored property encoded, the label name for the "type" pseudo-property,
// and PropValue("") when the property is missing.
std::string GroupValueForVertex(const graph::VertexRecord& rec, graph::Catalog::Id group_key,
                                const graph::Catalog& catalog, graph::Catalog::Id type_key);

}  // namespace gt::lang
