// Tests for the GTravel language: filters, plan building + validation,
// binary plan serialization, and the reference evaluator semantics.
#include <gtest/gtest.h>

#include "src/lang/filter.h"
#include "src/lang/gtravel.h"
#include "src/lang/plan.h"

namespace gt::lang {
namespace {

using graph::Bytes;
using graph::Catalog;
using graph::EdgeRecord;
using graph::PropMap;
using graph::PropValue;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;

// --- Filters -------------------------------------------------------------------

TEST(FilterTest, EqMatchesExactValue) {
  Filter f{1, FilterOp::kEq, {PropValue("text")}};
  PropMap props;
  props.Set(1, PropValue("text"));
  EXPECT_TRUE(f.Matches(props));
  props.Set(1, PropValue("binary"));
  EXPECT_FALSE(f.Matches(props));
}

TEST(FilterTest, MissingPropertyNeverMatches) {
  Filter f{1, FilterOp::kEq, {PropValue("x")}};
  PropMap empty;
  EXPECT_FALSE(f.Matches(empty));
}

TEST(FilterTest, InMatchesAnyListedValue) {
  Filter f{2, FilterOp::kIn,
           {PropValue(int64_t{1}), PropValue(int64_t{3}), PropValue(int64_t{5})}};
  PropMap props;
  for (int64_t v : {1, 3, 5}) {
    props.Set(2, PropValue(v));
    EXPECT_TRUE(f.Matches(props)) << v;
  }
  props.Set(2, PropValue(int64_t{2}));
  EXPECT_FALSE(f.Matches(props));
}

TEST(FilterTest, RangeIsInclusiveBothEnds) {
  Filter f{3, FilterOp::kRange, {PropValue(int64_t{10}), PropValue(int64_t{20})}};
  PropMap props;
  props.Set(3, PropValue(int64_t{10}));
  EXPECT_TRUE(f.Matches(props));
  props.Set(3, PropValue(int64_t{20}));
  EXPECT_TRUE(f.Matches(props));
  props.Set(3, PropValue(int64_t{15}));
  EXPECT_TRUE(f.Matches(props));
  props.Set(3, PropValue(int64_t{9}));
  EXPECT_FALSE(f.Matches(props));
  props.Set(3, PropValue(int64_t{21}));
  EXPECT_FALSE(f.Matches(props));
}

TEST(FilterTest, RangeWorksOnDoublesAndMixedNumerics) {
  Filter f{3, FilterOp::kRange, {PropValue(1.5), PropValue(2.5)}};
  PropMap props;
  props.Set(3, PropValue(int64_t{2}));
  EXPECT_TRUE(f.Matches(props));
  props.Set(3, PropValue(2.6));
  EXPECT_FALSE(f.Matches(props));
}

TEST(FilterTest, RangeOnStrings) {
  Filter f{1, FilterOp::kRange, {PropValue("b"), PropValue("d")}};
  PropMap props;
  props.Set(1, PropValue("c"));
  EXPECT_TRUE(f.Matches(props));
  props.Set(1, PropValue("a"));
  EXPECT_FALSE(f.Matches(props));
}

TEST(FilterTest, MatchesAllIsConjunction) {
  std::vector<Filter> filters = {
      Filter{1, FilterOp::kEq, {PropValue("x")}},
      Filter{2, FilterOp::kRange, {PropValue(int64_t{0}), PropValue(int64_t{10})}},
  };
  PropMap props;
  props.Set(1, PropValue("x"));
  props.Set(2, PropValue(int64_t{5}));
  EXPECT_TRUE(MatchesAll(filters, props));
  props.Set(2, PropValue(int64_t{11}));
  EXPECT_FALSE(MatchesAll(filters, props));
  EXPECT_TRUE(MatchesAll({}, props));  // empty list matches everything
}

TEST(FilterTest, SerializationRoundTrip) {
  Filter f{42, FilterOp::kIn, {PropValue("a"), PropValue(int64_t{7}), PropValue(1.5)}};
  std::string buf;
  f.EncodeTo(&buf);
  Decoder dec(buf);
  Filter out;
  ASSERT_TRUE(Filter::DecodeFrom(&dec, &out).ok());
  EXPECT_TRUE(out == f);
}

TEST(FilterTest, VertexMatchesAllUsesLabelAsTypePseudoProperty) {
  Catalog cat;
  const auto type_key = cat.Intern("type");
  const auto exec_label = cat.Intern("Execution");
  VertexRecord rec;
  rec.id = 1;
  rec.label = exec_label;
  std::vector<Filter> filters = {Filter{type_key, FilterOp::kEq, {PropValue("Execution")}}};
  EXPECT_TRUE(VertexMatchesAll(filters, rec, cat, type_key));
  filters[0].values[0] = PropValue("File");
  EXPECT_FALSE(VertexMatchesAll(filters, rec, cat, type_key));
}

// --- GTravel builder + validation --------------------------------------------------

class GTravelTest : public ::testing::Test {
 protected:
  Catalog cat_;
};

TEST_F(GTravelTest, BuildsPaperAuditQuery) {
  // GTravel.v(userA).e('run').ea('start_ts',RANGE,[t_s,t_e])
  //        .e('read').va('type',EQ,'text').rtn()
  auto plan = GTravel(&cat_)
                  .v({100})
                  .e("run")
                  .ea("start_ts", FilterOp::kRange,
                      {PropValue(int64_t{10}), PropValue(int64_t{20})})
                  .e("read")
                  .va("type", FilterOp::kEq, {PropValue("text")})
                  .rtn()
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->start_ids, std::vector<VertexId>{100});
  ASSERT_EQ(plan->hops.size(), 2u);
  EXPECT_EQ(plan->hops[0].edge_label, cat_.Lookup("run"));
  EXPECT_EQ(plan->hops[0].edge_filters.size(), 1u);
  EXPECT_EQ(plan->hops[1].vertex_filters.size(), 1u);
  EXPECT_TRUE(plan->hops[1].rtn);
  EXPECT_FALSE(plan->start_rtn);
  EXPECT_EQ(plan->num_steps(), 2u);
}

TEST_F(GTravelTest, BuildsPaperProvenanceQueryWithSourceRtn) {
  // GTravel.v().va('type',EQ,'Execution').rtn().va('model',EQ,'A')
  //        .e('read').va('annotation',EQ,'B')
  auto plan = GTravel(&cat_)
                  .v()
                  .va("type", FilterOp::kEq, {PropValue("Execution")})
                  .rtn()
                  .va("model", FilterOp::kEq, {PropValue("A")})
                  .e("read")
                  .va("annotation", FilterOp::kEq, {PropValue("B")})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->start_ids.empty());
  EXPECT_TRUE(plan->start_rtn);
  EXPECT_EQ(plan->start_vertex_filters.size(), 2u);
  ASSERT_EQ(plan->hops.size(), 1u);
  EXPECT_EQ(plan->hops[0].vertex_filters.size(), 1u);
  EXPECT_TRUE(plan->has_rtn());
  EXPECT_EQ(plan->last_rtn_step(), 0);
}

TEST_F(GTravelTest, MissingVIsRejected) {
  auto plan = GTravel(&cat_).e("run").Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(GTravelTest, VMustComeFirst) {
  auto plan = GTravel(&cat_).e("run").v({1}).Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(GTravelTest, RepeatedVIsRejected) {
  auto plan = GTravel(&cat_).v({1}).v({2}).Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(GTravelTest, EaBeforeAnyEIsRejected) {
  auto plan = GTravel(&cat_).v({1}).ea("ts", FilterOp::kEq, {PropValue(int64_t{1})}).Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(GTravelTest, FilterArityIsValidated) {
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").va("k", FilterOp::kEq, {}).Build().ok());
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .e("x")
                   .va("k", FilterOp::kRange, {PropValue(int64_t{1})})
                   .Build()
                   .ok());
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").va("k", FilterOp::kIn, {}).Build().ok());
  EXPECT_TRUE(GTravel(&cat_)
                  .v({1})
                  .e("x")
                  .va("k", FilterOp::kIn, {PropValue(int64_t{1})})
                  .Build()
                  .ok());
}

TEST_F(GTravelTest, UnanchoredScanNeedsTypeFilter) {
  EXPECT_FALSE(GTravel(&cat_).v().e("run").Build().ok());
  EXPECT_TRUE(GTravel(&cat_)
                  .v()
                  .va("type", FilterOp::kEq, {PropValue("User")})
                  .e("run")
                  .Build()
                  .ok());
}

TEST_F(GTravelTest, ZeroHopTraversalWithIdsAllowed) {
  auto plan = GTravel(&cat_).v({1, 2, 3}).Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_steps(), 0u);
}

// --- Plan serialization ---------------------------------------------------------

TEST_F(GTravelTest, PlanSerializationRoundTrip) {
  auto plan = GTravel(&cat_)
                  .v({5, 6})
                  .e("run")
                  .ea("ts", FilterOp::kRange, {PropValue(int64_t{1}), PropValue(int64_t{2})})
                  .rtn()
                  .e("read")
                  .va("name", FilterOp::kIn, {PropValue("a"), PropValue("b")})
                  .e("write")
                  .rtn()
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto decoded = TraversalPlan::Decode(plan->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == *plan);
}

TEST(PlanTest, DecodeRejectsTruncatedInput) {
  Catalog cat;
  auto plan = GTravel(&cat).v({1}).e("run").Build();
  ASSERT_TRUE(plan.ok());
  const std::string bytes = plan->Encode();
  for (size_t cut = 0; cut < bytes.size(); cut++) {
    EXPECT_FALSE(TraversalPlan::Decode(std::string_view(bytes).substr(0, cut)).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(TraversalPlan::Decode(bytes + "trailing").ok());
}

// --- Reference evaluator ----------------------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  // Builds:  u1 -run-> j1 -spawn-> e1 -read-> f1
  //          u1 -run-> j2 -spawn-> e2 -read-> f2 (f2 fails filter)
  //          e1 also -read-> f2
  void BuildGraph() {
    user_t_ = cat_.Intern("User");
    job_t_ = cat_.Intern("Job");
    exec_t_ = cat_.Intern("Execution");
    file_t_ = cat_.Intern("File");
    run_ = cat_.Intern("run");
    spawn_ = cat_.Intern("spawn");
    read_ = cat_.Intern("read");
    name_ = cat_.Intern("name");

    AddVertex(1, user_t_);
    AddVertex(10, job_t_);
    AddVertex(11, job_t_);
    AddVertex(20, exec_t_);
    AddVertex(21, exec_t_);
    AddVertexWithName(30, file_t_, "keep.txt");
    AddVertexWithName(31, file_t_, "drop.dat");

    AddEdge(1, run_, 10, 100);
    AddEdge(1, run_, 11, 200);
    AddEdge(10, spawn_, 20, 0);
    AddEdge(11, spawn_, 21, 0);
    AddEdge(20, read_, 30, 0);
    AddEdge(20, read_, 31, 0);
    AddEdge(21, read_, 31, 0);
  }

  void AddVertex(VertexId id, graph::LabelId label) {
    VertexRecord v;
    v.id = id;
    v.label = label;
    g_.AddVertex(v);
  }
  void AddVertexWithName(VertexId id, graph::LabelId label, const std::string& name) {
    VertexRecord v;
    v.id = id;
    v.label = label;
    v.props.Set(name_, PropValue(name));
    g_.AddVertex(v);
  }
  void AddEdge(VertexId src, graph::LabelId label, VertexId dst, int64_t ts) {
    EdgeRecord e;
    e.src = src;
    e.label = label;
    e.dst = dst;
    if (ts != 0) e.props.Set(cat_.Intern("ts"), PropValue(ts));
    g_.AddEdge(e);
  }

  Catalog cat_;
  RefGraph g_;
  graph::LabelId user_t_, job_t_, exec_t_, file_t_;
  Catalog::Id run_, spawn_, read_, name_;
};

TEST_F(EvaluatorTest, PlainTraversalReturnsFinalWorkingSet) {
  BuildGraph();
  auto plan = GTravel(&cat_).v({1}).e("run").e("spawn").e("read").Build();
  ASSERT_TRUE(plan.ok());
  auto result = EvaluatePlanOnRefGraph(*plan, g_, cat_);
  EXPECT_EQ(result, (std::vector<VertexId>{30, 31}));
}

TEST_F(EvaluatorTest, EdgeFilterPrunesBranch) {
  BuildGraph();
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("run")
                  .ea("ts", FilterOp::kRange, {PropValue(int64_t{50}), PropValue(int64_t{150})})
                  .e("spawn")
                  .e("read")
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = EvaluatePlanOnRefGraph(*plan, g_, cat_);
  EXPECT_EQ(result, (std::vector<VertexId>{30, 31}));  // only job 10's branch
}

TEST_F(EvaluatorTest, VertexFilterOnFinalStep) {
  BuildGraph();
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("run")
                  .e("spawn")
                  .e("read")
                  .va("name", FilterOp::kEq, {PropValue("keep.txt")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_), (std::vector<VertexId>{30}));
}

TEST_F(EvaluatorTest, IntermediateRtnReturnsOnlyVerticesWithFullPaths) {
  BuildGraph();
  // rtn the executions, but require the final files to be keep.txt: only
  // execution 20 reads it.
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("run")
                  .e("spawn")
                  .rtn()
                  .e("read")
                  .va("name", FilterOp::kEq, {PropValue("keep.txt")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_), (std::vector<VertexId>{20}));
}

TEST_F(EvaluatorTest, SourceRtnWithTypeScan) {
  BuildGraph();
  auto plan = GTravel(&cat_)
                  .v()
                  .va("type", FilterOp::kEq, {PropValue("Execution")})
                  .rtn()
                  .e("read")
                  .va("name", FilterOp::kEq, {PropValue("drop.dat")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  // Both executions read drop.dat.
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_), (std::vector<VertexId>{20, 21}));
}

TEST_F(EvaluatorTest, MultipleRtnStepsUnionResults) {
  BuildGraph();
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("run")
                  .rtn()
                  .e("spawn")
                  .e("read")
                  .rtn()
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_),
            (std::vector<VertexId>{10, 11, 30, 31}));
}

TEST_F(EvaluatorTest, DeadEndYieldsEmptyResult) {
  BuildGraph();
  auto plan = GTravel(&cat_).v({1}).e("read").Build();  // users have no read edges
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(EvaluatePlanOnRefGraph(*plan, g_, cat_).empty());
}

TEST_F(EvaluatorTest, RevisitAcrossStepsIsAllowed) {
  // Cycle: a -next-> b -next-> a -next-> b; the same vertex may be visited
  // at different steps (paper Section II-C pattern 2).
  const auto t = cat_.Intern("Node");
  const auto next = cat_.Intern("next");
  AddVertex(1, t);
  AddVertex(2, t);
  AddEdge(1, next, 2, 0);
  AddEdge(2, next, 1, 0);
  auto plan = GTravel(&cat_).v({1}).e("next").e("next").e("next").Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_), (std::vector<VertexId>{2}));
}

TEST_F(EvaluatorTest, ZeroHopPlanReturnsFilteredStartSet) {
  BuildGraph();
  auto plan = GTravel(&cat_).v({1, 10, 999}).Build();
  ASSERT_TRUE(plan.ok());
  // 999 does not exist; 1 and 10 pass (no filters).
  EXPECT_EQ(EvaluatePlanOnRefGraph(*plan, g_, cat_), (std::vector<VertexId>{1, 10}));
}

// --- Language extensions: builder + validation -----------------------------------

TEST_F(GTravelTest, RepeatExpandsIntoHopCopies) {
  auto plan = GTravel(&cat_).v({1}).e("next").repeat(3).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->hops.size(), 1u);  // compact wire form keeps one hop
  EXPECT_EQ(plan->hops[0].repeat, 3u);
  EXPECT_EQ(plan->num_steps(), 1u);
  EXPECT_EQ(plan->expanded_num_steps(), 3u);

  auto unrolled = plan->Unrolled();
  ASSERT_TRUE(unrolled.ok());
  ASSERT_EQ(unrolled->hops.size(), 3u);
  for (const auto& h : unrolled->hops) {
    EXPECT_EQ(h.edge_label, cat_.Lookup("next"));
    EXPECT_EQ(h.repeat, 1u);
  }
}

TEST_F(GTravelTest, UnrolledPutsRtnOnLastCopyAndUntilOnEveryCopy) {
  auto with_rtn = GTravel(&cat_).v({1}).e("next").repeat(3).rtn().Build();
  ASSERT_TRUE(with_rtn.ok());
  auto u = with_rtn->Unrolled();
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->hops.size(), 3u);
  EXPECT_FALSE(u->hops[0].rtn);
  EXPECT_FALSE(u->hops[1].rtn);
  EXPECT_TRUE(u->hops[2].rtn);

  auto with_until = GTravel(&cat_)
                        .v({1})
                        .e("next")
                        .repeat(3)
                        .until("w", FilterOp::kEq, {PropValue(int64_t{5})})
                        .Build();
  ASSERT_TRUE(with_until.ok());
  u = with_until->Unrolled();
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->hops.size(), 3u);
  // until() checks fire at every iteration boundary of the loop.
  for (const auto& h : u->hops) EXPECT_EQ(h.until_filters.size(), 1u);
  EXPECT_TRUE(u->has_until());
}

TEST_F(GTravelTest, RepeatValidation) {
  EXPECT_FALSE(GTravel(&cat_).v({1}).repeat(2).Build().ok());  // repeat before e()
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").repeat(0).Build().ok());
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").repeat(65).Build().ok());
  EXPECT_TRUE(GTravel(&cat_).v({1}).e("x").repeat(64).Build().ok());
}

TEST_F(GTravelTest, UntilMustTerminateTheChain) {
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .e("x")
                   .until("w", FilterOp::kEq, {PropValue(int64_t{1})})
                   .e("y")
                   .Build()
                   .ok());
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .e("x")
                   .rtn()
                   .until("w", FilterOp::kEq, {PropValue(int64_t{1})})
                   .Build()
                   .ok());  // until + rtn
  EXPECT_TRUE(GTravel(&cat_)
                  .v({1})
                  .e("x")
                  .until("w", FilterOp::kEq, {PropValue(int64_t{1})})
                  .Build()
                  .ok());
}

TEST_F(GTravelTest, TerminalsSetResultModeAndEndTheChain) {
  auto counted = GTravel(&cat_).v({1}).e("x").count().Build();
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->result_mode, ResultMode::kCount);

  auto grouped = GTravel(&cat_).v({1}).e("x").group("w").Build();
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->result_mode, ResultMode::kGroup);
  EXPECT_EQ(grouped->group_key, cat_.Lookup("w"));

  auto pathed = GTravel(&cat_).v({1}).e("x").path().Build();
  ASSERT_TRUE(pathed.ok());
  EXPECT_EQ(pathed->result_mode, ResultMode::kPaths);

  // Steps after a terminal are chain errors.
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").count().e("y").Build().ok());
  // group()/path() cannot compose with rtn().
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").rtn().group("w").Build().ok());
  EXPECT_FALSE(GTravel(&cat_).v({1}).e("x").rtn().path().Build().ok());
}

TEST_F(GTravelTest, PathPlansAreCappedAtEightExpandedSteps) {
  GTravel ok_travel(&cat_);
  ok_travel.v({1});
  for (int h = 0; h < 8; h++) ok_travel.e("x");
  EXPECT_TRUE(ok_travel.path().Build().ok());

  GTravel too_deep(&cat_);
  too_deep.v({1});
  for (int h = 0; h < 9; h++) too_deep.e("x");
  EXPECT_FALSE(too_deep.path().Build().ok());

  // repeat() counts expanded: 3 hops x repeat(3) = 9 > 8.
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .e("x")
                   .repeat(3)
                   .e("x")
                   .repeat(3)
                   .e("x")
                   .repeat(3)
                   .path()
                   .Build()
                   .ok());
}

TEST_F(GTravelTest, BranchBuildsAlternativesAndTail) {
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("run")
                  .branch({GTravel::Alt(&cat_).e("spawn"),
                           GTravel::Alt(&cat_).e("read").repeat(2)})
                  .e("write")
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->has_branch());
  ASSERT_EQ(plan->hops.size(), 1u);
  ASSERT_EQ(plan->branch_alts.size(), 2u);
  EXPECT_EQ(plan->branch_alts[0][0].edge_label, cat_.Lookup("spawn"));
  EXPECT_EQ(plan->branch_alts[1][0].repeat, 2u);
  ASSERT_EQ(plan->branch_tail.size(), 1u);
  EXPECT_EQ(plan->branch_tail[0].edge_label, cat_.Lookup("write"));

  // Unrolled() refuses branches (engines flatten first).
  EXPECT_FALSE(plan->Unrolled().ok());

  auto subs = plan->FlattenBranches();
  ASSERT_EQ(subs.size(), 2u);
  for (const auto& sub : subs) {
    EXPECT_FALSE(sub.has_branch());
    EXPECT_TRUE(sub.Validate().ok());
    EXPECT_EQ(sub.hops.front().edge_label, cat_.Lookup("run"));
    EXPECT_EQ(sub.hops.back().edge_label, cat_.Lookup("write"));
  }
  EXPECT_EQ(subs[0].hops.size(), 3u);  // run + spawn + write
  EXPECT_EQ(subs[1].hops.size(), 3u);  // run + read(repeat 2, compact) + write
  EXPECT_EQ(subs[1].hops[1].repeat, 2u);
}

TEST_F(GTravelTest, BranchValidation) {
  // Fewer than two alternatives defeats the point of a fork.
  EXPECT_FALSE(GTravel(&cat_).v({1}).branch({GTravel::Alt(&cat_).e("x")}).Build().ok());
  // rtn()/until() are not allowed inside an alternative.
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .branch({GTravel::Alt(&cat_).e("x").rtn(), GTravel::Alt(&cat_).e("y")})
                   .Build()
                   .ok());
  // At most one branch per traversal.
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .branch({GTravel::Alt(&cat_).e("x"), GTravel::Alt(&cat_).e("y")})
                   .branch({GTravel::Alt(&cat_).e("x"), GTravel::Alt(&cat_).e("y")})
                   .Build()
                   .ok());
  // until() may not follow a branch merge.
  EXPECT_FALSE(GTravel(&cat_)
                   .v({1})
                   .branch({GTravel::Alt(&cat_).e("x"), GTravel::Alt(&cat_).e("y")})
                   .e("x")
                   .until("w", FilterOp::kEq, {PropValue(int64_t{1})})
                   .Build()
                   .ok());
  // FlattenBranches of a branch-free plan is the identity.
  auto flat = GTravel(&cat_).v({1}).e("x").Build();
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->FlattenBranches().size(), 1u);
}

TEST_F(GTravelTest, ExtendedPlanSerializationRoundTrip) {
  auto plan = GTravel(&cat_)
                  .v()
                  .va("type", FilterOp::kEq, {PropValue("User")})
                  .va("w", FilterOp::kRange, {PropValue(int64_t{1}), PropValue(int64_t{9})})
                  .e("run")
                  .repeat(4)
                  .branch({GTravel::Alt(&cat_).e("spawn").repeat(2),
                           GTravel::Alt(&cat_).e("read")})
                  .e("write")
                  .group("w")
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->has_ext());

  auto decoded = TraversalPlan::Decode(plan->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == *plan);
  EXPECT_EQ(decoded->Encode(), plan->Encode());

  auto until_plan = GTravel(&cat_)
                        .v({1})
                        .e("next")
                        .repeat(8)
                        .until("w", FilterOp::kEq, {PropValue(int64_t{5})})
                        .count()
                        .Build();
  ASSERT_TRUE(until_plan.ok());
  decoded = TraversalPlan::Decode(until_plan->Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == *until_plan);
}

// --- Language extensions: reference evaluator ------------------------------------

TEST_F(EvaluatorTest, RepeatMatchesManualUnroll) {
  const auto t = cat_.Intern("Node");
  const auto next = cat_.Intern("next");
  AddVertex(1, t);
  AddVertex(2, t);
  AddEdge(1, next, 2, 0);
  AddEdge(2, next, 1, 0);
  auto repeated = GTravel(&cat_).v({1}).e("next").repeat(3).Build();
  auto manual = GTravel(&cat_).v({1}).e("next").e("next").e("next").Build();
  ASSERT_TRUE(repeated.ok());
  ASSERT_TRUE(manual.ok());
  EXPECT_EQ(EvaluatePlanExtOnRefGraph(*repeated, g_, cat_).vids,
            EvaluatePlanOnRefGraph(*manual, g_, cat_));
}

TEST_F(EvaluatorTest, UntilHitsAreTerminalResults) {
  // Chain 1 -> 2 -> 3 -> 4 with w = id; until(w==2) stops the loop at
  // vertex 2 — vertices 3 and 4 are never reached.
  const auto t = cat_.Intern("Node");
  const auto next = cat_.Intern("next");
  const auto w = cat_.Intern("w");
  for (VertexId v = 1; v <= 4; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    rec.props.Set(w, PropValue(static_cast<int64_t>(v)));
    g_.AddVertex(rec);
    if (v > 1) AddEdge(v - 1, next, v, 0);
  }
  auto plan = GTravel(&cat_)
                  .v({1})
                  .e("next")
                  .repeat(3)
                  .until("w", FilterOp::kEq, {PropValue(int64_t{2})})
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanExtOnRefGraph(*plan, g_, cat_).vids, (std::vector<VertexId>{2}));

  // A never-matching until yields nothing (final-step survivors are not
  // results in until plans).
  auto miss = GTravel(&cat_)
                  .v({1})
                  .e("next")
                  .repeat(3)
                  .until("w", FilterOp::kEq, {PropValue(int64_t{99})})
                  .Build();
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(EvaluatePlanExtOnRefGraph(*miss, g_, cat_).vids.empty());
}

TEST_F(EvaluatorTest, CountReturnsCardinality) {
  BuildGraph();
  auto plan = GTravel(&cat_).v({1}).e("run").count().Build();
  ASSERT_TRUE(plan.ok());
  const RefEvalResult r = EvaluatePlanExtOnRefGraph(*plan, g_, cat_);
  EXPECT_EQ(r.count, 2u);
}

TEST_F(EvaluatorTest, GroupBucketsByPropertyAndTypePseudoProperty) {
  BuildGraph();
  auto by_type = GTravel(&cat_).v({1}).e("run").e("spawn").group("type").Build();
  ASSERT_TRUE(by_type.ok());
  const RefEvalResult r = EvaluatePlanExtOnRefGraph(*by_type, g_, cat_);
  // Both executions land in one bucket keyed the way the engines render it.
  VertexRecord probe;
  probe.id = 20;
  probe.label = exec_t_;
  const std::string key =
      GroupValueForVertex(probe, cat_.Lookup("type"), cat_, cat_.Lookup("type"));
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups.at(key), 2u);
}

TEST_F(EvaluatorTest, PathReturnsVisitedChains) {
  BuildGraph();
  auto plan = GTravel(&cat_).v({1}).e("run").e("spawn").path().Build();
  ASSERT_TRUE(plan.ok());
  const RefEvalResult r = EvaluatePlanExtOnRefGraph(*plan, g_, cat_);
  EXPECT_EQ(r.paths, (std::vector<std::vector<VertexId>>{{1, 10, 20}, {1, 11, 21}}));
}

TEST_F(EvaluatorTest, BranchUnionsAlternatives) {
  BuildGraph();
  auto plan = GTravel(&cat_)
                  .v({1})
                  .branch({GTravel::Alt(&cat_).e("run"),
                           GTravel::Alt(&cat_).e("run").e("spawn")})
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EvaluatePlanExtOnRefGraph(*plan, g_, cat_).vids,
            (std::vector<VertexId>{10, 11, 20, 21}));

  // A tail after the merge runs on the union.
  auto tailed = GTravel(&cat_)
                    .v({1})
                    .branch({GTravel::Alt(&cat_).e("run"),
                             GTravel::Alt(&cat_).e("run")})
                    .e("spawn")
                    .Build();
  ASSERT_TRUE(tailed.ok());
  EXPECT_EQ(EvaluatePlanExtOnRefGraph(*tailed, g_, cat_).vids,
            (std::vector<VertexId>{20, 21}));
}

}  // namespace
}  // namespace gt::lang
