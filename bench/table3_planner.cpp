// Table III-style Darshan audit queries under the statistics-driven planner
// (which every coordinator runs on every travel): the suspicious-user
// audits rewritten with the extended GTravel steps
// (count/group/path/branch/until) and run on one cluster with all three
// engines. The planner's rewrites (selectivity-ordered filter lists and
// type-scan predicate pushdown) are result-identical by construction, so
// the bench doubles as a correctness gate: every engine's answer must equal
// the reference evaluator's, or the run fails.
//
// Reported per query and engine: ms per query (mean of BenchConfig::runs
// repetitions after one untimed checked run). The filter-heavy scan-start
// queries are where pushdown reads the candidate records in one sequential
// run instead of a random point read per root execution. Persists
// BENCH_19.json.
//
//   table3_planner [--smoke] [--json FILE]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/darshan.h"
#include "src/lang/gtravel.h"

namespace gt::bench {
namespace {

struct QueryCase {
  std::string name;
  lang::TraversalPlan plan;
};

lang::TraversalPlan MustBuild(Result<lang::TraversalPlan> plan, const char* what) {
  if (!plan.ok()) {
    std::fprintf(stderr, "table3_planner: %s: %s\n", what,
                 plan.status().ToString().c_str());
    std::abort();
  }
  return *plan;
}

// The audit workload: each query leans on one of the new language steps,
// and the first two are filter-heavy enough for the planner to matter.
std::vector<QueryCase> BuildQueries(graph::Catalog* catalog,
                                    const gen::DarshanGenerator& generator) {
  const gen::DarshanConfig& dcfg = generator.config();
  std::vector<QueryCase> queries;

  // Filter-heavy scan start: "how many executions read a large file?"
  // The planner pushes the size predicate into the type-index scan, so only
  // matching files become root execs; unpushed, every File vertex would
  // root an exec and pay a random read to be filtered at processing time.
  queries.push_back(
      {"big_files_readby_count",
       MustBuild(lang::GTravel(catalog)
                     .v()
                     .va("type", lang::FilterOp::kEq, {graph::PropValue("File")})
                     .va("size", lang::FilterOp::kRange,
                         {graph::PropValue(int64_t{3} << 28),
                          graph::PropValue(int64_t{1} << 30)})
                     .e("readBy")
                     .count()
                     .Build(),
                 "big_files_readby_count")});

  // Filter-heavy scan start over jobs in a narrow time window, with an
  // until() terminal picking out one execution shape.
  const int64_t window = (dcfg.ts_end - dcfg.ts_begin) / 8;
  queries.push_back(
      {"job_window_until_count",
       MustBuild(lang::GTravel(catalog)
                     .v()
                     .va("type", lang::FilterOp::kEq, {graph::PropValue("Job")})
                     .va("ts", lang::FilterOp::kRange,
                         {graph::PropValue(dcfg.ts_begin),
                          graph::PropValue(dcfg.ts_begin + window)})
                     .e("hasExecutions")
                     .until("params", lang::FilterOp::kEq,
                            {graph::PropValue("-n 8")})
                     .count()
                     .Build(),
                 "job_window_until_count")});

  // The classic 5-hop suspicious-user audit, returning the full visited
  // chains instead of just the final frontier.
  queries.push_back(
      {"suspicious_user_paths",
       MustBuild(lang::GTravel(catalog)
                     .v({generator.UserVid(7)})
                     .e("run")
                     .ea("ts", lang::FilterOp::kRange,
                         {graph::PropValue(dcfg.ts_begin),
                          graph::PropValue(dcfg.ts_end)})
                     .e("hasExecutions")
                     .e("write")
                     .e("readBy")
                     .e("write")
                     .path()
                     .Build(),
                 "suspicious_user_paths")});

  // Branch across two audit depths from one user, grouped by vertex type:
  // one result mode exercise for the fork/merge + aggregation machinery.
  queries.push_back(
      {"user_reach_branch_group",
       MustBuild(lang::GTravel(catalog)
                     .v({generator.UserVid(3)})
                     .branch({lang::GTravel::Alt(catalog).e("run"),
                              lang::GTravel::Alt(catalog).e("run").e("hasExecutions")})
                     .group("type")
                     .Build(),
                 "user_reach_branch_group")});
  return queries;
}

bool MatchesOracle(const lang::TraversalPlan& plan, const engine::TraversalResult& r,
                   const lang::RefEvalResult& oracle) {
  switch (plan.result_mode) {
    case lang::ResultMode::kCount:
      return r.count == oracle.count;
    case lang::ResultMode::kGroup:
      return r.groups == oracle.groups;
    case lang::ResultMode::kPaths:
      return r.paths == oracle.paths;
    case lang::ResultMode::kVertices:
      return r.vids == oracle.vids;
  }
  return false;
}

}  // namespace
}  // namespace gt::bench

int main(int argc, char** argv) {
  using namespace gt;
  using namespace gt::bench;

  // Peel off --json before the shared parser (it rejects unknown flags).
  std::string json_path = "BENCH_19.json";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  BenchConfig cfg;
  ParseBenchArgs(static_cast<int>(rest.size()), rest.data(), &cfg);

  PrintHeader("table3_planner: Darshan audit queries under the planner",
              "extended-GTravel audits (count/until/path/branch+group) on all "
              "three engines; every answer must equal the reference evaluator's");

  graph::Catalog catalog;
  gen::DarshanConfig dcfg;
  dcfg.users = g_smoke ? 12 : 96;
  dcfg.jobs_per_user_max = g_smoke ? 8 : 48;
  dcfg.execs_per_job_max = g_smoke ? 4 : 12;
  dcfg.files = g_smoke ? 512 : 8192;
  dcfg.seed = 2013;
  gen::DarshanGenerator generator(dcfg);
  graph::RefGraph g = generator.Build(&catalog);
  std::printf("graph: %zu vertices, %zu edges\n\n", g.num_vertices(), g.num_edges());

  const uint32_t servers = ServersOrSmoke(8);
  BenchCluster cluster(servers, cfg, &catalog, g);

  const std::vector<QueryCase> queries = BuildQueries(&catalog, generator);
  constexpr engine::EngineMode kModes[] = {engine::EngineMode::kSync,
                                           engine::EngineMode::kAsyncPlain,
                                           engine::EngineMode::kGraphTrek};

  struct Row {
    std::string query;
    const char* engine;
    double ms;
    bool match;
  };
  std::vector<Row> rows;
  bool all_match = true;

  std::printf("%-26s %-10s %12s\n", "query", "engine", "ms/query");
  for (const QueryCase& q : queries) {
    const lang::RefEvalResult oracle = lang::EvaluatePlanExtOnRefGraph(q.plan, g, catalog);
    for (engine::EngineMode mode : kModes) {
      // One untimed run for the oracle gate (and cache warmup), then the
      // timed repetitions.
      auto result = cluster.get()->Run(q.plan, mode);
      if (!result.ok()) {
        std::fprintf(stderr, "table3_planner: %s on %s failed: %s\n", q.name.c_str(),
                     engine::EngineModeName(mode), result.status().ToString().c_str());
        return 1;
      }
      const bool match = MatchesOracle(q.plan, *result, oracle);
      if (!match) {
        std::fprintf(stderr,
                     "table3_planner: RESULT DIVERGENCE on %s (%s): engine and "
                     "reference evaluator disagree\n",
                     q.name.c_str(), engine::EngineModeName(mode));
        all_match = false;
      }
      const double ms = cluster.RunAveraged(q.plan, mode, cfg.runs);
      std::printf("%-26s %-10s %9.1f ms%s\n", q.name.c_str(), engine::EngineModeName(mode),
                  ms, match ? "" : "  MISMATCH");
      std::fflush(stdout);
      rows.push_back({q.name, engine::EngineModeName(mode), ms, match});
    }
  }
  std::printf("\n");
  PrintRpcStats(3);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"table3_planner\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"servers\": %u,\n"
                 "  \"all_match\": %s,\n"
                 "  \"rows\": [\n",
                 g_smoke ? "true" : "false", servers, all_match ? "true" : "false");
    for (size_t i = 0; i < rows.size(); i++) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"query\": \"%s\", \"engine\": \"%s\", \"ms\": %.3f, "
                   "\"match\": %s}%s\n",
                   r.query.c_str(), r.engine, r.ms, r.match ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "table3_planner: cannot write %s\n", json_path.c_str());
    return 1;
  }

  // The smoke gate: every engine agrees with the reference evaluator.
  if (!all_match) {
    std::fprintf(stderr, "table3_planner: oracle gate FAILED\n");
    return 1;
  }
  return 0;
}
