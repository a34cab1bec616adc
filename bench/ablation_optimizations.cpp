// Ablation: the GraphTrek optimizations, one at a time (DESIGN.md items 1-2).
// 8-step RMAT-1 traversal on 16 servers:
//   - full GraphTrek (cache + merge + smallest-step-first)
//   - merging off
//   - priority scheduling off (FIFO)
//   - both off (cache only)
//   - Async-GT (classifies against the memo, but its redundant arrivals
//     still pay their read)
//   - Sync-GT
// and the I/O path with the adjacency cache on and off. The memo has no
// capacity to sweep: each travel's memo lives and dies with the travel.
#include "bench/bench_util.h"

using namespace gt;
using namespace gt::bench;

namespace {

double RunConfigured(const graph::RefGraph& g, graph::Catalog* catalog,
                     const lang::TraversalPlan& plan, const BenchConfig& cfg,
                     uint32_t servers, bool merging, bool priority, engine::EngineMode mode,
                     size_t adjacency_cache_bytes = 16 << 20) {
  engine::ClusterConfig ccfg;
  ccfg.num_servers = servers;
  ccfg.workers_per_server = cfg.workers_per_server;
  ccfg.device.access_latency_us = cfg.access_latency_us;
  ccfg.device.per_kib_us = cfg.per_kib_us;
  ccfg.net.latency_us = cfg.net_latency_us;
  ccfg.exec_timeout_ms = 600000;
  ccfg.graphtrek_merging = merging;
  ccfg.graphtrek_priority_sched = priority;
  ccfg.adjacency_cache_bytes = adjacency_cache_bytes;
  auto cluster = engine::Cluster::Create(ccfg);
  if (!cluster.ok()) std::abort();
  (*cluster)->catalog()->CopyFrom(*catalog);
  if (!(*cluster)->Load(g).ok()) std::abort();
  auto result = (*cluster)->Run(plan, mode);
  if (!result.ok()) std::abort();
  return result->elapsed_ms;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Ablation: GraphTrek optimizations, 8-step RMAT-1, 16 servers",
              "traversal-affiliate cache / execution merging / priority scheduling");

  BenchConfig cfg;
  ParseBenchArgs(argc, argv, &cfg);
  graph::Catalog catalog;
  graph::RefGraph g = BuildRmat1(&catalog, cfg);
  const auto plan = HopPlan(&catalog, kBenchSource, 8);
  const uint32_t servers = ServersOrSmoke(16);

  struct Variant {
    const char* name;
    bool merging, priority;
    engine::EngineMode mode;
  };
  const Variant variants[] = {
      {"GraphTrek (full)", true, true, engine::EngineMode::kGraphTrek},
      {"  - merging off", false, true, engine::EngineMode::kGraphTrek},
      {"  - sched FIFO", true, false, engine::EngineMode::kGraphTrek},
      {"  - merge+sched off", false, false, engine::EngineMode::kGraphTrek},
      {"Async-GT (no opts)", true, true, engine::EngineMode::kAsyncPlain},
      {"Sync-GT", true, true, engine::EngineMode::kSync},
  };
  std::printf("%-22s %12s\n", "variant", "elapsed");
  for (const auto& v : variants) {
    const double ms =
        RunConfigured(g, &catalog, plan, cfg, servers, v.merging, v.priority, v.mode);
    std::printf("%-22s %9.1f ms\n", v.name, ms);
    std::fflush(stdout);
  }

  // I/O-path ablation (DESIGN.md "Adjacency cache & frontier I/O"): the
  // CSR adjacency cache is orthogonal to the scheduling knobs above, and
  // the traversal semantics stay bit-identical with it off.
  std::printf("\nI/O-path ablation (GraphTrek, merge+priority on):\n");
  struct IoVariant {
    const char* name;
    size_t adjacency_cache_bytes;
  };
  const IoVariant io_variants[] = {
      {"full I/O path", size_t{16} << 20},
      {"  - adj cache off", 0},
  };
  std::printf("%-26s %12s\n", "variant", "elapsed");
  for (const auto& v : io_variants) {
    const double ms =
        RunConfigured(g, &catalog, plan, cfg, servers, true, true,
                      engine::EngineMode::kGraphTrek, v.adjacency_cache_bytes);
    std::printf("%-26s %9.1f ms\n", v.name, ms);
    std::fflush(stdout);
  }
  return 0;
}
