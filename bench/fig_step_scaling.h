// Shared driver for Figures 8/9/10: N-step traversal on RMAT-1, Sync-GT vs
// GraphTrek across 2-32 servers.
#pragma once

#include "bench/bench_util.h"

namespace gt::bench {

inline int RunStepScalingFigure(int argc, char** argv, const char* title,
                                uint32_t steps, const char* paper_note) {
  PrintHeader(title, "elapsed ms, Sync-GT vs GraphTrek (scaled-down graph)");

  BenchConfig cfg;
  ParseBenchArgs(argc, argv, &cfg);
  graph::Catalog catalog;
  graph::RefGraph g = BuildRmat1(&catalog, cfg);
  const auto plan = HopPlan(&catalog, kBenchSource, steps);

  // --cpu-only adds each engine's process CPU per travel (all servers and
  // the client share this process).
  if (g_cpu_only) {
    std::printf("%-8s %12s %12s %12s %12s %10s\n", "servers", "Sync-GT", "Sync CPU",
                "GraphTrek", "GT CPU", "speedup");
  } else {
    std::printf("%-8s %12s %12s %10s\n", "servers", "Sync-GT", "GraphTrek", "speedup");
  }
  for (uint32_t servers : ServerSweep({2u, 4u, 8u, 16u, 32u})) {
    BenchCluster cluster(servers, cfg, &catalog, g);
    const double runs = std::max(cfg.runs, 1u);
    const double cpu0 = ProcessCpuMs();
    const double sync_ms = cluster.RunAveraged(plan, engine::EngineMode::kSync, cfg.runs);
    const double cpu1 = ProcessCpuMs();
    const double gt_ms = cluster.RunAveraged(plan, engine::EngineMode::kGraphTrek, cfg.runs);
    const double sync_cpu = (cpu1 - cpu0) / runs;
    const double gt_cpu = (ProcessCpuMs() - cpu1) / runs;
    if (g_cpu_only) {
      std::printf("%-8u %9.1f ms %9.1f ms %9.1f ms %9.1f ms %9.2fx\n", servers, sync_ms,
                  sync_cpu, gt_ms, gt_cpu, sync_ms / gt_ms);
    } else {
      std::printf("%-8u %9.1f ms %9.1f ms %9.2fx\n", servers, sync_ms, gt_ms,
                  sync_ms / gt_ms);
    }
    std::fflush(stdout);
  }
  std::printf("\npaper: %s\n", paper_note);
  return 0;
}

}  // namespace gt::bench
