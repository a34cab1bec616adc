// Shared helpers for the paper-reproduction benches. Every bench binary in
// this directory regenerates one table or figure from the evaluation
// section; this header standardizes the workload (the "RMAT-1 bench graph"),
// the simulated device/network costs, and the run/timing plumbing.
//
// Scaling note: the paper runs 2^20 vertices on 2-32 physical nodes with
// real disks; this repo runs everything on one machine with a simulated
// per-access device cost, so the graph is scaled down (default 2^12
// vertices, out-degree 8). The claims under test are relative: engine
// orderings, scaling trends and crossovers, not absolute seconds.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/engine/cluster.h"
#include "src/gen/rmat.h"
#include "src/lang/gtravel.h"

namespace gt::bench {

struct BenchConfig {
  uint32_t rmat_scale = 11;       // 2^scale vertices
  uint32_t rmat_degree = 6;
  uint32_t attr_bytes = 64;
  uint32_t access_latency_us = 800;  // simulated device cost per cold access
  uint32_t warm_latency_us = 200;    // block-cache hit (re-read within a travel)
  uint32_t per_kib_us = 5;
  double tail_prob = 0.02;           // heavy-tail cold accesses (disk/GPFS tails)
  uint32_t tail_mult = 12;
  uint32_t net_latency_us = 20;      // simulated fabric latency
  uint32_t workers_per_server = 2;
  uint64_t seed = 20150901;
  uint32_t runs = 2;                 // timed repetitions averaged per cell

  // Wrap the cluster fabric in a FaultInjectingTransport (seeded); the bench
  // then configures per-link faults via cluster->fault_transport().
  bool net_faults = false;
  uint64_t net_fault_seed = 42;
};

// Set by ParseBenchArgs when the binary runs with --smoke: shrink the
// workload so every fig/table binary finishes in seconds. The ctest
// bench_smoke_* gates run every bench this way so the reproduction
// harness itself cannot silently rot.
inline bool g_smoke = false;

// Set by ParseBenchArgs when the binary runs with --cpu-only: device and
// network latency are 0, so elapsed time is engine cost alone, and benches
// that support it also report process CPU per travel.
inline bool g_cpu_only = false;

inline void ParseBenchArgs(int argc, char** argv, BenchConfig* cfg) {
  for (int i = 1; i < argc; i++) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      g_smoke = true;
      cfg->rmat_scale = 7;
      cfg->runs = 1;
      cfg->access_latency_us = 40;
      cfg->warm_latency_us = 10;
      cfg->per_kib_us = 0;
      cfg->tail_prob = 0.0;
      cfg->net_latency_us = 5;
    } else if (arg == "--cpu-only") {
      g_cpu_only = true;
    } else {
      std::fprintf(stderr,
                   "bench: unknown flag '%s' (supported: --smoke, --cpu-only)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (g_cpu_only) {  // whatever the flag order, after --smoke's settings
    cfg->access_latency_us = 0;
    cfg->warm_latency_us = 0;
    cfg->per_kib_us = 0;
    cfg->tail_prob = 0.0;
    cfg->net_latency_us = 0;
  }
}

// Process CPU time (user + system, every thread) in milliseconds.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// Sweep/size helpers honouring --smoke.
inline uint32_t ServersOrSmoke(uint32_t full) { return g_smoke ? 2u : full; }

inline std::vector<uint32_t> ServerSweep(std::vector<uint32_t> full) {
  if (g_smoke) return {2u};
  return full;
}

// Process-wide total of one counter family, read from the metrics registry
// (sums every label set plus collector-backed instances).
inline uint64_t MetricTotal(const std::string& name) {
  return static_cast<uint64_t>(metrics::Registry::Default()->Sum(name));
}

// Transport traffic report from the registry's gt_rpc_* families: one
// summary line plus the busiest links by messages sent. Replaces the
// transport's old hand-rolled stats formatter.
inline void PrintRpcStats(size_t top_n) {
  std::printf("  rpc: sent=%llu recv=%llu dropped=%llu reconnects=%llu "
              "send_failures=%llu\n",
              static_cast<unsigned long long>(MetricTotal("gt_rpc_messages_sent_total")),
              static_cast<unsigned long long>(MetricTotal("gt_rpc_messages_received_total")),
              static_cast<unsigned long long>(MetricTotal("gt_rpc_messages_dropped_total")),
              static_cast<unsigned long long>(MetricTotal("gt_rpc_reconnects_total")),
              static_cast<unsigned long long>(MetricTotal("gt_rpc_send_failures_total")));

  struct Link {
    double sent = 0;
    double bytes = 0;
    double delayed = 0;
  };
  std::map<std::pair<std::string, std::string>, Link> links;
  for (const auto& s : metrics::Registry::Default()->Collect("gt_rpc_link_")) {
    std::string src, dst;
    for (const auto& [k, v] : s.labels) {
      if (k == "src") src = v;
      if (k == "dst") dst = v;
    }
    Link& l = links[{src, dst}];
    if (s.name == "gt_rpc_link_messages_sent_total") l.sent += s.value;
    if (s.name == "gt_rpc_link_bytes_sent_total") l.bytes += s.value;
    if (s.name == "gt_rpc_link_delayed_total") l.delayed += s.value;
  }
  std::vector<std::pair<std::pair<std::string, std::string>, Link>> rows(
      links.begin(), links.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.sent > b.second.sent; });
  if (rows.size() > top_n) rows.resize(top_n);
  for (const auto& [key, l] : rows) {
    std::printf("  link %s->%s: sent=%.0f bytes=%.0f%s\n", key.first.c_str(),
                key.second.c_str(), l.sent, l.bytes,
                l.delayed > 0 ? (" delayed=" + std::to_string(static_cast<uint64_t>(
                                                   l.delayed)))
                                    .c_str()
                              : "");
  }
}

// Builds the RMAT-1-style bench graph once (shareable across clusters).
inline graph::RefGraph BuildRmat1(graph::Catalog* catalog, const BenchConfig& cfg) {
  gen::RmatConfig rcfg;
  rcfg.scale = cfg.rmat_scale;
  rcfg.avg_degree = cfg.rmat_degree;
  rcfg.attr_bytes = cfg.attr_bytes;
  rcfg.a = 0.45;
  rcfg.b = 0.15;
  rcfg.c = 0.15;
  rcfg.d = 0.25;
  rcfg.seed = cfg.seed;
  gen::RmatGenerator rmat(rcfg);
  return rmat.Build(catalog, "node", "link");
}

// Stands up a cluster with `servers` backends and loads `g` into it.
// The catalog must be the one the graph was generated against; label ids are
// re-interned identically because the cluster shares that catalog object via
// copy-through-Load (ids are already resolved inside the RefGraph).
class BenchCluster {
 public:
  BenchCluster(uint32_t servers, const BenchConfig& cfg, graph::Catalog* catalog,
               const graph::RefGraph& g) {
    engine::ClusterConfig ccfg;
    ccfg.num_servers = servers;
    ccfg.workers_per_server = cfg.workers_per_server;
    ccfg.device.access_latency_us = cfg.access_latency_us;
    ccfg.device.warm_latency_us = cfg.warm_latency_us;
    ccfg.device.per_kib_us = cfg.per_kib_us;
    ccfg.device.tail_prob = cfg.tail_prob;
    ccfg.device.tail_mult = cfg.tail_mult;
    ccfg.net.latency_us = cfg.net_latency_us;
    ccfg.net_faults = cfg.net_faults;
    ccfg.net_fault_seed = cfg.net_fault_seed;
    ccfg.exec_timeout_ms = 600000;  // benches must never trip failure detection
    auto cluster = engine::Cluster::Create(ccfg);
    if (!cluster.ok()) {
      std::fprintf(stderr, "bench: cluster create failed: %s\n",
                   cluster.status().ToString().c_str());
      std::abort();
    }
    cluster_ = std::move(*cluster);
    external_catalog_ = catalog;
    // The cluster's own catalog must agree with the ids baked into the
    // generated graph (deployments replicate this metadata to servers).
    cluster_->catalog()->CopyFrom(*catalog);
    if (auto s = cluster_->Load(g); !s.ok()) {
      std::fprintf(stderr, "bench: load failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }

  engine::Cluster* get() { return cluster_.get(); }
  graph::Catalog* catalog() { return external_catalog_; }

  // Runs and returns elapsed milliseconds (aborts on error).
  double Run(const lang::TraversalPlan& plan, engine::EngineMode mode) {
    auto result = cluster_->Run(plan, mode);
    if (!result.ok()) {
      std::fprintf(stderr, "bench: %s run failed: %s\n", engine::EngineModeName(mode),
                   result.status().ToString().c_str());
      std::abort();
    }
    return result->elapsed_ms;
  }

  // Mean of `runs` timed repetitions (tail latencies make single runs noisy).
  double RunAveraged(const lang::TraversalPlan& plan, engine::EngineMode mode,
                     uint32_t runs) {
    double total = 0;
    for (uint32_t i = 0; i < runs; i++) total += Run(plan, mode);
    return total / static_cast<double>(runs == 0 ? 1 : runs);
  }

 private:
  std::unique_ptr<engine::Cluster> cluster_;
  graph::Catalog* external_catalog_ = nullptr;
};

// N-hop plan over the RMAT "link" edges from one source vertex.
inline lang::TraversalPlan HopPlan(graph::Catalog* catalog, graph::VertexId source,
                                   uint32_t steps) {
  lang::GTravel travel(catalog);
  travel.v({source});
  for (uint32_t i = 0; i < steps; i++) travel.e("link");
  auto plan = travel.Build();
  if (!plan.ok()) {
    std::fprintf(stderr, "bench: plan build failed: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }
  return *plan;
}

// The same "randomly selected vertex" across benches: a low-id vertex, which
// on RMAT-1 parameters is well-connected.
constexpr graph::VertexId kBenchSource = 3;

inline void PrintHeader(const char* title, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

}  // namespace gt::bench
