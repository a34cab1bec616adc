// Cluster: assembles N backend servers (each with its own GraphStore and
// embedded KV database), the shared transport, catalog and partitioner into
// a runnable GraphTrek deployment inside one process. Benches and tests use
// this to stand up 2-32 "backend servers" the way the paper's evaluation
// deploys nodes on the Fusion cluster.
#pragma once

#include <array>
#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/device_model.h"
#include "src/engine/backend_server.h"
#include "src/engine/client.h"
#include "src/engine/straggler.h"
#include "src/graph/ingest.h"
#include "src/graph/ref_graph.h"
#include "src/rpc/fault_transport.h"
#include "src/rpc/inproc_transport.h"

namespace gt::engine {

struct ClusterConfig {
  uint32_t num_servers = 4;
  uint32_t workers_per_server = 2;
  uint32_t exec_timeout_ms = 15000;
  uint32_t maintenance_interval_ms = 5;

  // Admission control at each coordinator (see ServerConfig). 0 = unlimited.
  uint32_t max_inflight_travels = 4096;
  std::array<uint32_t, kNumTravelClasses> admission_limits{{64, 512, 2048}};

  // Ablation knobs for the GraphTrek optimizations (see DESIGN.md).
  bool graphtrek_merging = true;
  bool graphtrek_priority_sched = true;

  // CSR adjacency cache per server (see DESIGN.md "Adjacency cache &
  // frontier I/O"); 0 disables it.
  size_t adjacency_cache_bytes = 16 << 20;

  // Test hook: servers retain each travel's pinned snapshot past cleanup
  // so DumpAtTravelPin can reconstruct the exact view the travel saw.
  bool retain_snapshots_for_test = false;

  // Empty: a fresh directory under the system temp dir, removed on Stop.
  std::string data_dir;

  // Simulated device cost per vertex access (cold-start disk behaviour).
  DeviceModelConfig device;

  // Simulated network fabric.
  rpc::InProcConfig net;

  // When true, the cluster's transport is wrapped in a seeded
  // FaultInjectingTransport; configure link faults via fault_transport().
  bool net_faults = false;
  uint64_t net_fault_seed = 42;

  // KV engine knobs (block cache etc.); `device` above is charged at the
  // GraphStore access level, not per KV block.
  kv::DBOptions db;
};

class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> Create(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  uint32_t num_servers() const { return cfg_.num_servers; }
  graph::Catalog* catalog() { return &catalog_; }
  const graph::Partitioner* partitioner() const { return partitioner_.get(); }
  // The transport every server/client endpoint is registered on: the fault
  // decorator when net_faults is set, the raw in-process fabric otherwise.
  rpc::Transport* transport() {
    if (fault_transport_) return fault_transport_.get();
    return transport_.get();
  }
  rpc::InProcTransport* inproc_transport() { return transport_.get(); }
  // Null unless ClusterConfig::net_faults was set.
  rpc::FaultInjectingTransport* fault_transport() { return fault_transport_.get(); }
  BackendServer* server(uint32_t i) { return servers_[i].get(); }
  graph::GraphStore* store(uint32_t i) { return stores_[i].get(); }
  DeviceModel* device(uint32_t i) { return devices_[i].get(); }
  StragglerInjector* straggler() { return &straggler_; }

  // Bulk-loads a staged in-memory graph across the shards.
  Status Load(const graph::RefGraph& graph);

  // Creates a client endpoint (caller owns it; must not outlive the cluster).
  std::unique_ptr<GraphTrekClient> NewClient();

  // Convenience: build + run one traversal.
  Result<TraversalResult> Run(const lang::TraversalPlan& plan, EngineMode mode,
                              ServerId coordinator = 0);

  // Clears engine statistics on every server (between bench iterations).
  void ResetStats();

  // Dumps the whole distributed graph (all shards) into the staging
  // RefGraph form — the inverse of Load(); pair with graph::ExportText.
  Result<graph::RefGraph> Dump();

  // Dumps the composite view `travel` was pinned to: each shard contributes
  // its vertices/edges as seen through that server's pinned snapshot for
  // the travel (its live state when the server holds no pin: a server the
  // travel never touched). With
  // retain_snapshots_for_test set this works after the travel completes;
  // the result is exactly the graph the distributed engines read, so it is
  // the oracle input for the mutate-while-traversing differential leg.
  Result<graph::RefGraph> DumpAtTravelPin(TravelId travel);

  // Drains every server's test-retained snapshots (releases the KV pins).
  void DropRetainedSnapshotsForTest();

  // Writes the process metrics registry (Prometheus text exposition — kv,
  // rpc, engine and travel families) plus the cluster's device-model
  // figures to `out` (ops tooling).
  void DumpMetrics(std::ostream* out);

  // Renders an archived travel (0 = most recent across all coordinators)
  // as Chrome trace-event JSON. False when no coordinator archived it.
  bool ExportTraceJson(TravelId travel, std::string* json);

  void Stop();

 private:
  explicit Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {}

  ClusterConfig cfg_;
  bool own_dir_ = false;
  graph::Catalog catalog_;
  std::unique_ptr<graph::Partitioner> partitioner_;
  std::unique_ptr<rpc::InProcTransport> transport_;
  std::unique_ptr<rpc::FaultInjectingTransport> fault_transport_;
  std::vector<std::unique_ptr<DeviceModel>> devices_;
  std::vector<std::unique_ptr<graph::GraphStore>> stores_;
  std::vector<std::unique_ptr<BackendServer>> servers_;
  StragglerInjector straggler_;
  // Atomic: tests/benches create clients from several threads at once.
  std::atomic<uint32_t> next_client_{0};
  bool stopped_ = false;
};

}  // namespace gt::engine
