#include "src/engine/cluster.h"

#include <cstdlib>
#include <ostream>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/kv/env.h"

namespace gt::engine {

Result<std::unique_ptr<Cluster>> Cluster::Create(ClusterConfig cfg) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(cfg)));
  ClusterConfig& c = cluster->cfg_;

  if (c.data_dir.empty()) {
    std::string tmpl = "/tmp/graphtrek-cluster-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      return Status::IOError("mkdtemp failed for cluster data dir");
    }
    c.data_dir = tmpl;
    cluster->own_dir_ = true;
  } else {
    GT_RETURN_IF_ERROR(kv::Env::Default()->CreateDirIfMissing(c.data_dir));
  }

  cluster->partitioner_ = std::make_unique<graph::HashPartitioner>(c.num_servers);
  cluster->transport_ = std::make_unique<rpc::InProcTransport>(c.net);
  if (c.net_faults) {
    cluster->fault_transport_ = std::make_unique<rpc::FaultInjectingTransport>(
        cluster->transport_.get(), c.net_fault_seed);
  }

  for (uint32_t i = 0; i < c.num_servers; i++) {
    cluster->devices_.push_back(std::make_unique<DeviceModel>(c.device));

    graph::GraphStoreOptions sopts;
    sopts.db = c.db;
    sopts.device = cluster->devices_.back().get();
    sopts.server_id = i;
    sopts.adjacency_cache_bytes = c.adjacency_cache_bytes;
    auto store =
        graph::GraphStore::Open(c.data_dir + "/s" + std::to_string(i), sopts);
    if (!store.ok()) return store.status();
    (*store)->SetInterceptor(&cluster->straggler_);
    cluster->stores_.push_back(std::move(*store));

    ServerConfig scfg;
    scfg.id = i;
    scfg.num_servers = c.num_servers;
    scfg.workers = c.workers_per_server;
    scfg.exec_timeout_ms = c.exec_timeout_ms;
    scfg.maintenance_interval_ms = c.maintenance_interval_ms;
    scfg.max_inflight_travels = c.max_inflight_travels;
    scfg.admission_limits = c.admission_limits;
    scfg.graphtrek_merging = c.graphtrek_merging;
    scfg.graphtrek_priority_sched = c.graphtrek_priority_sched;
    scfg.retain_snapshots_for_test = c.retain_snapshots_for_test;
    cluster->servers_.push_back(std::make_unique<BackendServer>(
        scfg, cluster->stores_.back().get(), cluster->partitioner_.get(),
        &cluster->catalog_, cluster->transport()));
  }
  for (auto& server : cluster->servers_) {
    GT_RETURN_IF_ERROR(server->Start());
  }
  return cluster;
}

Cluster::~Cluster() { Stop(); }

void Cluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& server : servers_) server->Stop();
  transport()->Shutdown();  // decorator (if any) shuts the inner fabric too
  servers_.clear();
  stores_.clear();
  if (own_dir_) {
    // Best effort: a scratch directory left behind costs disk, not results.
    const Status st = kv::Env::Default()->RemoveDirRecursive(cfg_.data_dir);
    if (!st.ok()) {
      GT_WARN << "cluster: removing " << cfg_.data_dir << ": " << st.ToString();
    }
  }
}

Status Cluster::Load(const graph::RefGraph& graph) {
  std::vector<graph::GraphStore*> raw;
  raw.reserve(stores_.size());
  for (auto& s : stores_) raw.push_back(s.get());
  graph::GraphLoader loader(partitioner_.get(), std::move(raw));
  return graph.LoadInto(&loader);
}

std::unique_ptr<GraphTrekClient> Cluster::NewClient() {
  return std::make_unique<GraphTrekClient>(
      transport(), rpc::kClientIdBase + next_client_.fetch_add(1), cfg_.num_servers);
}

Result<TraversalResult> Cluster::Run(const lang::TraversalPlan& plan, EngineMode mode,
                                     ServerId coordinator) {
  auto client = NewClient();
  RunOptions opts;
  opts.mode = mode;
  opts.coordinator = coordinator;
  return client->Run(plan, opts);
}

Result<graph::RefGraph> Cluster::Dump() {
  graph::RefGraph g;
  for (auto& store : stores_) {
    GT_RETURN_IF_ERROR(store->ScanAllVertices([&](const graph::VertexRecord& rec) {
      g.AddVertex(rec);
      return true;
    }));
    GT_RETURN_IF_ERROR(store->ScanEverythingEdges([&](const graph::EdgeRecord& rec) {
      g.AddEdge(rec);
      return true;
    }));
  }
  return g;
}

Result<graph::RefGraph> Cluster::DumpAtTravelPin(TravelId travel) {
  graph::RefGraph g;
  for (uint32_t i = 0; i < servers_.size(); i++) {
    // Holding the shared_ptr keeps the pin alive across both scans even if
    // the retention map is drained concurrently.
    auto snap = servers_[i]->TravelSnapshotForTest(travel);
    GT_RETURN_IF_ERROR(stores_[i]->ScanAllVertices(
        [&](const graph::VertexRecord& rec) {
          g.AddVertex(rec);
          return true;
        },
        snap.get()));
    GT_RETURN_IF_ERROR(stores_[i]->ScanEverythingEdges(
        [&](const graph::EdgeRecord& rec) {
          g.AddEdge(rec);
          return true;
        },
        snap.get()));
  }
  return g;
}

void Cluster::DropRetainedSnapshotsForTest() {
  for (auto& server : servers_) server->DropRetainedSnapshotsForTest();
}

void Cluster::DumpMetrics(std::ostream* out) {
  // Every layer (kv DBs, transports, backend servers) registered its own
  // exposition collector; one scrape of the process registry covers the
  // whole cluster. Device-model figures are the only cluster-owned state.
  *out << metrics::Registry::Default()->Expose("gt_");
  for (uint32_t i = 0; i < cfg_.num_servers; i++) {
    *out << "# device model s" << i << ": accesses=" << devices_[i]->total_accesses()
         << " warm=" << devices_[i]->warm_accesses()
         << " tails=" << devices_[i]->tail_accesses() << "\n";
  }
}

bool Cluster::ExportTraceJson(TravelId travel, std::string* json) {
  // Any coordinator may have archived the travel; latest-first when travel=0.
  for (auto it = servers_.rbegin(); it != servers_.rend(); ++it) {
    if ((*it)->ExportTraceJson(travel, json)) return true;
  }
  return false;
}

void Cluster::ResetStats() {
  for (auto& server : servers_) server->ResetVisitStats();
  for (auto& store : stores_) store->ResetAccessCount();
  for (auto& device : devices_) device->ResetStats();
}

}  // namespace gt::engine
