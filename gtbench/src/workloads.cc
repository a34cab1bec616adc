#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/gen/darshan.h"
#include "src/lang/gtravel.h"

namespace gtb {
namespace {

namespace fs = std::filesystem;
using gt::engine::Cluster;
using gt::engine::ClusterConfig;
using gt::engine::GraphTrekClient;
using gt::engine::ServerId;
using gt::engine::TraversalResult;
using gt::graph::Catalog;
using gt::graph::RefGraph;
using gt::graph::VertexId;
using gt::lang::FilterOp;
using gt::lang::GTravel;
using gt::lang::ResultMode;
using gt::lang::TraversalPlan;
using gt::graph::PropValue;

// Set-up runs this many times per run; setup_s is the median.
constexpr uint32_t kSetupRepeats = 3;
// Point-get probe period in the traced window.
constexpr uint32_t kProbePeriodUs = 4000;

// Derives independent sub-seeds (graph, source order, ingest order, ...)
// from the one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return gt::Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

template <typename T>
void Shuffle(std::vector<T>* v, gt::Rng* rng) {
  for (size_t i = v->size(); i > 1; i--) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// Device, network and worker settings of the paper-headline benches
// (gt::bench::BenchConfig); everything else at the ClusterConfig default.
ClusterConfig MakeConfig(uint32_t servers, const std::string& dir) {
  const gt::bench::BenchConfig b;
  ClusterConfig c;
  c.num_servers = servers;
  c.data_dir = dir;
  c.workers_per_server = b.workers_per_server;
  c.device.access_latency_us = b.access_latency_us;
  c.device.warm_latency_us = b.warm_latency_us;
  c.device.per_kib_us = b.per_kib_us;
  c.device.tail_prob = b.tail_prob;
  c.device.tail_mult = b.tail_mult;
  c.net.latency_us = b.net_latency_us;
  return c;
}

void Check(const gt::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "gt_perfbench: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

// One set-up's product: a loaded, warmed cluster plus the graph it stores
// (the oracle input).
struct World {
  ClusterConfig config;
  std::unique_ptr<Cluster> cluster;
  RefGraph graph;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    if (cluster) cluster->Stop();
    cluster.reset();
    std::error_code ec;
    if (!config.data_dir.empty()) fs::remove_all(config.data_dir, ec);
  }

  void Open(const ClusterConfig& cfg) {
    config = cfg;
    std::error_code ec;
    fs::remove_all(config.data_dir, ec);
    auto c = Cluster::Create(cfg);
    Check(c.status(), "cluster create");
    cluster = std::move(*c);
  }

  // Bulk-loads `graph` and fills every adjacency cache; spans go under
  // `parent` of set-up operation `op` when tracing.
  void LoadAndWarm(Tracer* tracer, uint64_t op, uint64_t parent) {
    Check(tracer->Time("cluster.load", op, parent, [&] { return cluster->Load(graph); }),
          "load");
    for (uint32_t s = 0; s < cluster->num_servers(); s++) {
      Check(tracer->Time("graph.warm_adjacency", op, parent,
                         [&] { return cluster->store(s)->WarmAdjacency(); }),
            "warm adjacency");
    }
  }
};

// Milliseconds since `t0` at the steady clock's full resolution (latency
// samples; span timestamps use whole microseconds).
double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Encoded key + value bytes of one edge: user bytes in the store.
uint64_t EdgeBytes(const gt::graph::PropMap& props) {
  return gt::graph::kEdgeKeyBytes + gt::graph::EncodeEdgeValue(props).size();
}

// ---------------------------------------------------------------------------
// Queries and their oracles.

struct Query {
  std::string name;
  // Rebuilt for every operation: the timed GTravel::Build of lang.build_us.
  std::function<gt::Result<TraversalPlan>()> build;
  ResultMode mode = ResultMode::kVertices;
  gt::lang::RefEvalResult expect;
  // Replaces the oracle comparison where the answer moves during the run
  // (darshan-ingest's audits).
  std::function<bool(const TraversalResult&)> verify;
};

gt::lang::RefEvalResult Oracle(const TraversalPlan& plan, const RefGraph& g,
                               const Catalog& catalog) {
  if (!plan.has_ext()) {
    gt::lang::RefEvalResult r;
    r.vids = gt::lang::EvaluatePlanOnRefGraph(plan, g, catalog);
    return r;
  }
  return gt::lang::EvaluatePlanExtOnRefGraph(plan, g, catalog);
}

void SetOracle(Query* q, const RefGraph& g, const Catalog& catalog, bool corrupt) {
  auto plan = q->build();
  Check(plan.status(), q->name.c_str());
  q->mode = plan->result_mode;
  q->expect = Oracle(*plan, g, catalog);
  if (corrupt) {
    // A wrong expectation every engine answer must disagree with.
    q->expect.vids.push_back(~VertexId{0});
    q->expect.count += 1;
    q->expect.groups["corrupted"] += 1;
    q->expect.paths.push_back({~VertexId{0}});
  }
}

bool Matches(const Query& q, const TraversalResult& r) {
  if (q.verify) return q.verify(r);
  switch (q.mode) {
    case ResultMode::kCount:
      return r.count == q.expect.count;
    case ResultMode::kGroup:
      return r.groups == q.expect.groups;
    case ResultMode::kPaths:
      return r.paths == q.expect.paths;
    case ResultMode::kVertices:
      return r.vids == q.expect.vids;
  }
  return false;
}

uint64_t ResultRows(ResultMode mode, const TraversalResult& r) {
  switch (mode) {
    case ResultMode::kCount:
      return r.count;
    case ResultMode::kGroup: {
      uint64_t n = 0;
      for (const auto& [k, v] : r.groups) n += v;
      return n;
    }
    case ResultMode::kPaths:
      return r.paths.size();
    case ResultMode::kVertices:
      return r.vids.size();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Operation statistics of one timed window.

struct OpStats {
  Samples travel_ms, mutation_ms, build_us, lag_ms, overhead_ms, point_get_us;
  std::map<std::string, Samples> travel_ms_by_query;
  uint64_t travels_ok = 0, travels_failed = 0, travels_wrong = 0;
  uint64_t mutations_ok = 0, mutations_failed = 0;
  uint64_t probes_failed = 0;
  uint64_t results = 0;
  uint64_t user_bytes = 0;  // encoded bytes the mutations wrote
  uint64_t plan_bytes = 0;

  void Merge(const OpStats& o) {
    travel_ms.Append(o.travel_ms);
    mutation_ms.Append(o.mutation_ms);
    build_us.Append(o.build_us);
    lag_ms.Append(o.lag_ms);
    overhead_ms.Append(o.overhead_ms);
    point_get_us.Append(o.point_get_us);
    for (const auto& [name, samples] : o.travel_ms_by_query) {
      travel_ms_by_query[name].Append(samples);
    }
    travels_ok += o.travels_ok;
    travels_failed += o.travels_failed;
    travels_wrong += o.travels_wrong;
    mutations_ok += o.mutations_ok;
    mutations_failed += o.mutations_failed;
    probes_failed += o.probes_failed;
    results += o.results;
    user_bytes += o.user_bytes;
    plan_bytes = std::max(plan_bytes, o.plan_bytes);
  }
  uint64_t ops() const { return travels_ok + mutations_ok; }
  uint64_t attempted() const {
    return travels_ok + travels_failed + travels_wrong + mutations_ok + mutations_failed;
  }
  uint64_t failed() const { return travels_failed + travels_wrong + mutations_failed; }
};

struct WindowResult {
  OpStats ops;
  double wall_s = 0;
  double cpu_ms = 0;
  LayerCounters before, after;
  uint64_t engine_qmax = 0, link_qmax = 0;
};

// Runs one travel: timed build, submit and await, the oracle check, and in
// a traced window the coordinator's step spans folded under the await span.
void RunTravel(Cluster* cluster, Tracer* tracer, GraphTrekClient* client, const Query& q,
               ServerId coordinator, bool fold_trace, OpStats* st) {
  const bool traced = tracer->enabled();
  const uint64_t op = traced ? tracer->NewId() : 0;
  const uint64_t root = traced ? tracer->NewId() : 0;
  const uint64_t op_start = NowUs();

  const auto b0 = std::chrono::steady_clock::now();
  auto plan = tracer->Time("lang.build", op, root, [&] { return q.build(); });
  st->build_us.Add(MsSince(b0) * 1e3);
  if (!plan.ok()) {
    st->travels_failed++;
    return;
  }
  if (st->plan_bytes == 0) st->plan_bytes = plan->Encode().size();

  gt::engine::RunOptions opts;
  opts.coordinator = coordinator;
  const auto c0 = std::chrono::steady_clock::now();
  auto travel = tracer->Time("client.submit", op, root,
                             [&] { return client->Submit(*plan, opts); });
  uint64_t await_span = 0;
  gt::Result<TraversalResult> result = travel.ok()
      ? tracer->Time("client.await", op, root,
                     [&] { return client->Await(*travel, opts.client_timeout_ms); },
                     &await_span)
      : gt::Result<TraversalResult>(travel.status());
  const double latency_ms = MsSince(c0);
  const uint64_t t1 = NowUs();
  if (!result.ok()) {
    st->travels_failed++;
    std::fprintf(stderr, "gt_perfbench: travel %s failed: %s\n", q.name.c_str(),
                 result.status().ToString().c_str());
    return;
  }
  if (!Matches(q, *result)) {
    st->travels_wrong++;
    if (st->travels_wrong <= 3) {
      std::fprintf(stderr, "gt_perfbench: WRONG ANSWER for %s (got %" PRIu64
                   " rows, oracle %zu vids / count %" PRIu64 ")\n",
                   q.name.c_str(), ResultRows(q.mode, *result), q.expect.vids.size(),
                   q.expect.count);
    }
  } else {
    st->travels_ok++;
    st->travel_ms.Add(latency_ms);
    st->travel_ms_by_query[q.name].Add(latency_ms);
  }
  st->results += ResultRows(q.mode, *result);
  if (!traced) return;

  Span span;
  span.name = "op.travel";
  span.id = root;
  span.op = op;
  span.tid = Tracer::ThreadIndex();
  span.start_us = op_start;
  span.end_us = t1;
  span.args = "\"query\":\"" + q.name + "\",\"coordinator\":" + std::to_string(coordinator);
  tracer->Add(std::move(span));
  if (!fold_trace) return;

  // Fold the coordinator's archived step spans into this operation.
  for (const gt::engine::TravelTrace& tt : cluster->server(coordinator)->RecentTraces()) {
    if (tt.travel != result->travel_id) continue;
    uint64_t last_event = tt.started_us;
    for (size_t step = 0; step < tt.steps.size(); step++) {
      const auto& s = tt.steps[step];
      if (s.first_event_us == 0) continue;
      last_event = std::max(last_event, s.last_event_us);
      Span ss;
      ss.name = "coordinator.step" + std::to_string(step);
      ss.parent = await_span;
      ss.op = op;
      ss.pid = 1 + coordinator;
      ss.tid = static_cast<uint32_t>(step + 1);
      ss.start_us = s.first_event_us;
      ss.end_us = std::max(s.first_event_us, s.last_event_us);
      ss.args = "\"created\":" + std::to_string(s.created) +
                ",\"terminated\":" + std::to_string(s.terminated);
      tracer->Add(std::move(ss));
    }
    Span ct;
    ct.name = "coordinator.travel";
    ct.parent = await_span;
    ct.op = op;
    ct.pid = 1 + coordinator;
    ct.start_us = tt.started_us;
    ct.end_us = tt.finished_us;
    tracer->Add(std::move(ct));
    st->lag_ms.Add(static_cast<double>(tt.finished_us - last_event) / 1e3);
    st->overhead_ms.Add(latency_ms -
                        static_cast<double>(tt.finished_us - tt.started_us) / 1e3);
    break;
  }
}

// Low-rate GetVertex probes (traced window only): owner-routed point
// lookups checked against the stored graph.
class Prober {
 public:
  Prober(Cluster* cluster, Tracer* tracer, const RefGraph* graph, uint64_t seed)
      : cluster_(cluster), tracer_(tracer), graph_(graph), seed_(seed) {}

  void Run(uint64_t deadline_us, OpStats* st) {
    std::vector<VertexId> vids;
    vids.reserve(graph_->num_vertices());
    for (const auto& [vid, rec] : graph_->vertices()) vids.push_back(vid);
    std::sort(vids.begin(), vids.end());
    if (vids.empty()) return;
    gt::Rng rng(seed_);
    auto client = cluster_->NewClient();
    uint64_t next = NowUs();
    while (NowUs() < deadline_us) {
      const VertexId vid = vids[rng.Uniform(vids.size())];
      const uint64_t op = tracer_->NewId();
      const auto t0 = std::chrono::steady_clock::now();
      auto reply = tracer_->Time("client.get_vertex", op, 0,
                                 [&] { return client->GetVertex(vid); });
      const double us = MsSince(t0) * 1e3;
      const auto* rec = graph_->FindVertex(vid);
      auto name = cluster_->catalog()->Name(rec->label);
      if (reply.ok() && reply->found && name.ok() && reply->label == *name) {
        st->point_get_us.Add(us);
      } else {
        st->probes_failed++;
      }
      next += kProbePeriodUs;
      const uint64_t now = NowUs();
      if (next > now) std::this_thread::sleep_for(std::chrono::microseconds(next - now));
    }
  }

 private:
  Cluster* cluster_;
  Tracer* tracer_;
  const RefGraph* graph_;
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Workload interface.

class Workload {
 public:
  Workload(const Options& opt, Tracer* tracer) : opt_(opt), tracer_(tracer) {}
  virtual ~Workload() = default;

  // Builds world_ from scratch: generation, cluster start, load, warm-up.
  // Timed, and repeated kSetupRepeats times.
  virtual void Setup(uint32_t attempt) = 0;
  // Untimed preparation after the last set-up (oracles, env entries).
  virtual void Prepare(Report* r) = 0;
  // Closed-loop operations until `deadline_us`, merged into `st`.
  virtual void Drive(uint64_t deadline_us, OpStats* st) = 0;
  // Post-run correctness gates beyond the per-operation oracle checks.
  virtual void Finish(Report*) {}
  // Tail percentile reported for travel latency (0.9 or 0.99).
  virtual double TailQ() const = 0;
  World* world() { return world_.get(); }

  // The traced set-up operation Setup's spans belong to.
  void SetSetupSpan(uint64_t op, uint64_t root) {
    setup_op_ = op;
    setup_root_ = root;
  }

 protected:
  void LoadAndWarm(World* w) { w->LoadAndWarm(tracer_, setup_op_, setup_root_); }
  std::string DataDir(uint32_t attempt) const {
    return opt_.out_dir + "/data-" + opt_.workload + "-" + std::to_string(attempt);
  }

  const Options& opt_;
  Tracer* tracer_;
  std::unique_ptr<World> world_;
  uint64_t setup_op_ = 0, setup_root_ = 0;
};

// ---------------------------------------------------------------------------
// rmat-deep: 8-hop travels over the RMAT-1 bench graph.

class RmatWorkload : public Workload {
 public:
  using Workload::Workload;

  static constexpr uint32_t kHops = 8;
  // Sources the client walks, the kSources of kCandidates seeded candidates
  // with the most typical cost (see PickSources).
  static constexpr size_t kSources = 64;
  static constexpr size_t kCandidates = 512;

  double TailQ() const override { return 0.9; }

  void Setup(uint32_t attempt) override {
    world_.reset();
    auto w = std::make_unique<World>();
    w->Open(MakeConfig(servers(), DataDir(attempt)));
    // The fixed RMAT-1 bench graph: one graph seed keeps the travel cost
    // the same from run to run; the workload seed orders the sources.
    gt::bench::BenchConfig bcfg;
    if (opt_.smoke) bcfg.rmat_scale = 8;
    w->graph = gt::bench::BuildRmat1(w->cluster->catalog(), bcfg);
    LoadAndWarm(w.get());
    world_ = std::move(w);
    if (attempt == 0) PickSources();
    // Warm-up: travels until the block caches hold the graph.
    auto client = world_->cluster->NewClient();
    for (uint32_t i = 0; i < 2; i++) {
      auto plan = HopPlan(sources_[i % sources_.size()]);
      Check(plan.status(), "warm-up plan");
      Check(client->Run(*plan, {}).status(), "warm-up travel");
    }
  }

  void Prepare(Report* r) override {
    Catalog* catalog = world_->cluster->catalog();
    for (VertexId src : sources_) {
      Query q;
      q.name = "hop8-from-" + std::to_string(src);
      q.build = [this, src] { return HopPlan(src); };
      SetOracle(&q, world_->graph, *catalog, opt_.corrupt_oracle);
      queries_.push_back(std::move(q));
    }
    r->EnvNum("graph_vertices", static_cast<double>(world_->graph.num_vertices()));
    r->EnvNum("graph_edges", static_cast<double>(world_->graph.num_edges()));
    r->EnvNum("sources", static_cast<double>(sources_.size()));
    r->EnvNum("clients", 1);
  }

  void Drive(uint64_t deadline_us, OpStats* st) override {
    Cluster* cluster = world_->cluster.get();
    auto client = cluster->NewClient();
    for (; NowUs() < deadline_us; cursor_++) {
      RunTravel(cluster, tracer_, client.get(), queries_[cursor_ % queries_.size()],
                static_cast<ServerId>(cursor_ % servers()), true, st);
    }
  }

 private:
  uint32_t servers() const { return opt_.smoke ? 2 : 8; }

  gt::Result<TraversalPlan> HopPlan(VertexId src) const {
    // rtn() on the next-to-last hop puts the travel on the attribution
    // protocol, whose completion waits for the answers themselves. Plain hop
    // chains use the direct protocol, where a server's final results and the
    // termination event that completes the travel can leave in either order
    // (BackendServer::DrainOutbox sends each swapped batch outside mu_); under
    // CPU contention some of those travels return partial answers.
    GTravel travel(world_->cluster->catalog());
    travel.v({src});
    for (uint32_t i = 0; i < kHops; i++) {
      travel.e("link");
      if (i + 2 == kHops) travel.rtn();
    }
    return travel.Build();
  }

  // Vertices the hops from `src` reach, summed over the hops (what the
  // travel visits and reads); 0 when the last hop reaches nothing.
  uint64_t Visits(VertexId src, gt::graph::LabelId link, std::vector<uint32_t>* seen) const {
    const RefGraph& g = world_->graph;
    std::vector<VertexId> frontier{src}, next;
    uint64_t visits = 0;
    for (uint32_t hop = 1; hop <= kHops && !frontier.empty(); hop++) {
      next.clear();
      for (VertexId v : frontier) {
        for (const auto& [dst, props] : g.Edges(v, link)) {
          if ((*seen)[dst] != hop) {
            (*seen)[dst] = hop;
            next.push_back(dst);
          }
        }
      }
      frontier.swap(next);
      visits += frontier.size();
    }
    std::fill(seen->begin(), seen->end(), 0);
    return frontier.empty() ? 0 : visits;
  }

  // A seeded list of sources with non-empty answers and typical cost: the
  // kSources candidates whose visit count lies nearest the median, in seeded
  // order. A run walks only a few dozen of them, so with sources of any
  // cost its latency median would follow which ones the seed puts first.
  void PickSources() {
    std::vector<VertexId> all;
    for (const auto& [vid, rec] : world_->graph.vertices()) all.push_back(vid);
    std::sort(all.begin(), all.end());
    gt::Rng rng(SubSeed(opt_.seed, 2));
    Shuffle(&all, &rng);
    const auto link = world_->cluster->catalog()->Lookup("link");
    std::vector<uint32_t> seen(world_->graph.num_vertices(), 0);  // RMAT ids are dense
    std::vector<std::pair<VertexId, uint64_t>> cost;
    for (VertexId v : all) {
      if (const uint64_t c = Visits(v, link, &seen)) cost.push_back({v, c});
      if (cost.size() == kCandidates) break;
    }
    std::vector<uint64_t> counts;
    for (const auto& [v, c] : cost) counts.push_back(c);
    std::nth_element(counts.begin(), counts.begin() + counts.size() / 2, counts.end());
    const uint64_t median = counts[counts.size() / 2];
    auto off = [&](size_t i) {
      const uint64_t c = cost[i].second;
      return c > median ? c - median : median - c;
    };
    std::vector<size_t> idx(cost.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return off(a) < off(b); });
    idx.resize(std::min(kSources, idx.size()));
    std::sort(idx.begin(), idx.end());  // back to the seeded order
    for (size_t i : idx) sources_.push_back(cost[i].first);
  }

  std::vector<VertexId> sources_;
  std::vector<Query> queries_;
  uint64_t cursor_ = 0;  // position in the source list; persists across windows
};

// ---------------------------------------------------------------------------
// Darshan graph helpers.

// Many users with few jobs each: per-user job counts are Zipf-skewed, so
// only a large user population makes the graph's size (and every query's
// cost) nearly the same from seed to seed.
gt::gen::DarshanConfig DarshanSize(bool smoke, uint64_t seed, uint32_t users) {
  gt::gen::DarshanConfig d;
  d.users = smoke ? 8 : users;
  d.jobs_per_user_max = 6;
  d.execs_per_job_max = smoke ? 4 : 12;
  d.files = smoke ? 256 : 8192;
  d.seed = seed;
  return d;
}

// The `k` users owning the most jobs (ties: lowest id).
std::vector<VertexId> BusiestUsers(const RefGraph& g, const Catalog& catalog, size_t k) {
  const auto run = catalog.Lookup("run");
  std::vector<VertexId> users = g.VerticesByType(catalog.Lookup("User"));
  std::sort(users.begin(), users.end(), [&](VertexId a, VertexId b) {
    const size_t ja = g.Edges(a, run).size(), jb = g.Edges(b, run).size();
    return ja != jb ? ja > jb : a < b;
  });
  users.resize(std::min(users.size(), k));
  return users;
}

// The Table III suspicious-user audit anchored at `users` (whole year),
// returning the executions that read the users' outputs and wrote files.
// Marking those readers (not the final files) with rtn() puts the travel on
// the attribution protocol, whose completion cannot overtake its results
// (see the note in RmatWorkload::HopPlan).
gt::Result<TraversalPlan> AuditPlan(Catalog* catalog, std::vector<VertexId> users,
                                    const gt::gen::DarshanConfig& d) {
  return GTravel(catalog)
      .v(std::move(users))
      .e("run")
      .ea("ts", FilterOp::kRange, {PropValue(d.ts_begin), PropValue(d.ts_end)})
      .e("hasExecutions")
      .e("write")
      .e("readBy")
      .rtn()
      .e("write")
      .Build();
}

// ---------------------------------------------------------------------------
// darshan-audit-mix: the audit plus two filter-heavy type-scan counts (the
// table3_planner shapes), cycled in a seeded fixed order by one closed-loop
// client. table3_planner's until()/path()/group() queries are left out: they
// cannot compose with rtn(), so they run on the direct protocol, which
// returns partial answers under load (see RmatWorkload::HopPlan).

class AuditMixWorkload : public Workload {
 public:
  using Workload::Workload;

  double TailQ() const override { return 0.9; }

  void Setup(uint32_t attempt) override {
    world_.reset();
    auto w = std::make_unique<World>();
    w->Open(MakeConfig(servers(), DataDir(attempt)));
    dcfg_ = DarshanSize(opt_.smoke, SubSeed(opt_.seed, 1), 384);
    gt::gen::DarshanGenerator generator(dcfg_);
    w->graph = generator.Build(w->cluster->catalog());
    LoadAndWarm(w.get());
    world_ = std::move(w);
    // The queries hold this world's catalog, so they are rebuilt with it.
    BuildQueries();
    // Warm-up: one pass over the query cycle.
    auto client = world_->cluster->NewClient();
    for (const Query& q : queries_) {
      auto plan = q.build();
      Check(plan.status(), "warm-up plan");
      Check(client->Run(*plan, {}).status(), "warm-up travel");
    }
  }

  void Prepare(Report* r) override {
    for (Query& q : queries_) {
      SetOracle(&q, world_->graph, *world_->cluster->catalog(), opt_.corrupt_oracle);
    }
    std::string order;
    for (const Query& q : queries_) order += (order.empty() ? "" : ",") + q.name;
    r->EnvStr("query_order", order);
    r->EnvNum("graph_vertices", static_cast<double>(world_->graph.num_vertices()));
    r->EnvNum("graph_edges", static_cast<double>(world_->graph.num_edges()));
    r->EnvNum("clients", 1);
  }

  void Drive(uint64_t deadline_us, OpStats* st) override {
    Cluster* cluster = world_->cluster.get();
    auto client = cluster->NewClient();
    for (; NowUs() < deadline_us; cursor_++) {
      RunTravel(cluster, tracer_, client.get(), queries_[cursor_ % queries_.size()],
                static_cast<ServerId>(cursor_ % servers()), true, st);
    }
  }

 private:
  uint32_t servers() const { return opt_.smoke ? 2 : 8; }

  void BuildQueries() {
    queries_.clear();
    Catalog* catalog = world_->cluster->catalog();
    const gt::gen::DarshanConfig d = dcfg_;
    gt::Rng rng(SubSeed(opt_.seed, 3));
    // The busiest users' writes always reach the hot files, so the audit's
    // cost is nearly seed-independent.
    const std::vector<VertexId> audit_users = BusiestUsers(world_->graph, *catalog, 16);
    const int64_t window = (d.ts_end - d.ts_begin) / 8;
    const int64_t window_start =
        d.ts_begin + static_cast<int64_t>(rng.Uniform(7)) * window;

    auto add = [&](const char* name, std::function<gt::Result<TraversalPlan>()> build) {
      Query q;
      q.name = name;
      q.build = std::move(build);
      queries_.push_back(std::move(q));
    };
    add("audit", [=] { return AuditPlan(catalog, audit_users, d); });
    // Big files with at least one reader.
    add("big_files_read_count", [=] {
      return GTravel(catalog)
          .v()
          .va("type", FilterOp::kEq, {PropValue("File")})
          .va("size", FilterOp::kRange,
              {PropValue(int64_t{3} << 28), PropValue(int64_t{1} << 30)})
          .rtn()
          .e("readBy")
          .count()
          .Build();
    });
    // Jobs in a seeded eighth of the year that ran "-n 8".
    add("job_window_n8_count", [=] {
      return GTravel(catalog)
          .v()
          .va("type", FilterOp::kEq, {PropValue("Job")})
          .va("ts", FilterOp::kRange, {PropValue(window_start), PropValue(window_start + window)})
          .rtn()
          .e("hasExecutions")
          .va("params", FilterOp::kEq, {PropValue("-n 8")})
          .count()
          .Build();
    });
    Shuffle(&queries_, &rng);
  }

  gt::gen::DarshanConfig dcfg_;
  std::vector<Query> queries_;
  uint64_t cursor_ = 0;  // position in the query cycle; persists across windows
};

// ---------------------------------------------------------------------------
// darshan-ingest: a Darshan stream through PutVertex/PutEdge from three
// threads while one closed-loop auditor re-runs the audit.

// One mutation as the client sends it: names, not catalog ids.
struct IngestOp {
  bool is_vertex = true;
  VertexId src = 0;  // the vertex, or the edge's source
  VertexId dst = 0;
  std::string label;  // vertex type or edge label
  gt::engine::NamedProps props;
  uint64_t bytes = 0;  // encoded key + value bytes
};

// Adds what `op` stores to `g` (ids resolved against `catalog`).
void ApplyOp(const IngestOp& op, Catalog* catalog, RefGraph* g) {
  if (op.is_vertex) {
    g->AddVertex({op.src, catalog->Lookup(op.label), gt::engine::InternProps(op.props, catalog)});
  } else {
    g->AddEdge({op.src, catalog->Lookup(op.label), op.dst,
                gt::engine::InternProps(op.props, catalog)});
  }
}

class IngestWorkload : public Workload {
 public:
  using Workload::Workload;

  static constexpr uint32_t kIngestThreads = 3;
  // Random attribute bytes on every record, like RMAT-1's per-record
  // payload: enough that each server's share of a run's stream passes its
  // memtable several times and outgrows its block cache.
  static constexpr size_t kPayloadBytes = 128;
  // The audit starts from this many users that each ran kAuditUserJobs
  // jobs: its cost is a sum over similar users, not one seed-dependent
  // user's activity.
  static constexpr size_t kAuditUsers = 8;
  static constexpr size_t kAuditUserJobs = 4;

  double TailQ() const override { return 0.99; }

  void Setup(uint32_t attempt) override {
    world_.reset();
    auto w = std::make_unique<World>();
    w->Open(MakeConfig(servers(), DataDir(attempt)));
    Catalog* catalog = w->cluster->catalog();
    dcfg_ = DarshanSize(opt_.smoke, SubSeed(opt_.seed, 1), 6000);
    // Flatter file popularity than the generator's default 1.1: with the
    // default, an audit through a hot file fans out to a tenth of all
    // executions and takes seconds; darshan-audit-mix keeps the default.
    dcfg_.zipf_s = 0.5;
    gt::gen::DarshanGenerator generator(dcfg_);
    const RefGraph full = generator.Build(catalog);
    SplitStream(full, catalog, &w->graph);
    LoadAndWarm(w.get());
    world_ = std::move(w);
    auto plan = AuditPlan(catalog, audit_users_, dcfg_);
    Check(plan.status(), "audit plan");
    Check(world_->cluster->NewClient()->Run(*plan, {}).status(), "warm-up audit");
  }

  void Prepare(Report* r) override {
    Catalog* catalog = world_->cluster->catalog();
    audit_.name = "audit";
    audit_.build = [this, catalog] { return AuditPlan(catalog, audit_users_, dcfg_); };
    // The base graph's answer: the floor every later answer must cover.
    SetOracle(&audit_, world_->graph, *catalog, false);
    uint64_t stream_ops = 0;
    for (const auto& s : streams_) stream_ops += s.size();
    r->EnvNum("stream_ops", static_cast<double>(stream_ops));
    r->EnvNum("base_vertices", static_cast<double>(world_->graph.num_vertices()));
    r->EnvNum("base_edges", static_cast<double>(world_->graph.num_edges()));
    r->EnvNum("ingest_threads", kIngestThreads);
    r->EnvNum("auditors", 1);
    r->EnvNum("audited_users", static_cast<double>(audit_users_.size()));
    r->EnvNum("payload_bytes", kPayloadBytes);
    r->EnvNum("file_zipf_s", dcfg_.zipf_s);
  }

  void Drive(uint64_t deadline_us, OpStats* st) override {
    Cluster* cluster = world_->cluster.get();
    std::vector<OpStats> per(kIngestThreads);
    std::vector<std::thread> ingest;
    for (uint32_t t = 0; t < kIngestThreads; t++) {
      ingest.emplace_back([&, t] { IngestLoop(cluster, t, deadline_us, &per[t]); });
    }
    // Auditor: serial audits, so pin points only advance; the stream is
    // insert-only, so every answer must contain the previous one.
    Query q = audit_;
    q.verify = [this](const TraversalResult& r) {
      const std::vector<VertexId>& last = answers_.empty() ? audit_.expect.vids : answers_.back();
      const bool grows = std::includes(r.vids.begin(), r.vids.end(), last.begin(), last.end());
      if (!grows) std::fprintf(stderr, "gt_perfbench: audit answer shrank (torn read)\n");
      answers_.push_back(r.vids);
      return grows;
    };
    auto client = cluster->NewClient();
    for (uint64_t i = 0; NowUs() < deadline_us; i++) {
      RunTravel(cluster, tracer_, client.get(), q, static_cast<ServerId>(i % servers()), true,
                st);
    }
    for (auto& th : ingest) th.join();
    for (const auto& p : per) st->Merge(p);
  }

  // load_mutate's gates: every audit answer lies between the base graph's
  // and the final graph's, and the quiesced graph answers exactly like the
  // oracle. (No snapshot outliving its travel is checked for every
  // workload.)
  void Finish(Report* r) override {
    RefGraph& g = world_->graph;
    Catalog* catalog = world_->cluster->catalog();
    uint64_t applied = 0;
    for (uint32_t t = 0; t < kIngestThreads; t++) {
      for (size_t i = 0; i < pos_[t]; i++) ApplyOp(streams_[t][i], catalog, &g);
      applied += pos_[t];
      if (pos_[t] == streams_[t].size()) {
        std::printf("# warning: ingest thread %u exhausted its stream\n", t);
      }
    }
    r->EnvNum("ingested_ops", static_cast<double>(applied));
    Query final_q = audit_;
    SetOracle(&final_q, g, *catalog, opt_.corrupt_oracle);
    const std::vector<VertexId>& base = audit_.expect.vids;
    const std::vector<VertexId>& last = final_q.expect.vids;
    for (const auto& seen : answers_) {
      if (!std::includes(last.begin(), last.end(), seen.begin(), seen.end()) ||
          !std::includes(seen.begin(), seen.end(), base.begin(), base.end())) {
        r->Fail("an audit answer is not between the base and final graph's");
        break;
      }
    }
    OpStats final_stats;
    RunTravel(world_->cluster.get(), tracer_, world_->cluster->NewClient().get(), final_q, 0,
              false, &final_stats);
    if (final_stats.travels_ok != 1) {
      r->Fail("final audit on the quiesced graph differs from the oracle");
    }
    std::printf("# audits: %zu; answer grew from %zu to %zu vids (final oracle)\n",
                answers_.size(), base.size(), last.size());
  }

 private:
  uint32_t servers() const { return opt_.smoke ? 2 : 4; }

  void IngestLoop(Cluster* cluster, uint32_t t, uint64_t deadline_us, OpStats* st) {
    auto client = cluster->NewClient();
    const std::vector<IngestOp>& ops = streams_[t];
    size_t& i = pos_[t];
    for (; i < ops.size() && NowUs() < deadline_us; i++) {
      const IngestOp& op = ops[i];
      const uint64_t id = tracer_->enabled() ? tracer_->NewId() : 0;
      const auto t0 = std::chrono::steady_clock::now();
      const gt::Status s =
          op.is_vertex ? tracer_->Time("client.put_vertex", id, 0,
                                       [&] {
                                         return client->PutVertex(op.src, op.label, op.props);
                                       })
                       : tracer_->Time("client.put_edge", id, 0, [&] {
                           return client->PutEdge(op.src, op.label, op.dst, op.props);
                         });
      if (s.ok()) {
        st->mutations_ok++;
        st->mutation_ms.Add(MsSince(t0));
        st->user_bytes += op.bytes;
      } else {
        st->mutations_failed++;
        std::fprintf(stderr, "gt_perfbench: mutation failed: %s\n", s.ToString().c_str());
      }
    }
  }

  // Splits a generated Darshan graph into a preloaded base (users, files
  // and a quarter of the jobs) and per-thread streams of whole jobs in
  // causal order: each edge follows its endpoints' PutVertex on the same
  // thread or in the base, which is all kPutEdge's validation needs.
  void SplitStream(const RefGraph& full, Catalog* catalog, RefGraph* base) {
    auto id_of = [&](const char* name) { return catalog->Lookup(name); };
    const auto run = id_of("run"), has_exec = id_of("hasExecutions"), exe = id_of("exe"),
               read = id_of("read"), read_by = id_of("readBy"), write = id_of("write");
    const auto attrs_k = catalog->Intern("attrs");
    gt::Rng payload_rng(SubSeed(opt_.seed, 6));
    auto with_payload = [&](gt::graph::PropMap props) {
      std::string s(kPayloadBytes, '\0');
      for (char& ch : s) ch = static_cast<char>('a' + payload_rng.Uniform(26));
      props.Set(attrs_k, PropValue(std::move(s)));
      return props;
    };
    auto name_of = [&](gt::graph::Catalog::Id id) {
      auto n = catalog->Name(id);
      return n.ok() ? *n : std::string();
    };
    auto named = [&](const gt::graph::PropMap& props) {
      gt::engine::NamedProps out;
      for (const auto& [k, v] : props) out.emplace_back(name_of(k), v);
      return out;
    };
    auto vertex_op = [&](VertexId vid) {
      const gt::graph::VertexRecord& rec = *full.FindVertex(vid);
      const gt::graph::PropMap props = with_payload(rec.props);
      IngestOp op;
      op.src = vid;
      op.label = name_of(rec.label);
      op.props = named(props);
      op.bytes = gt::graph::VertexKey(vid).size() +
                 gt::graph::EncodeVertexValue(rec.label, props).size() +
                 gt::graph::TypeIndexKey(rec.label, vid).size();
      return op;
    };
    auto edge_op = [&](VertexId src, gt::graph::LabelId label, VertexId dst,
                       const gt::graph::PropMap& edge_props) {
      const gt::graph::PropMap props = with_payload(edge_props);
      IngestOp op;
      op.is_vertex = false;
      op.src = src;
      op.dst = dst;
      op.label = name_of(label);
      op.props = named(props);
      op.bytes = EdgeBytes(props);
      return op;
    };

    // file --readBy--> exec, indexed by exec (the stream emits it with the
    // exec's other edges).
    std::unordered_map<VertexId, std::vector<std::pair<VertexId, const gt::graph::PropMap*>>>
        read_by_of;
    std::vector<VertexId> users = full.VerticesByType(id_of("User"));
    std::vector<VertexId> files = full.VerticesByType(id_of("File"));
    std::sort(users.begin(), users.end());
    std::sort(files.begin(), files.end());
    for (VertexId f : files) {
      for (const auto& [exec, props] : full.Edges(f, read_by)) {
        read_by_of[exec].push_back({f, &props});
      }
    }
    for (VertexId v : users) ApplyOp(vertex_op(v), catalog, base);
    for (VertexId v : files) ApplyOp(vertex_op(v), catalog, base);

    std::vector<std::pair<VertexId, VertexId>> jobs;  // (user, job)
    for (VertexId u : users) {
      for (const auto& [job, props] : full.Edges(u, run)) jobs.push_back({u, job});
    }
    gt::Rng rng(SubSeed(opt_.seed, 4));
    Shuffle(&jobs, &rng);
    const size_t base_jobs = jobs.size() / 4;
    streams_.assign(kIngestThreads, {});
    pos_.assign(kIngestThreads, 0);
    for (size_t j = 0; j < jobs.size(); j++) {
      const auto [user, job] = jobs[j];
      std::vector<IngestOp> ops;
      ops.push_back(vertex_op(job));
      for (const auto& [dst, props] : full.Edges(user, run)) {
        if (dst == job) ops.push_back(edge_op(user, run, job, props));
      }
      for (const auto& [exec, hp] : full.Edges(job, has_exec)) {
        ops.push_back(vertex_op(exec));
        ops.push_back(edge_op(job, has_exec, exec, hp));
        for (auto label : {exe, read, write}) {
          for (const auto& [file, props] : full.Edges(exec, label)) {
            ops.push_back(edge_op(exec, label, file, props));
          }
        }
        for (const auto& [file, props] : read_by_of[exec]) {
          ops.push_back(edge_op(file, read_by, exec, *props));
        }
      }
      if (j < base_jobs) {
        for (const IngestOp& op : ops) ApplyOp(op, catalog, base);
      } else {
        auto& stream = streams_[(j - base_jobs) % kIngestThreads];
        for (IngestOp& op : ops) stream.push_back(std::move(op));
      }
    }

    std::vector<VertexId> candidates;
    for (VertexId u : users) {
      if (full.Edges(u, run).size() == kAuditUserJobs || opt_.smoke) candidates.push_back(u);
    }
    Shuffle(&candidates, &rng);
    candidates.resize(std::min(candidates.size(), kAuditUsers));
    if (candidates.empty()) Check(gt::Status::Internal("no users to audit"), "audit users");
    audit_users_ = candidates;
  }

  gt::gen::DarshanConfig dcfg_;
  std::vector<VertexId> audit_users_;
  Query audit_;  // oracle: the base graph's answer
  std::vector<std::vector<VertexId>> answers_;  // every audit's, in order
  std::vector<std::vector<IngestOp>> streams_;
  std::vector<size_t> pos_;  // next op per ingest thread; persists across windows
};

// ---------------------------------------------------------------------------
// Orchestration: repeated set-up, the timed window(s), the metrics.

struct Delta {
  const LayerCounters& a;
  const LayerCounters& b;
  double operator()(uint64_t LayerCounters::*f) const {
    return static_cast<double>(b.*f - a.*f);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Encoded user bytes stored across the cluster, per server.
std::vector<uint64_t> StoredBytes(Cluster* cluster) {
  std::vector<uint64_t> out;
  for (uint32_t s = 0; s < cluster->num_servers(); s++) {
    uint64_t bytes = 0;
    gt::graph::GraphStore* store = cluster->store(s);
    store->ScanAllVertices([&](const gt::graph::VertexRecord& rec) {
      bytes += gt::graph::VertexKey(rec.id).size() +
               gt::graph::EncodeVertexValue(rec.label, rec.props).size() +
               gt::graph::TypeIndexKey(rec.label, rec.id).size();
      return true;
    }).ok();
    store->ScanEverythingEdges([&](const gt::graph::EdgeRecord& rec) {
      bytes += EdgeBytes(rec.props);
      return true;
    }).ok();
    out.push_back(bytes);
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::unique_ptr<Workload> MakeWorkload(const Options& opt, Tracer* tracer) {
  if (opt.workload == "rmat-deep") return std::make_unique<RmatWorkload>(opt, tracer);
  if (opt.workload == "darshan-ingest") return std::make_unique<IngestWorkload>(opt, tracer);
  if (opt.workload == "darshan-audit-mix") {
    return std::make_unique<AuditMixWorkload>(opt, tracer);
  }
  return nullptr;
}

void AddEndToEnd(Report* r, const WindowResult& w, double tail_q, double setup_s,
                 bool ingest) {
  const OpStats& o = w.ops;
  r->E2E("setup_s", setup_s, "s", "median of " + std::to_string(kSetupRepeats) + " set-ups");
  // Every operation the workload issues: travels, plus mutations on
  // darshan-ingest (where they are nearly all of them).
  Samples all_ops = o.travel_ms;
  all_ops.Append(o.mutation_ms);
  AddLatency(r, "op", all_ops, 0);
  AddLatency(r, "travel", o.travel_ms, tail_q);
  // Per-query lines for the Darshan mixes (RMAT queries are one per source).
  if (o.travel_ms_by_query.size() <= 8) {
    for (const auto& [name, samples] : o.travel_ms_by_query) {
      std::printf("# travel %-28s n=%-5zu p50=%.3f ms max=%.3f ms\n", name.c_str(),
                  samples.size(), samples.Quantile(0.5), samples.Max());
    }
  }
  r->E2E("travels_per_s", Ratio(static_cast<double>(o.travels_ok), w.wall_s), "1/s");
  if (ingest) {
    r->E2E("ingest_ops_per_s", Ratio(static_cast<double>(o.mutations_ok), w.wall_s), "1/s");
    AddLatency(r, "mutation", o.mutation_ms, 0.99);
  }
  r->E2E("ops_per_s", Ratio(static_cast<double>(o.ops()), w.wall_s), "1/s");
  r->E2E("cpu_ms_per_op", Ratio(w.cpu_ms, static_cast<double>(o.ops())), "ms");
  r->E2E("peak_rss_mb", PeakRssMb(), "MB");
  r->E2E("failed_ops_frac",
         Ratio(static_cast<double>(o.failed()), static_cast<double>(o.attempted())), "ratio");
}

void AddPerLayer(Report* r, const ClusterConfig& cfg, const WindowResult& w,
                 const WindowResult& untraced, uint64_t stored_user_bytes,
                 uint64_t disk_bytes, uint64_t live_snapshots, size_t spans) {
  const Delta d{w.before, w.after};
  const OpStats& o = w.ops;
  const double ops = static_cast<double>(o.ops());
  const double servers = cfg.num_servers;
  const double workers = cfg.workers_per_server;

  // device
  const double dev_cold = d(&LayerCounters::dev_accesses) - d(&LayerCounters::dev_warm);
  r->Layer("device.charged_ms_per_op", Ratio(d(&LayerCounters::dev_us) / 1e3, ops), "ms");
  r->Layer("device.accesses_per_op", Ratio(d(&LayerCounters::dev_accesses), ops), "count");
  r->Layer("device.warm_frac",
           Ratio(d(&LayerCounters::dev_warm), d(&LayerCounters::dev_accesses)), "ratio");
  r->Layer("device.tail_frac", Ratio(d(&LayerCounters::dev_tail), dev_cold), "ratio");
  r->Layer("device.utilization",
           Ratio(d(&LayerCounters::dev_us) / 1e6, w.wall_s * servers * workers), "ratio");

  // engine
  const double received = d(&LayerCounters::visits_received);
  r->Layer("engine.visits_received_per_op", Ratio(received, ops), "count");
  r->Layer("engine.redundant_frac", Ratio(d(&LayerCounters::visits_redundant), received),
           "ratio");
  r->Layer("engine.combined_frac", Ratio(d(&LayerCounters::visits_combined), received),
           "ratio");
  r->Layer("engine.real_io_per_op", Ratio(d(&LayerCounters::visits_real_io), ops), "count");
  double io_max = 0, io_sum = 0;
  for (size_t s = 0; s < w.after.real_io_per_server.size(); s++) {
    const double io = static_cast<double>(w.after.real_io_per_server[s] -
                                          w.before.real_io_per_server[s]);
    io_max = std::max(io_max, io);
    io_sum += io;
  }
  r->Layer("engine.server_io_skew", Ratio(io_max, io_sum / servers), "ratio");
  const double tc_hits = d(&LayerCounters::tc_hits);
  r->Layer("engine.travel_cache_hit_ratio",
           Ratio(tc_hits, tc_hits + d(&LayerCounters::tc_misses)), "ratio");
  r->Layer("engine.visits_per_result", Ratio(received, static_cast<double>(o.results)),
           "ratio");
  r->Layer("engine.completion_lag_ms_p50", o.lag_ms.Quantile(0.5), "ms",
           "n=" + std::to_string(o.lag_ms.size()));
  r->Layer("engine.client_overhead_ms_p50", o.overhead_ms.Quantile(0.5), "ms",
           "n=" + std::to_string(o.overhead_ms.size()));
  const std::string probes = "n=" + std::to_string(o.point_get_us.size());
  r->Layer("engine.point_get_us_p50", o.point_get_us.Quantile(0.5), "us", probes);
  r->Layer("engine.point_get_us_p99", o.point_get_us.Quantile(0.99), "us", probes);
  r->Layer("engine.queue_depth_max", static_cast<double>(w.engine_qmax), "count");
  r->Layer("engine.duplicate_frames", d(&LayerCounters::duplicate_frames), "count");

  // graph
  const double adj_hits = d(&LayerCounters::adj_hits);
  r->Layer("graph.adj_hit_ratio", Ratio(adj_hits, adj_hits + d(&LayerCounters::adj_misses)),
           "ratio");
  r->Layer("graph.adj_evictions", d(&LayerCounters::adj_evictions), "count");
  r->Layer("graph.adj_builds", d(&LayerCounters::adj_builds), "count");
  r->Layer("graph.adj_build_ms", (w.after.adj_build_us - w.before.adj_build_us) / 1e3, "ms");
  r->Layer("graph.adj_bytes", static_cast<double>(w.after.adj_bytes), "bytes");

  // kv
  const double reads = d(&LayerCounters::kv_block_reads);
  const double cache_hits = d(&LayerCounters::kv_block_cache_hits);
  r->Layer("kv.gets_per_op", Ratio(d(&LayerCounters::kv_gets), ops), "count");
  r->Layer("kv.block_reads_per_op", Ratio(reads, ops), "count");
  r->Layer("kv.block_cache_hit_ratio", Ratio(cache_hits, cache_hits + reads), "ratio");
  r->Layer("kv.flushes", d(&LayerCounters::kv_flushes), "count");
  r->Layer("kv.compactions", d(&LayerCounters::kv_compactions), "count");
  r->Layer("kv.compaction_bytes", d(&LayerCounters::kv_compaction_bytes), "bytes");
  r->Layer("kv.bytes_written_per_user_byte",
           Ratio(d(&LayerCounters::kv_bytes_written) + d(&LayerCounters::kv_compaction_bytes),
                 static_cast<double>(o.user_bytes)),
           "ratio");
  r->Layer("kv.disk_bytes_per_user_byte",
           Ratio(static_cast<double>(disk_bytes), static_cast<double>(stored_user_bytes)),
           "ratio");
  r->Layer("kv.snapshots_per_op", Ratio(d(&LayerCounters::kv_snapshots), ops), "count");
  r->Layer("kv.live_snapshots_after", static_cast<double>(live_snapshots), "count");

  // rpc
  r->Layer("rpc.msgs_per_op", Ratio(d(&LayerCounters::rpc_msgs), ops), "count");
  r->Layer("rpc.bytes_per_op", Ratio(d(&LayerCounters::rpc_bytes), ops), "bytes");
  r->Layer("rpc.dropped", d(&LayerCounters::rpc_dropped), "count");
  r->Layer("rpc.link_queue_depth_max", static_cast<double>(w.link_qmax), "count");

  // lang
  r->Layer("lang.build_us_p50", o.build_us.Quantile(0.5), "us",
           "n=" + std::to_string(o.build_us.size()));
  r->Layer("lang.plan_bytes", static_cast<double>(o.plan_bytes), "bytes");

  // Tracing overhead: the traced half against the untraced half.
  const OpStats& u = untraced.ops;
  r->Layer("trace.overhead_travel_p50_ms", o.travel_ms.Quantile(0.5) - u.travel_ms.Quantile(0.5),
           "ms");
  r->Layer("trace.overhead_ops_per_s",
           Ratio(ops, w.wall_s) - Ratio(static_cast<double>(u.ops()), untraced.wall_s), "1/s");
  r->Layer("trace.overhead_cpu_ms_per_op",
           Ratio(w.cpu_ms, ops) - Ratio(untraced.cpu_ms, static_cast<double>(u.ops())), "ms");
  r->Layer("trace.spans", static_cast<double>(spans), "count");
}

}  // namespace

bool RunWorkload(const Options& opt, Report* r, Tracer* tracer) {
  std::unique_ptr<Workload> w = MakeWorkload(opt, tracer);
  if (!w) return false;
  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);

  // Set-up, repeated; the last one's world is measured.
  Samples setup_s;
  tracer->set_enabled(opt.trace);
  for (uint32_t a = 0; a < kSetupRepeats; a++) {
    Span span;
    span.name = "setup";
    span.op = tracer->NewId();
    span.id = tracer->NewId();
    span.tid = Tracer::ThreadIndex();
    w->SetSetupSpan(span.op, span.id);
    span.start_us = NowUs();
    w->Setup(a);
    span.end_us = NowUs();
    setup_s.Add(static_cast<double>(span.end_us - span.start_us) / 1e6);
    tracer->Add(std::move(span));
  }
  tracer->set_enabled(false);
  Cluster* cluster = w->world()->cluster.get();
  w->Prepare(r);

  // Environment: what the numbers depend on.
  const ClusterConfig& cfg = w->world()->config;
  r->EnvNum("seed", static_cast<double>(opt.seed));
  r->EnvNum("nproc", std::thread::hardware_concurrency());
  r->EnvStr("build_type", GTB_BUILD_TYPE);
  r->EnvStr("compiler", GTB_COMPILER);
  r->EnvStr("commit", opt.commit);
  r->EnvNum("servers", cfg.num_servers);
  r->EnvNum("workers_per_server", cfg.workers_per_server);
  r->EnvStr("engine", "GraphTrek");
  r->Env("device", "{\"access_us\":" + std::to_string(cfg.device.access_latency_us) +
                       ",\"warm_us\":" + std::to_string(cfg.device.warm_latency_us) +
                       ",\"per_kib_us\":" + std::to_string(cfg.device.per_kib_us) +
                       ",\"tail_prob\":" + Num(cfg.device.tail_prob) +
                       ",\"tail_mult\":" + std::to_string(cfg.device.tail_mult) + "}");
  r->EnvNum("net_latency_us", cfg.net.latency_us);
  r->Env("flush_policy", "{\"sync_wal\":" + std::string(cfg.db.sync_wal ? "true" : "false") +
                             ",\"memtable_bytes\":" + std::to_string(cfg.db.memtable_bytes) +
                             ",\"l0_compaction_trigger\":" +
                             std::to_string(cfg.db.l0_compaction_trigger) + "}");
  r->EnvNum("adjacency_cache_bytes_per_server", static_cast<double>(cfg.adjacency_cache_bytes));
  r->EnvNum("block_cache_bytes_per_server", static_cast<double>(cfg.db.block_cache_bytes));

  auto run_window = [&](double seconds, bool traced) {
    WindowResult wr;
    wr.before = ReadLayerCounters(cluster);
    std::unique_ptr<DepthSampler> sampler;
    if (traced) sampler = std::make_unique<DepthSampler>(cluster);
    tracer->set_enabled(traced);
    const double cpu0 = ProcessCpuMs();
    const uint64_t t0 = NowUs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e6);
    OpStats probe_stats;
    std::thread prober;
    if (traced) {
      prober = std::thread([&] {
        Prober(cluster, tracer, &w->world()->graph, SubSeed(opt.seed, 5))
            .Run(deadline, &probe_stats);
      });
    }
    w->Drive(deadline, &wr.ops);
    if (prober.joinable()) prober.join();
    wr.ops.Merge(probe_stats);
    wr.wall_s = static_cast<double>(NowUs() - t0) / 1e6;
    wr.cpu_ms = ProcessCpuMs() - cpu0;
    tracer->set_enabled(false);
    wr.after = ReadLayerCounters(cluster);
    if (sampler) {
      wr.engine_qmax = sampler->engine_max();
      wr.link_qmax = sampler->link_max();
    }
    return wr;
  };

  // Untraced: one window of --seconds. Traced: an untraced half, then a
  // traced half; per-layer metrics come from the traced half and the
  // difference between the halves is the tracing overhead.
  const WindowResult main = run_window(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  WindowResult traced;
  if (opt.trace) traced = run_window(opt.seconds / 2, true);
  w->Finish(r);

  r->attempted = main.ops.attempted() + traced.ops.attempted();
  r->failed = main.ops.failed() + traced.ops.failed() + main.ops.probes_failed +
              traced.ops.probes_failed;
  if (r->failed > 0) r->Fail(std::to_string(r->failed) + " operations failed or answered wrong");

  const bool ingest = opt.workload == "darshan-ingest";
  AddEndToEnd(r, main, w->TailQ(), setup_s.Quantile(0.5), ingest);
  std::printf("# setup_s samples:");
  for (double q : {0.0, 0.5, 1.0}) std::printf(" %.3f", setup_s.Quantile(q));
  std::printf(" (min/median/max)\n");

  // Snapshots must all be released once travels finish; completion fans
  // the release out asynchronously, so allow a bounded drain.
  uint64_t live = 0;
  for (int spin = 0; spin < 1000; spin++) {
    live = 0;
    for (uint32_t s = 0; s < cluster->num_servers(); s++) {
      live += cluster->store(s)->db()->NumLiveSnapshots();
    }
    if (live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (live != 0) r->Fail(std::to_string(live) + " KV snapshots still live after the run");

  const std::vector<uint64_t> stored = StoredBytes(cluster);
  uint64_t stored_total = 0;
  std::string per_server;
  for (uint64_t b : stored) {
    stored_total += b;
    per_server += (per_server.empty() ? "" : ",") + std::to_string(b);
  }
  r->Env("working_set_bytes_per_server", "[" + per_server + "]");

  if (opt.trace) {
    AddPerLayer(r, cfg, traced, main, stored_total, DirBytes(cfg.data_dir), live, tracer->size());
    const std::string path =
        opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    std::string meta = "{\"workload\":\"" + opt.workload + "\"";
    for (const auto& [k, v] : r->env) meta += ",\"" + k + "\":" + v;
    meta += "}";
    if (!tracer->WriteChromeJson(path, meta)) {
      r->Fail("cannot write trace file " + path);
    } else {
      std::printf("# trace: %zu spans written to %s\n", tracer->size(), path.c_str());
    }
  }
  return true;
}

}  // namespace gtb
