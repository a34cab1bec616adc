#include "src/engine/backend_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/engine/mutation.h"
#include "src/engine/straggler.h"

namespace gt::engine {

namespace {

constexpr size_t kMaxAbortTombstones = 10000;
// Coordinator-side bound on accumulated kPaths results: path counts can grow
// combinatorially with fan-out, and the coordinator materializes every
// distinct chain before rendering.
constexpr size_t kMaxCoordinatorPaths = size_t{1} << 17;

std::string EncodeTravelId(TravelId id) {
  std::string s;
  PutVarint64(&s, id);
  return s;
}

Result<TravelId> DecodeTravelId(std::string_view payload) {
  CheckedReader dec(payload);
  uint64_t id;
  if (!dec.GetVarint64(&id)) return Status::Corruption("bad travel id payload");
  return id;
}

bool RtnAtStep(const lang::TraversalPlan& plan, uint32_t step) {
  if (step == 0) return plan.start_rtn;
  return plan.hops[step - 1].rtn;
}

const std::vector<lang::Filter>& StepVertexFilters(const lang::TraversalPlan& plan,
                                                   uint32_t step) {
  if (step == 0) return plan.start_vertex_filters;
  return plan.hops[step - 1].vertex_filters;
}

// The until() filter set checked on vertices entering `step` (stamped on
// every unrolled copy of a repeat hop), or null when the step has none.
const std::vector<lang::Filter>* UntilFiltersAtStep(const lang::TraversalPlan& plan,
                                                    uint32_t step) {
  if (step == 0 || step > plan.hops.size()) return nullptr;
  const auto& u = plan.hops[step - 1].until_filters;
  return u.empty() ? nullptr : &u;
}

// True when results require per-vertex attribution through the answer tree
// (an rtn() on a non-final step). Plans without intermediate rtn() use the
// paper's direct protocol: final vertices go straight to the coordinator.
bool NeedsAttribution(const lang::TraversalPlan& plan) {
  const uint32_t last = static_cast<uint32_t>(plan.num_steps());
  if (plan.start_rtn && last > 0) return true;
  for (size_t i = 0; i + 1 < plan.hops.size(); i++) {
    if (plan.hops[i].rtn) return true;
  }
  return false;
}

// Expansion targets: (owner server, dst vertex).
using Targets = std::vector<std::pair<ServerId, graph::VertexId>>;

// One vertex's evaluation at one step, shared by every engine.
struct StepOutcome {
  bool passed = false;      // matched the step's vertex filters
  bool final_step = false;  // until() hit, or survived the last step: no expansion
  std::string group_value;  // kGroup, final vertices only
  // The vertex's expansion: the run [targets_begin, targets_end) of the
  // batch's one Targets buffer.
  uint32_t targets_begin = 0;
  uint32_t targets_end = 0;
};

// The step evaluator: applies step `step` of `plan` to one vertex record
// (null = vertex missing). Only a passing, non-final vertex reads its hop's
// edges, through `scan_hop_edges(label, visit)`, which calls
// visit(dst, value) per out-edge with that label, from the edges the
// worker batch read; `value` is the edge's encoded (store-checked) value,
// decoded only when the hop filters on edge properties. The expansion is
// appended to `targets`.
template <typename ScanHopEdges>
StepOutcome EvaluateStep(const lang::TraversalPlan& plan, graph::Catalog::Id type_key,
                         const graph::Catalog& catalog,
                         const graph::Partitioner& partitioner, uint32_t step,
                         const graph::VertexRecord* rec, Targets* targets,
                         ScanHopEdges&& scan_hop_edges) {
  StepOutcome out;
  out.targets_begin = out.targets_end = static_cast<uint32_t>(targets->size());
  if (rec == nullptr ||
      !lang::VertexMatchesAll(StepVertexFilters(plan, step), *rec, catalog, type_key)) {
    return out;
  }
  out.passed = true;
  // until(): a matching vertex at an iteration boundary is a terminal
  // result — no further expansion. In an until() plan, final-step survivors
  // that never matched are not results at all.
  const std::vector<lang::Filter>* until = UntilFiltersAtStep(plan, step);
  if (until != nullptr && lang::VertexMatchesAll(*until, *rec, catalog, type_key)) {
    out.final_step = true;
  } else if (step >= plan.num_steps()) {
    if (plan.has_until()) {
      out.passed = false;
      return out;
    }
    out.final_step = true;
  }
  if (out.final_step) {
    // Rendered here, while the record is in hand.
    if (plan.result_mode == lang::ResultMode::kGroup) {
      out.group_value = lang::GroupValueForVertex(*rec, plan.group_key, catalog, type_key);
    }
    return out;
  }
  const lang::Hop& hop = plan.hops[step];
  scan_hop_edges(hop.edge_label, [&](graph::VertexId dst, std::string_view value) {
    if (!hop.edge_filters.empty()) {
      graph::PropMap props;
      if (!graph::DecodeEdgeValue(value, &props) || !lang::MatchesAll(hop.edge_filters, props)) {
        return;
      }
    }
    targets->emplace_back(partitioner.ServerFor(dst), dst);
  });
  out.targets_end = static_cast<uint32_t>(targets->size());
  return out;
}

// The plan's explicit start vertices, deduplicated and grouped by owner.
std::vector<Frontier> StartEntriesByServer(const lang::TraversalPlan& plan,
                                           const graph::Partitioner& partitioner,
                                           uint32_t num_servers) {
  std::vector<Frontier> per_server(num_servers);
  std::vector<graph::VertexId> ids = plan.start_ids;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (auto vid : ids) per_server[partitioner.ServerFor(vid)].Add(vid);
  return per_server;
}

// Position of the type anchor of an unanchored v() start: its first type EQ
// filter naming a type (the validator guarantees one exists), or npos.
size_t ScanAnchorFor(const lang::TraversalPlan& plan, graph::Catalog::Id type_key) {
  const auto& sf = plan.start_vertex_filters;
  for (size_t i = 0; i < sf.size(); i++) {
    if (sf[i].key == type_key && sf[i].op == lang::FilterOp::kEq && !sf[i].values.empty() &&
        sf[i].values[0].is_string()) {
      return i;
    }
  }
  return std::string::npos;
}

}  // namespace

BackendServer::BackendServer(ServerConfig cfg, graph::GraphStore* store,
                             const graph::Partitioner* partitioner,
                             graph::Catalog* catalog, rpc::Transport* transport)
    : cfg_(cfg),
      store_(store),
      partitioner_(partitioner),
      catalog_(catalog),
      transport_(transport),
      maint_cv_(&maint_mu_) {
  auto* reg = metrics::Registry::Default();
  const std::string server = "s" + std::to_string(cfg_.id);
  reg->DescribeFamily("gt_travel_duration_ms", metrics::MetricType::kHistogram,
                      "End-to-end travel wall time at the coordinator");
  reg->DescribeFamily("gt_travel_completed_total", metrics::MetricType::kCounter,
                      "Travels completed, by outcome");
  for (int m = 0; m < 3; m++) {
    travel_duration_ms_[m] = reg->GetHistogram(
        "gt_travel_duration_ms",
        {{"server", server}, {"mode", EngineModeName(static_cast<EngineMode>(m))}},
        metrics::Histogram::LatencyBucketsMs());
  }
  travels_ok_ = reg->GetCounter("gt_travel_completed_total",
                                {{"server", server}, {"outcome", "ok"}});
  travels_failed_ = reg->GetCounter("gt_travel_completed_total",
                                    {{"server", server}, {"outcome", "error"}});
  reg->DescribeFamily("gt_travel_admitted_total", metrics::MetricType::kCounter,
                      "Travels admitted by the coordinator, by priority class");
  reg->DescribeFamily("gt_travel_rejected_total", metrics::MetricType::kCounter,
                      "Travels rejected at admission (Unavailable), by priority class");
  reg->DescribeFamily("gt_travel_cancelled_total", metrics::MetricType::kCounter,
                      "Live travels aborted by client cancel/timeout");
  reg->DescribeFamily("gt_travel_deadline_exceeded_total", metrics::MetricType::kCounter,
                      "Travels failed by server-side deadline enforcement");
  for (uint32_t c = 0; c < kNumTravelClasses; c++) {
    const metrics::Labels labels = {
        {"server", server}, {"class", TravelClassName(static_cast<TravelClass>(c))}};
    travel_admitted_[c] = reg->GetCounter("gt_travel_admitted_total", labels);
    travel_rejected_[c] = reg->GetCounter("gt_travel_rejected_total", labels);
  }
  travel_cancelled_ = reg->GetCounter("gt_travel_cancelled_total", {{"server", server}});
  travel_deadline_exceeded_ =
      reg->GetCounter("gt_travel_deadline_exceeded_total", {{"server", server}});
  reg->DescribeFamily("gt_travel_snapshots_pinned_total", metrics::MetricType::kCounter,
                      "Per-travel store snapshots pinned on this server");
  travel_snapshots_pinned_ =
      reg->GetCounter("gt_travel_snapshots_pinned_total", {{"server", server}});
  reg->DescribeFamily("gt_engine_dangling_edges_rejected_total",
                      metrics::MetricType::kCounter,
                      "kPutEdge requests rejected because an endpoint vertex is missing");
  dangling_edges_rejected_ =
      reg->GetCounter("gt_engine_dangling_edges_rejected_total", {{"server", server}});
  reg->DescribeFamily("gt_engine_edge_dst_unverified_total", metrics::MetricType::kCounter,
                      "kPutEdge requests whose dst lives on another shard (existence "
                      "not checked; counted instead of rejected)");
  edge_dst_unverified_ =
      reg->GetCounter("gt_engine_edge_dst_unverified_total", {{"server", server}});
}

BackendServer::~BackendServer() { Stop(); }

Status BackendServer::Start() {
  GT_RETURN_IF_ERROR(transport_->RegisterEndpoint(
      cfg_.id, [this](rpc::Message&& m) { OnMessage(std::move(m)); }));
  // Workers plus the maintenance tick share one pool; each loop occupies a
  // pool thread until Stop() makes it return.
  pool_ = std::make_unique<ThreadPool>(cfg_.workers + 1);
  for (uint32_t i = 0; i < cfg_.workers; i++) {
    pool_->Submit([this] { WorkerLoop(); });
  }
  pool_->Submit([this] { MaintenanceLoop(); });
  started_ = true;

  // Exposition-time bridge: snapshots this server's engine-layer state into
  // the registry. Runs off the hot path (only when someone scrapes), so
  // taking mu_ for the cache/travel figures is fine — hot paths never call
  // into the registry while holding mu_.
  auto* reg = metrics::Registry::Default();
  const std::string server = "s" + std::to_string(cfg_.id);
  reg->DescribeFamily("gt_engine_visits_received_total", metrics::MetricType::kCounter,
                      "Vertex visit requests received");
  reg->DescribeFamily("gt_engine_visits_redundant_total", metrics::MetricType::kCounter,
                      "Redundant visits absorbed by the travel cache");
  reg->DescribeFamily("gt_engine_visits_combined_total", metrics::MetricType::kCounter,
                      "Visits folded into another access by execution merging");
  reg->DescribeFamily("gt_engine_visits_real_io_total", metrics::MetricType::kCounter,
                      "Visits that reached the storage backend");
  reg->DescribeFamily("gt_engine_step_visits_total", metrics::MetricType::kCounter,
                      "Visit requests received, by traversal step");
  reg->DescribeFamily("gt_engine_duplicate_frames_total", metrics::MetricType::kCounter,
                      "Re-delivered hand-off frames absorbed by exec-id dedup");
  reg->DescribeFamily("gt_engine_frames_sent_total", metrics::MetricType::kCounter,
                      "kTraverse frames sent, roots included");
  reg->DescribeFamily("gt_engine_local_flushes_total", metrics::MetricType::kCounter,
                      "Quiescent flushes: a travel's frames, settles and trace items sent at once");
  reg->DescribeFamily("gt_engine_travel_cache_hits_total", metrics::MetricType::kCounter,
                      "Travel-cache lookups that found an entry");
  reg->DescribeFamily("gt_engine_travel_cache_misses_total", metrics::MetricType::kCounter,
                      "Travel-cache lookups that inserted a pending entry");
  reg->DescribeFamily("gt_engine_queue_depth", metrics::MetricType::kGauge,
                      "Request-queue depth");
  metrics_collector_ = reg->AddCollector([this, server](
                                             std::vector<metrics::Sample>* out) {
    using metrics::MetricType;
    const metrics::Labels base = {{"server", server}};
    auto counter = [&](const char* name, uint64_t v) {
      out->push_back({name, base, static_cast<double>(v), MetricType::kCounter});
    };
    const VisitStats::Snapshot vs = visit_stats_.Read();
    counter("gt_engine_visits_received_total", vs.received);
    counter("gt_engine_visits_redundant_total", vs.redundant);
    counter("gt_engine_visits_combined_total", vs.combined);
    counter("gt_engine_visits_real_io_total", vs.real_io);
    // Only StartExecLocked's classification probes the memo: a hit is a
    // redundant arrival.
    counter("gt_engine_travel_cache_hits_total", vs.redundant);
    counter("gt_engine_travel_cache_misses_total", visit_stats_.memo_misses.load());
    for (uint32_t i = 0; i < VisitStats::kMaxTrackedSteps; i++) {
      if (vs.per_step[i] == 0) continue;
      metrics::Labels labels = base;
      labels.emplace_back("step", std::to_string(i));
      out->push_back({"gt_engine_step_visits_total", std::move(labels),
                      static_cast<double>(vs.per_step[i]), MetricType::kCounter});
    }
    counter("gt_engine_send_failures_total", send_failures_.load());
    counter("gt_engine_duplicate_frames_total", visit_stats_.duplicate_frames.load());
    counter("gt_engine_frames_sent_total", visit_stats_.frames_sent.load());
    counter("gt_engine_local_flushes_total", visit_stats_.local_flushes.load());
    out->push_back({"gt_engine_queue_depth", base,
                    static_cast<double>(queue_.size()), MetricType::kGauge});
    out->push_back({"gt_engine_queue_high_watermark", base,
                    static_cast<double>(queue_.high_watermark()), MetricType::kGauge});
    out->push_back({"gt_engine_travel_cache_entries", base,
                    static_cast<double>(cache_size()), MetricType::kGauge});
    MutexLock lk(&mu_);
    out->push_back({"gt_engine_active_travels", base,
                    static_cast<double>(travels_.size()), MetricType::kGauge});
  });
  return Status::OK();
}

void BackendServer::Stop() {
  if (!started_) return;
  started_ = false;
  metrics::Registry::Default()->RemoveCollector(metrics_collector_);
  stop_.store(true);  // before unregistering: DrainOutbox sends nothing from here on
  transport_->UnregisterEndpoint(cfg_.id);
  {
    MutexLock lk(&maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.SignalAll();  // wake the maintenance tick out of its sleep
  queue_.Shutdown();
  if (pool_ != nullptr) {
    pool_->Shutdown();  // joins worker + maintenance loops
    pool_.reset();
  }
}

size_t BackendServer::cache_size() const {
  MutexLock lk(&mu_);
  size_t entries = 0;
  for (const auto& [travel, tl] : locals_) entries += tl.memo.size();
  return entries;
}

bool BackendServer::HasTravelResidue(TravelId travel) const {
  MutexLock lk(&mu_);
  return locals_.count(travel) != 0 || travels_.count(travel) != 0;
}

BackendServer::TravelLocal& BackendServer::LocalLocked(TravelId travel) {
  auto [it, created] = locals_.try_emplace(travel);
  TravelLocal& tl = it->second;
  if (!created) return tl;
  tl.id = travel;
  // Engine mu_ -> KV locks is a fresh lock order (the KV layer never calls
  // back into the engine).
  graph::GraphStore* store = store_;
  tl.snap.reset(store->GetSnapshot(), [store](const graph::GraphStore::ReadSnapshot* s) {
    store->ReleaseSnapshot(s);
  });
  travel_snapshots_pinned_->Inc();
  return tl;
}

std::shared_ptr<const graph::GraphStore::ReadSnapshot>
BackendServer::TravelSnapshotForTest(TravelId travel) const {
  MutexLock lk(&mu_);
  if (auto it = locals_.find(travel); it != locals_.end()) return it->second.snap;
  if (auto it = retained_snaps_.find(travel); it != retained_snaps_.end()) {
    return it->second;
  }
  return nullptr;
}

void BackendServer::DropRetainedSnapshotsForTest() {
  std::vector<std::shared_ptr<const graph::GraphStore::ReadSnapshot>> drained;
  {
    MutexLock lk(&mu_);
    drained.reserve(retained_snaps_.size());
    for (auto it = retained_snaps_.begin(); it != retained_snaps_.end();
         it = retained_snaps_.erase(it)) {
      drained.push_back(std::move(it->second));
    }
  }
  // Snapshots release outside mu_ as `drained` goes out of scope.
}

void BackendServer::QueueSendLocked(rpc::MsgType type, rpc::EndpointId dst,
                                    std::string payload, uint64_t rpc_id) {
  outbox_.push_back(rpc::Message{type, cfg_.id, dst, rpc_id, std::move(payload)});
}

// One drainer at a time keeps this server's sends in the order they were
// queued: with two, a drainer preempted between its swap and its sends could
// let a later termination event overtake its kReturnVertices. A thread that
// finds a drain in progress leaves its messages to the active drainer, which
// loops until the outbox is empty. A stopped server drops what it staged: a
// worker finishing its batch during Stop() sends nothing.
void BackendServer::DrainOutbox() {
  std::vector<rpc::Message> staged;
  {
    MutexLock lk(&mu_);
    if (draining_ || outbox_.empty()) return;
    draining_ = true;
    staged.swap(outbox_);
  }
  for (;;) {
    for (auto& m : staged) {
      if (stop_.load()) break;
      SendLossy(std::move(m));
    }
    staged.clear();
    MutexLock lk(&mu_);
    if (outbox_.empty()) {
      draining_ = false;
      return;
    }
    staged.swap(outbox_);
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Status-tracing items (execution created / terminated) are buffered per
// travel and flushed at the travel's local quiescence, or early by size, so
// one message carries many items. Buffer order is send order: a frame's
// creation item is queued before any of its parents' terminations.
void BackendServer::QueueTraceItemLocked(TravelLocal& tl, TraceItem item) {
  tl.trace.push_back(item);
  if (tl.trace.size() >= 48) FlushTraceBufferLocked(tl);
}

void BackendServer::FlushTraceBufferLocked(TravelLocal& tl) {
  if (tl.trace.empty()) return;
  TraceBatchPayload batch;
  batch.travel_id = tl.id;
  batch.items = std::move(tl.trace);
  tl.trace.clear();
  QueueSendLocked(rpc::MsgType::kTraceBatch, tl.cplan->coordinator, batch.Encode());
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void BackendServer::OnMessage(rpc::Message&& msg) {
  switch (msg.type) {
    case rpc::MsgType::kSubmitTraversal:
      HandleSubmit(std::move(msg));
      break;
    case rpc::MsgType::kTraverse:
      HandleTraverse(std::move(msg));
      break;
    case rpc::MsgType::kReturnVertices:
      HandleAnswer(std::move(msg));
      break;
    case rpc::MsgType::kTraceBatch:
      HandleTraceBatch(std::move(msg));
      break;
    case rpc::MsgType::kProgressRequest:
      HandleProgress(std::move(msg));
      break;
    case rpc::MsgType::kAbortTraversal:
      HandleAbort(std::move(msg));
      break;
    case rpc::MsgType::kPinTravel:
      HandlePinTravel(std::move(msg));
      break;
    case rpc::MsgType::kReleaseStep:
      HandleReleaseStep(std::move(msg));
      break;
    case rpc::MsgType::kPutVertex:
    case rpc::MsgType::kPutEdge:
    case rpc::MsgType::kGetVertex:
    case rpc::MsgType::kDeleteVertex:
      HandleMutation(std::move(msg));
      break;
    case rpc::MsgType::kCatalogIntern:
    case rpc::MsgType::kCatalogPull:
      HandleCatalog(std::move(msg));
      break;
    case rpc::MsgType::kPing:
      SendLossy(rpc::MsgType::kPong, msg.src, "", msg.rpc_id);
      break;
    default:
      GT_WARN << "server " << cfg_.id << ": unexpected message type "
              << rpc::MsgTypeName(msg.type);
  }
  DrainOutbox();  // flush sends the handler staged while holding mu_
}

// Coordinator broadcast: pin the travel's read view on this server. Sent at
// admission, before any frontier frame, so in-order transports pin every
// participant at (nearly) the same point in the mutation stream; when a
// faulty transport reorders it behind the first kTraverse frame the lazy
// first-touch pin in that handler has already run and this is a no-op.
void BackendServer::HandlePinTravel(rpc::Message&& msg) {
  auto travel = DecodeTravelId(msg.payload);
  if (!travel.ok()) {
    GT_WARN << "server " << cfg_.id << ": bad pin-travel payload";
    return;
  }
  MutexLock lk(&mu_);
  if (aborted_travels_.count(*travel) != 0) return;  // raced with cleanup
  LocalLocked(*travel);
}

// ---------------------------------------------------------------------------
// Submission (this server becomes the coordinator)
// ---------------------------------------------------------------------------

void BackendServer::HandleSubmit(rpc::Message&& msg) {
  MutexLock lk(&mu_);
  const Status st = SubmitLocked(msg);
  if (st.ok()) return;
  CompletePayload done;
  done.ok = 0;
  done.code = static_cast<uint8_t>(st.code());
  done.error = st.ToString();
  QueueSendLocked(rpc::MsgType::kTraversalComplete, msg.src, done.Encode(), msg.rpc_id);
}

Status BackendServer::SubmitLocked(const rpc::Message& msg) {
  auto submit = SubmitPayload::Decode(msg.payload);
  if (!submit.ok()) return submit.status();
  auto plan = lang::TraversalPlan::Decode(submit->plan);
  if (!plan.ok()) return plan.status();
  // The wire plan is untrusted: Decode enforces structure, Validate the
  // semantic rules (scan anchor, until/branch/paths restrictions, caps).
  GT_RETURN_IF_ERROR(plan->Validate());

  // A catalog replica that cannot reach the authority interns nothing; a
  // plan registered without the "type" id would filter every vertex out
  // and answer empty instead of failing.
  auto type_key = catalog_->TryIntern("type");
  if (!type_key.ok()) return type_key.status();
  const std::string plan_bytes = plan->Encode();

  // Expand to the executable form up front so oversized repeat chains
  // reject before admission. A branch plan flattens into one linear
  // sub-plan per alternative; each runs as an internal child travel below.
  const bool branch = plan->has_branch();
  std::vector<lang::TraversalPlan> subs;  // compact linear (sub-)plans
  if (branch) {
    subs = plan->FlattenBranches();
  } else {
    subs.push_back(*plan);
  }
  std::vector<lang::TraversalPlan> expanded;  // parallel: unrolled
  for (const auto& sub : subs) {
    auto u = sub.Unrolled();
    if (!u.ok()) return u.status();
    expanded.push_back(std::move(*u));
  }

  // Admission control: bound the in-flight-travel table, overall and per
  // priority class. Rejection is backpressure, not failure — the client
  // retries with jittered backoff.
  uint8_t cls_byte = submit->priority_class;
  if (cls_byte >= kNumTravelClasses) cls_byte = static_cast<uint8_t>(TravelClass::kNormal);
  const uint32_t class_limit = cfg_.admission_limits[cls_byte];
  if ((cfg_.max_inflight_travels != 0 && travels_.size() >= cfg_.max_inflight_travels) ||
      (class_limit != 0 && inflight_per_class_[cls_byte] >= class_limit)) {
    travel_rejected_[cls_byte]->Inc();
    return Status::Unavailable("admission limit reached");
  }

  const TravelId travel = MakeExecId(cfg_.id, next_travel_seq_++);
  inflight_per_class_[cls_byte]++;
  travel_admitted_[cls_byte]->Inc();

  TravelState proto;
  proto.id = travel;
  proto.mode = static_cast<EngineMode>(submit->mode);
  proto.client = msg.src;
  proto.started_us = NowMicros();
  proto.last_activity_us = proto.started_us;
  proto.timeout_ms = submit->timeout_ms == 0 ? cfg_.exec_timeout_ms : submit->timeout_ms;
  proto.cls = static_cast<TravelClass>(cls_byte);
  proto.deadline_us =
      submit->deadline_ms == 0
          ? 0
          : proto.started_us + static_cast<uint64_t>(submit->deadline_ms) * 1000;
  proto.result_mode = plan->result_mode;
  proto.unfinished_per_step.assign(1, 0);
  TravelState& ts = travels_[travel] = proto;

  // Acknowledge with the assigned travel id; results stream separately.
  QueueSendLocked(rpc::MsgType::kTraversalAccepted, msg.src, EncodeTravelId(travel),
                  msg.rpc_id);

  // Branch fan-out: the parent travel does no engine work of its own — each
  // flattened alternative runs as an internal child travel coordinated on
  // this same server, so parent/child result folding happens under one
  // mu_. Children pin their own snapshots (per-child consistency;
  // union-of-consistent-views semantics under races) and inherit the
  // parent's absolute deadline so lifecycle enforcement happens at the
  // children, which propagate failure upward.
  if (branch) {
    ts.pending_children = static_cast<uint32_t>(subs.size());
    for (size_t a = 0; a < subs.size(); a++) {
      ts.children.push_back(MakeExecId(cfg_.id, next_travel_seq_++));
    }
  }
  for (size_t a = 0; a < subs.size(); a++) {
    TravelState* run = &ts;
    if (branch) {
      run = &(travels_[ts.children[a]] = proto);
      run->id = ts.children[a];
      run->client = 0;
      run->internal = true;
      run->parent_travel = travel;
    }
    // Pin the read view here and on every other server. The pin messages
    // are queued before the root frames, so on in-order transports every
    // participant pins before it sees any work for the travel; reordered
    // deliveries fall back to the lazy first-touch pin in HandleTraverse.
    TravelLocal& tl = PinEverywhereLocked(run->id);
    run->unfinished_per_step.assign(expanded[a].num_steps() + 1, 0);
    run->cplan = RegisterPlanLocked(tl, std::move(expanded[a]),
                                    branch ? subs[a].Encode() : plan_bytes, run->mode,
                                    cfg_.id, *type_key);
    StartRootExecsLocked(*run);
  }
  return Status::OK();
}

BackendServer::TravelLocal& BackendServer::PinEverywhereLocked(TravelId travel) {
  TravelLocal& tl = LocalLocked(travel);
  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    if (s != cfg_.id) QueueSendLocked(rpc::MsgType::kPinTravel, s, EncodeTravelId(travel));
  }
  return tl;
}

std::shared_ptr<BackendServer::CompiledPlan> BackendServer::RegisterPlanLocked(
    TravelLocal& tl, lang::TraversalPlan plan, std::string_view plan_bytes, EngineMode mode,
    ServerId coordinator, graph::Catalog::Id type_key) {
  auto cplan = std::make_shared<CompiledPlan>();
  cplan->attribution = NeedsAttribution(plan);
  cplan->plan = std::move(plan);
  cplan->plan_bytes.assign(plan_bytes);
  cplan->mode = mode;
  cplan->coordinator = coordinator;
  cplan->type_key = type_key;
  tl.cplan = cplan;
  return cplan;
}

Result<const BackendServer::CompiledPlan*> BackendServer::PlanForLocked(
    TravelLocal& tl, std::string_view plan_bytes, EngineMode mode, ServerId coordinator) {
  if (tl.cplan == nullptr) {
    // The wire form is compact; execution uses the repeat-expanded chain so
    // step attribution and cohort numbering line up across servers.
    auto plan = lang::TraversalPlan::Decode(plan_bytes);
    if (!plan.ok()) return plan.status();
    auto unrolled = plan->Unrolled();
    if (!unrolled.ok()) return unrolled.status();
    // Intern, not Lookup: replica catalogs only know names they have seen;
    // "type" is virtual (never carried by a mutation) so a local-only
    // Lookup misses forever and every type filter would degrade to an
    // ordinary prop filter that no vertex carries.
    auto type_key = catalog_->TryIntern("type");
    RegisterPlanLocked(tl, std::move(*unrolled), plan_bytes, mode, coordinator,
                       type_key.value_or(graph::Catalog::kInvalidId));
    if (!type_key.ok()) return type_key.status();
  }
  if (tl.cplan->type_key == graph::Catalog::kInvalidId) {
    return Status::Unavailable("catalog cannot intern \"type\"");
  }
  return tl.cplan.get();
}

Status BackendServer::ScanStartLocked(TravelLocal& tl,
                                      std::vector<graph::VertexRecord>* records) {
  const CompiledPlan& cplan = *tl.cplan;
  const auto& sf = cplan.plan.start_vertex_filters;
  const size_t anchor = ScanAnchorFor(cplan.plan, cplan.type_key);
  if (anchor == std::string::npos) return Status::OK();
  const std::string& type = sf[anchor].values[0].as_string();
  auto label = catalog_->TryIntern(type);
  if (!label.ok()) return label.status();
  const bool warm = !tl.scanned_types.insert(*label).second;
  // The scan applies every start filter but the anchor, which each
  // candidate from the anchor's index matches by construction (and whose
  // pseudo-property is the costly one to evaluate). The engines re-apply
  // all of them at step 0, so this only decides which vertices root tasks.
  return store_->ScanVerticesByTypeFiltered(
      *label,
      [&](const graph::VertexRecord& rec) {
        for (size_t i = 0; i < sf.size(); i++) {
          if (i != anchor && !lang::VertexMatches(sf[i], rec, *catalog_, cplan.type_key)) {
            return false;
          }
        }
        return true;
      },
      [&](graph::VertexRecord&& rec) {
        records->push_back(std::move(rec));
        return true;
      },
      warm, tl.snap.get());
}

void BackendServer::StartRootExecsLocked(TravelState& ts) {
  const CompiledPlan& cplan = *ts.cplan;
  const bool scan = cplan.plan.start_ids.empty();  // every server scans its type index
  auto per_server = StartEntriesByServer(cplan.plan, *partitioner_, cfg_.num_servers);
  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    if (!scan && per_server[s].empty()) continue;
    const ExecId exec_id = SendTraverseLocked(cplan, ts.id, /*step=*/0, /*parent_exec=*/0, s,
                                              std::move(per_server[s]), scan);
    ts.root_outstanding++;
    // Register the root creation event locally (the coordinator is the
    // spawning party here).
    auto& trace = ts.execs[exec_id];
    trace.step = 0;
    trace.created = true;
    ts.total_created++;
    ts.incomplete_execs++;
    ts.unfinished_per_step[0]++;
    RecordStepEventLocked(ts, 0, /*created=*/true);
  }
  if (ts.root_outstanding == 0) {
    CompleteTravelLocked(ts, Status::OK());
  }
}

ExecId BackendServer::SendTraverseLocked(const CompiledPlan& cplan, TravelId travel,
                                         uint32_t step, ExecId parent_exec, ServerId dst,
                                         Frontier entries, bool scan_start) {
  TraversePayload req;
  req.travel_id = travel;
  req.step = step;
  req.exec_id = MakeExecId(cfg_.id, next_exec_seq_++);
  req.parent_exec = parent_exec;
  req.parent_server = cfg_.id;
  req.coordinator = cplan.coordinator;
  req.mode = static_cast<uint8_t>(cplan.mode);
  req.scan_start = scan_start ? 1 : 0;
  req.plan = cplan.plan_bytes;
  req.entries = std::move(entries);
  QueueSendLocked(rpc::MsgType::kTraverse, dst, req.Encode());
  visit_stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  return req.exec_id;
}

void BackendServer::CompleteTravelLocked(TravelState& ts, Status status) {
  if (ts.done) return;
  ts.done = true;

  // Release the admission slot the travel held since HandleSubmit (internal
  // branch children were never admitted).
  if (!ts.internal) {
    const uint8_t cls_byte = static_cast<uint8_t>(ts.cls);
    if (cls_byte < kNumTravelClasses && inflight_per_class_[cls_byte] > 0) {
      inflight_per_class_[cls_byte]--;
    }
  }

  // Render + stream results to the client by result mode, then the
  // completion marker. Internal children skip rendering: their results
  // folded into the parent, which renders once.
  if (!ts.internal) {
    auto send_chunk = [&](ResultChunkPayload&& chunk) {
      chunk.travel_id = ts.id;
      QueueSendLocked(rpc::MsgType::kResultChunk, ts.client, chunk.Encode());
    };
    uint64_t total = 0;
    switch (ts.result_mode) {
      case lang::ResultMode::kVertices: {
        std::vector<graph::VertexId> all(ts.results.begin(), ts.results.end());
        std::sort(all.begin(), all.end());
        for (size_t off = 0; off < all.size(); off += cfg_.result_chunk) {
          ResultChunkPayload chunk;
          chunk.vids.assign(all.begin() + off,
                            all.begin() + std::min(all.size(), off + cfg_.result_chunk));
          send_chunk(std::move(chunk));
        }
        total = all.size();
        break;
      }
      case lang::ResultMode::kCount:
        // count() folds entirely into total_results; no chunks.
        total = ts.results.size();
        break;
      case lang::ResultMode::kGroup: {
        // value -> count over the distinct result vertices, in value order.
        std::map<std::string, uint64_t> groups;
        for (const auto& [vid, value] : ts.result_values) {
          (void)vid;
          groups[value]++;
        }
        ResultChunkPayload chunk;
        for (const auto& [value, count] : groups) {
          chunk.groups.emplace_back(value, count);
          if (chunk.groups.size() >= cfg_.result_chunk) {
            send_chunk(std::move(chunk));
            chunk = ResultChunkPayload();
          }
        }
        if (!chunk.groups.empty()) send_chunk(std::move(chunk));
        total = ts.result_values.size();
        break;
      }
      case lang::ResultMode::kPaths: {
        ResultChunkPayload chunk;
        for (const auto& path : ts.result_paths) {
          chunk.paths.push_back(path);
          if (chunk.paths.size() >= cfg_.result_chunk) {
            send_chunk(std::move(chunk));
            chunk = ResultChunkPayload();
          }
        }
        if (!chunk.paths.empty()) send_chunk(std::move(chunk));
        total = ts.result_paths.size();
        break;
      }
    }

    CompletePayload done;
    done.travel_id = ts.id;
    done.ok = status.ok() ? 1 : 0;
    done.code = static_cast<uint8_t>(status.code());
    done.error = status.ok() ? "" : status.ToString();
    done.total_results = total;
    QueueSendLocked(rpc::MsgType::kTraversalComplete, ts.client, done.Encode());
  }

  // Broadcast cleanup; every server (including this one) erases the
  // travel's record (plan, pin, memo, any leftover execution state), and
  // its tasks still queued there are dropped as they pop. A
  // completing branch parent also cancels any children still running
  // (their local abort routes back through this function and finds the
  // parent done).
  std::vector<TravelId> cleanup = ts.children;
  cleanup.insert(cleanup.begin(), ts.id);
  for (TravelId id : cleanup) {
    for (ServerId s = 0; s < cfg_.num_servers; s++) {
      QueueSendLocked(rpc::MsgType::kAbortTraversal, s,
                      AbortPayload{id, AbortPayload::kCleanup}.Encode());
    }
  }

  if (ts.internal) {
    // The child's results already folded into the parent as they arrived;
    // the union of the alternatives' results is the branch semantics. A
    // failing child fails the whole branch with its status.
    auto pit = travels_.find(ts.parent_travel);
    if (pit != travels_.end() && !pit->second.done) {
      TravelState& parent = pit->second;
      if (!status.ok()) {
        FailTravelLocked(parent, status);
      } else {
        if (parent.pending_children > 0) parent.pending_children--;
        if (parent.pending_children == 0) CompleteTravelLocked(parent, Status::OK());
      }
    }
    travels_.erase(ts.id);  // ts is dangling after this line
    return;
  }

  const uint64_t now_us = NowMicros();
  travel_duration_ms_[static_cast<int>(ts.mode)]->Observe(
      (now_us - ts.started_us) / 1000.0);
  (status.ok() ? travels_ok_ : travels_failed_)->Inc();
  ArchiveTravelLocked(ts, status.ok(), now_us);

  travels_.erase(ts.id);  // ts is dangling after this line
}

bool BackendServer::FoldResultsLocked(TravelState& ts, const std::vector<graph::VertexId>& vids,
                                      std::vector<std::string>& values,
                                      std::vector<std::vector<graph::VertexId>>& paths) {
  ts.last_activity_us = NowMicros();
  TravelState* sink = &ts;
  if (ts.internal) {
    auto pit = travels_.find(ts.parent_travel);
    if (pit == travels_.end() || pit->second.done) return true;  // branch already over
    sink = &pit->second;
  }
  sink->results.insert(vids.begin(), vids.end());
  for (size_t i = 0; i < vids.size() && i < values.size(); i++) {
    sink->result_values.try_emplace(vids[i], std::move(values[i]));
  }
  for (auto& path : paths) sink->result_paths.insert(std::move(path));
  if (sink->result_paths.size() <= kMaxCoordinatorPaths) return true;
  FailTravelLocked(*sink, Status::Internal("path result limit exceeded"));
  return sink != &ts;
}

void BackendServer::FailTravelLocked(TravelState& ts, Status status) {
  ts.results.clear();
  ts.result_values.clear();
  ts.result_paths.clear();
  CompleteTravelLocked(ts, std::move(status));
}

void BackendServer::RecordStepEventLocked(TravelState& ts, uint32_t step,
                                          bool created) {
  if (ts.step_spans.size() <= step) ts.step_spans.resize(step + 1);
  TravelTrace::StepSpan& span = ts.step_spans[step];
  const uint64_t now = NowMicros();
  if (span.first_event_us == 0) span.first_event_us = now;
  span.last_event_us = now;
  if (created) {
    span.created++;
  } else {
    span.terminated++;
  }
}

void BackendServer::ArchiveTravelLocked(const TravelState& ts, bool ok,
                                        uint64_t now_us) {
  constexpr size_t kMaxArchivedTraces = 32;
  TravelTrace trace;
  trace.travel = ts.id;
  trace.mode = ts.mode;
  trace.coordinator = cfg_.id;
  trace.ok = ok;
  trace.started_us = ts.started_us;
  trace.finished_us = now_us;
  trace.total_created = ts.total_created;
  trace.total_terminated = ts.total_terminated;
  trace.result_count = ts.results.size();
  trace.steps = ts.step_spans;
  recent_traces_.push_back(std::move(trace));
  while (recent_traces_.size() > kMaxArchivedTraces) recent_traces_.pop_front();
}

std::vector<TravelTrace> BackendServer::RecentTraces() const {
  MutexLock lk(&mu_);
  return std::vector<TravelTrace>(recent_traces_.begin(), recent_traces_.end());
}

bool BackendServer::ExportTraceJson(TravelId travel, std::string* json) const {
  MutexLock lk(&mu_);
  if (recent_traces_.empty()) return false;
  if (travel == 0) {
    *json = ToChromeTraceJson(recent_traces_.back());
    return true;
  }
  for (const TravelTrace& t : recent_traces_) {
    if (t.travel == travel) {
      *json = ToChromeTraceJson(t);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Frontier hand-off
// ---------------------------------------------------------------------------

void BackendServer::HandleTraverse(rpc::Message&& msg) {
  auto req = TraversePayload::Decode(msg.payload);
  if (!req.ok()) {
    GT_WARN << "server " << cfg_.id << ": bad traverse payload";
    return;
  }

  MutexLock lk(&mu_);
  if (aborted_travels_.count(req->travel_id) != 0) return;

  // Lazy first touch: normally the kPinTravel broadcast got here first and
  // created (and pinned) the record.
  TravelLocal& tl = LocalLocked(req->travel_id);
  auto planned = PlanForLocked(tl, req->plan, static_cast<EngineMode>(req->mode),
                               req->coordinator);
  if (!planned.ok()) {
    if (tl.cplan == nullptr) {
      GT_WARN << "server " << cfg_.id << ": bad plan in traverse: " << planned.status().ToString();
    } else {
      FailOnErrorLocked(tl, "plan", planned.status());
    }
    return;
  }
  const CompiledPlan* cplan = *planned;

  // Duplicate-delivery absorption (exec ids are globally unique): only the
  // first copy of a hand-off frame executes.
  if (!tl.seen_execs.insert(req->exec_id).second) {
    visit_stats_.duplicate_frames.fetch_add(1);
    return;
  }

  // Sync-GT's barrier: a frame of a step the coordinator has not released
  // yet waits here, decoded, until the release starts it.
  if (cplan->mode == EngineMode::kSync && req->step > tl.released) {
    req->plan = {};  // aliases the message payload
    tl.held.push_back(std::move(*req));
    return;
  }
  StartExecLocked(tl, *req);
}

void BackendServer::FailOnErrorLocked(TravelLocal& tl, const std::string& what,
                                      const Status& st) {
  AbortPayload fail{tl.id, AbortPayload::kFail};
  fail.code = static_cast<uint8_t>(st.code());
  fail.message = what + " on server " + std::to_string(cfg_.id) + ": " + st.message();
  QueueSendLocked(rpc::MsgType::kAbortTraversal, tl.cplan->coordinator, fail.Encode());
}

void BackendServer::StartExecLocked(TravelLocal& tl, TraversePayload& req) {
  const CompiledPlan& cplan = *tl.cplan;
  std::vector<graph::VertexRecord> records;
  if (req.scan_start != 0) {
    const Status st = ScanStartLocked(tl, &records);
    if (!st.ok()) {
      FailOnErrorLocked(tl, "scan start", st);
      return;
    }
  }
  ExecState& ex = *(tl.execs[req.exec_id] = std::make_unique<ExecState>());
  ex.id = req.exec_id;
  ex.step = req.step;
  ex.parent_server = req.parent_server;
  ex.parent_exec = req.parent_exec;
  ex.root_records = std::move(records);
  const std::vector<graph::VertexRecord>& scan_roots = ex.root_records;
  const Frontier& entries = req.entries;

  // The engines differ here only in policy: GraphTrek and Sync-GT absorb
  // redundant arrivals without I/O, Async-GT queues a task for every
  // arrival; only GraphTrek schedules and merges, per its knobs.
  const bool graphtrek = cplan.mode == EngineMode::kGraphTrek;
  const bool absorb = cplan.mode != EngineMode::kAsyncPlain;
  const bool priority = graphtrek && cfg_.graphtrek_priority_sched;
  const bool mergeable = graphtrek && cfg_.graphtrek_merging;
  const bool attribution = cplan.attribution;
  auto push_task = [&](graph::VertexId vid, bool owner) {
    ex.owned_unprocessed++;
    queue_.Push(VertexTask{tl.id, ex.step, vid, ex.id, owner}, priority, mergeable);
  };

  if (cplan.plan.result_mode == lang::ResultMode::kPaths) {
    // kPaths (always direct protocol: the validator forbids rtn): prefixes
    // ride as each entry's parents, and the same vertex reached along
    // different chains expands once per distinct prefix. The memo is
    // bypassed — absorption would collapse distinct prefixes into one.
    auto add_entry = [&](graph::VertexId vid, std::vector<graph::VertexId> prefix) {
      auto& prefixes = ex.path_prefixes[vid];
      if (std::find(prefixes.begin(), prefixes.end(), prefix) == prefixes.end()) {
        prefixes.push_back(std::move(prefix));
      }
    };
    for (size_t i = 0; i < entries.size(); i++) {
      add_entry(entries.vids[i],
                std::vector<graph::VertexId>(entries.parents.begin() + entries.begin(i),
                                             entries.parents.begin() + entries.end(i)));
    }
    for (const auto& rec : scan_roots) add_entry(rec.id, {});
    visit_stats_.received.fetch_add(ex.path_prefixes.size());
    visit_stats_.AddStep(ex.step, ex.path_prefixes.size());
    for (const auto& [vid, prefixes] : ex.path_prefixes) {
      (void)prefixes;
      push_task(vid, /*owner=*/true);
    }
    AdmitExecLocked(tl, ex);  // erases ex when nothing was queued
    return;
  }

  // One memo probe per arrival decides owner vs redundant. A redundant
  // arrival on the attribution protocol (`v` non-null) takes the owner's
  // verdict, now or through a waiter record.
  auto classify = [&](graph::VertexId vid, ExecState::EntryVertex* v) {
    const TravelMemo::LookupResult lr = tl.memo.LookupOrInsertPending(ex.step, vid);
    if (lr.state == TravelMemo::State::kMiss) {
      visit_stats_.memo_misses.fetch_add(1);
      if (v != nullptr) v->owned = true;
      push_task(vid, /*owner=*/true);
      return;
    }
    visit_stats_.redundant.fetch_add(1);
    if (!absorb) push_task(vid, /*owner=*/false);  // pays its read, applies nothing
    if (v == nullptr) return;
    if (lr.state == TravelMemo::State::kResolved) {
      ResolveVertexLocked(tl, ex, vid, lr.reach, /*from_owner=*/false);
    } else {
      tl.memo.AddWaiter(ex.step, vid, ex.id);
    }
  };

  if (attribution) {
    // The vertex table: one record per distinct vertex, its parents from
    // every wire entry naming it as one run of the flat parents array.
    // Senders send each frame's entries vid-sorted and distinct, so the
    // frame's parents array is the table's as it stands.
    bool sorted = scan_roots.empty();
    for (size_t i = 1; sorted && i < entries.size(); i++) {
      sorted = entries.vids[i - 1] < entries.vids[i];
    }
    if (sorted) {
      ex.vertices.resize(entries.size());
      for (size_t i = 0; i < entries.size(); i++) {
        ExecState::EntryVertex& v = ex.vertices[i];
        v.vid = entries.vids[i];
        v.parents_begin = entries.begin(i);
        v.parents_end = entries.end(i);
      }
      ex.parents = std::move(req.entries.parents);
    } else {
      constexpr uint32_t kScanRoot = UINT32_MAX;
      std::vector<std::pair<graph::VertexId, uint32_t>> order;  // (vid, entry index)
      order.reserve(entries.size() + scan_roots.size());
      for (uint32_t i = 0; i < entries.size(); i++) order.emplace_back(entries.vids[i], i);
      for (const auto& rec : scan_roots) order.emplace_back(rec.id, kScanRoot);
      std::sort(order.begin(), order.end());
      ex.parents.reserve(entries.parents.size());
      for (const auto& [vid, idx] : order) {
        if (ex.vertices.empty() || ex.vertices.back().vid != vid) {
          ExecState::EntryVertex v;
          v.vid = vid;
          v.parents_begin = static_cast<uint32_t>(ex.parents.size());
          ex.vertices.push_back(v);
        }
        if (idx != kScanRoot) {
          ex.parents.insert(ex.parents.end(), entries.parents.begin() + entries.begin(idx),
                            entries.parents.begin() + entries.end(idx));
        }
        ex.vertices.back().parents_end = static_cast<uint32_t>(ex.parents.size());
      }
    }
    ex.unresolved = ex.vertices.size();
    visit_stats_.received.fetch_add(ex.vertices.size());
    visit_stats_.AddStep(ex.step, ex.vertices.size());
    for (auto& v : ex.vertices) classify(v.vid, &v);
  } else {
    // Direct protocol: the wire entries as-is (senders already deduplicate).
    visit_stats_.received.fetch_add(entries.size() + scan_roots.size());
    visit_stats_.AddStep(ex.step, entries.size() + scan_roots.size());
    for (graph::VertexId vid : entries.vids) classify(vid, nullptr);
    for (const auto& rec : scan_roots) classify(rec.id, nullptr);
  }
  AdmitExecLocked(tl, ex);  // may erase ex
}

// ---------------------------------------------------------------------------
// Worker loop: vertex processing
// ---------------------------------------------------------------------------

// One worker's batch buffers. Every batch reuses them, so a visit that the
// store serves without allocating allocates nothing here either.
struct BackendServer::BatchScratch {
  // One distinct vertex of the batch, in first-appearance order.
  struct Vertex {
    graph::VertexId vid = 0;
    uint32_t step = 0;         // the step it is first scheduled at (straggler matching)
    bool warm = false;         // re-read within the travel: block-cache cost
    bool exists = false;       // record found (or taken from the scan start)
    bool need_edges = false;   // some task expands it
    Status status;             // the failed read or edge scan, else OK
    graph::VertexRecord rec;
    // Its edges: the run [edges_begin, edges_end) of `edges`.
    uint32_t edges_begin = 0;
    uint32_t edges_end = 0;
  };
  // Every edge the batch reads; its encoded value is the run
  // [offset, offset + length) of `edge_bytes`.
  struct EdgeRef {
    graph::LabelId label;
    graph::VertexId dst;
    uint32_t offset;
    uint32_t length;
  };

  // `vertices` keeps its records between batches (their storage is reused);
  // the batch's are the first `num_vertices`.
  std::vector<Vertex> vertices;
  size_t num_vertices = 0;
  std::vector<uint32_t> task_vertex;  // per task: its vertex's index
  std::vector<EdgeRef> edges;
  std::string edge_bytes;
  std::vector<StepOutcome> outcomes;  // per task (owner tasks only)
  Targets targets;                    // the outcomes' expansions

  // Resets the buffers and indexes `batch`'s distinct vertices.
  void Start(const std::vector<VertexTask>& batch) {
    num_vertices = 0;
    task_vertex.clear();
    edges.clear();
    edge_bytes.clear();
    targets.clear();
    for (const VertexTask& t : batch) {
      uint32_t i = 0;
      while (i < num_vertices && vertices[i].vid != t.vid) i++;
      if (i == num_vertices) {
        if (num_vertices == vertices.size()) vertices.emplace_back();
        Vertex& v = vertices[num_vertices++];
        v.vid = t.vid;
        v.step = t.step;
        v.warm = v.exists = v.need_edges = false;
        v.status = Status::OK();
        v.edges_begin = v.edges_end = 0;
      }
      task_vertex.push_back(i);
    }
  }
};

void BackendServer::WorkerLoop() {
  std::vector<VertexTask> batch;
  BatchScratch scratch;
  while (queue_.PopBatch(&batch, cfg_.workers)) {
    if (batch.empty()) continue;
    ProcessBatch(batch, &scratch);
    DrainOutbox();  // flush sends staged under mu_ during processing
  }
}

void BackendServer::ProcessBatch(const std::vector<VertexTask>& batch, BatchScratch* scratch) {
  // PopBatch hands out merge groups of one travel: each distinct vertex is
  // read once, and one read serves every task queued for it.
  const TravelId travel = batch.front().travel;
  BatchScratch& sc = *scratch;
  sc.Start(batch);
  const size_t num_vertices = sc.num_vertices;
  auto vertex_of = [&](size_t task) -> BatchScratch::Vertex& {
    return sc.vertices[sc.task_vertex[task]];
  };

  std::shared_ptr<CompiledPlan> cplan;
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> travel_snap;
  {
    MutexLock lk(&mu_);
    auto it = locals_.find(travel);
    // Travel ended while queued: drop its tasks unread.
    if (it == locals_.end()) return;
    TravelLocal& tl = it->second;
    // The shared_ptr copies keep the plan and the pinned view alive through
    // the unlocked I/O phase even if an abort erases the record.
    cplan = tl.cplan;
    travel_snap = tl.snap;
    // Re-reads within a travel hit the storage engine's block cache.
    for (size_t i = 0; i < num_vertices; i++) {
      sc.vertices[i].warm = !tl.accessed.Insert(sc.vertices[i].vid);
    }
    // A scan-start root starts with the record its scan read, at the
    // same pinned view: it needs no point read of its own, and, being in
    // `accessed` now, later re-reads of it in this travel stay warm.
    for (size_t k = 0; k < batch.size(); k++) {
      BatchScratch::Vertex& v = vertex_of(k);
      assert(batch[k].travel == travel);
      if (batch[k].step != 0 || v.exists) continue;
      auto eit = tl.execs.find(batch[k].exec);
      if (eit != tl.execs.end() && eit->second->TakeRootRecord(batch[k].vid, &v.rec)) {
        v.exists = true;
      }
    }
  }
  const lang::TraversalPlan& plan = cplan->plan;
  const uint32_t num_steps = static_cast<uint32_t>(plan.num_steps());

  // --- I/O phase (no engine lock held) -------------------------------------
  // One pass over the batch's distinct vertices: read the record, unless a
  // scan-start root brought it, then scan the edges once if any task
  // expands the vertex. The vertex's step is current around both reads, so
  // straggler rules (which match on the accessing step) see it. A failed
  // read or scan fails its vertex. Sync-GT's tasks never merge, so each of
  // its vertices has one hop: it scans only that hop's label, as the
  // paper's baseline does, and so never fills the all-labels adjacency rows
  // the other engines read (DESIGN.md protocol note 5).
  const bool hop_label_only = cplan->mode == EngineMode::kSync;
  for (size_t k = 0; k < batch.size(); k++) {
    if (batch[k].step < num_steps) vertex_of(k).need_edges = true;
  }
  auto keep = [&sc](graph::LabelId label, graph::VertexId dst, std::string_view value) {
    sc.edges.push_back({label, dst, static_cast<uint32_t>(sc.edge_bytes.size()),
                        static_cast<uint32_t>(value.size())});
    sc.edge_bytes.append(value);
    return true;
  };
  for (size_t i = 0; i < num_vertices; i++) {
    BatchScratch::Vertex& v = sc.vertices[i];
    tls_current_step = static_cast<int>(v.step);
    if (!v.exists) {
      v.status = store_->GetVertex(v.vid, &v.rec, v.warm, travel_snap.get());
      v.exists = v.status.ok();
      if (v.status.IsNotFound()) v.status = Status::OK();  // absent: not an error
    }
    if (v.exists && v.need_edges) {
      v.edges_begin = static_cast<uint32_t>(sc.edges.size());
      if (hop_label_only) {
        const graph::LabelId label = plan.hops[v.step].edge_label;
        v.status = store_->ScanEdges(
            v.vid, label,
            [&keep, label](graph::VertexId dst, std::string_view value) {
              return keep(label, dst, value);
            },
            v.warm, travel_snap.get());
      } else {
        v.status = store_->ScanAllEdges(v.vid, keep, v.warm, travel_snap.get());
      }
      v.edges_end = static_cast<uint32_t>(sc.edges.size());
    }
    tls_current_step = -1;
  }

  visit_stats_.real_io.fetch_add(num_vertices);
  if (batch.size() > num_vertices) {
    visit_stats_.combined.fetch_add(batch.size() - num_vertices);
  }

  // Per-owner-task outcome, computed lock-free by the step evaluator. The
  // vertex's edges are in (label, dst) order: the hop's label is one
  // contiguous run.
  sc.outcomes.resize(batch.size());
  for (size_t i = 0; i < batch.size(); i++) {
    const VertexTask& t = batch[i];
    const BatchScratch::Vertex& v = vertex_of(i);
    if (!t.is_owner || !v.status.ok()) {
      sc.outcomes[i] = StepOutcome{};
      continue;
    }
    sc.outcomes[i] = EvaluateStep(
        plan, cplan->type_key, *catalog_, *partitioner_, t.step, v.exists ? &v.rec : nullptr,
        &sc.targets, [&](graph::LabelId label, auto&& visit) {
          const auto last = sc.edges.begin() + v.edges_end;
          auto eit = std::lower_bound(
              sc.edges.begin() + v.edges_begin, last, label,
              [](const BatchScratch::EdgeRef& e, graph::LabelId l) { return e.label < l; });
          for (; eit != last && eit->label == label; ++eit) {
            visit(eit->dst, std::string_view(sc.edge_bytes).substr(eit->offset, eit->length));
          }
        });
  }

  // --- apply phase (engine lock) --------------------------------------------
  // Every owner task's expansion joins the travel's pending frame for its
  // (next step, destination), whichever execution owns the task; the
  // frames leave, and the executions whose last task ran settle, once the
  // travel has no task left on this server (FlushQuiescentLocked).
  MutexLock lk(&mu_);
  auto it = locals_.find(travel);
  if (it == locals_.end()) return;  // travel aborted during the I/O phase
  TravelLocal& tl = it->second;
  LocalWork& work = tl.work;
  const BatchScratch::Vertex* failed = nullptr;
  for (size_t i = 0; i < batch.size(); i++) {
    const VertexTask& t = batch[i];
    auto eit = tl.execs.find(t.exec);
    if (eit == tl.execs.end()) continue;  // exec gone (abort)
    ExecState& exec = *eit->second;
    if (!vertex_of(i).status.ok()) {
      // Not applied, and the task stays unprocessed: its execution never
      // terminates, so no delivery order completes the travel before the
      // coordinator fails it.
      if (failed == nullptr) failed = &vertex_of(i);
      continue;
    }
    StepOutcome& out = sc.outcomes[i];
    auto expand = [&](ServerId server, graph::VertexId dst, graph::VertexId parent,
                      ExecId owner) {
      work.expansions.push_back(LocalWork::Expansion{t.step + 1, server, dst, parent, owner});
    };
    const auto targets_first = sc.targets.begin() + out.targets_begin;
    const auto targets_last = sc.targets.begin() + out.targets_end;

    if (!t.is_owner) {
      // A redundant Async-GT arrival: its read is paid; the owner applies.
    } else if (plan.result_mode == lang::ResultMode::kPaths) {
      // kPaths bypasses the memo: every task is an owner task, and each
      // distinct prefix of the vertex extends through every passing edge
      // independently (dst->parents merging would garble the prefixes).
      const auto ppit = exec.path_prefixes.find(t.vid);
      if (out.passed && ppit != exec.path_prefixes.end()) {
        if (out.final_step) {
          for (const auto& prefix : ppit->second) {
            std::vector<graph::VertexId> path = prefix;
            path.push_back(t.vid);
            exec.result_paths.push_back(std::move(path));
          }
        } else {
          for (auto tit = targets_first; tit != targets_last; ++tit) {
            Frontier& entries = work.path_frames[{t.step + 1, tit->first}];
            for (const auto& prefix : ppit->second) {
              entries.Add(tit->second, prefix.begin(), prefix.end());
              entries.AddParent(t.vid);
            }
          }
        }
      }
    } else if (!cplan->attribution) {
      // Direct protocol: resolve the memo (for redundancy absorption) and
      // collect results/expansion; no per-vertex answer bookkeeping, and no
      // waiters (only attribution arrivals register them).
      tl.memo.Resolve(t.step, t.vid, out.passed, [](const TravelMemo::Waiter&) {});
      if (out.passed && out.final_step) {
        exec.results.push_back(t.vid);
        if (plan.result_mode == lang::ResultMode::kGroup) {
          exec.result_values.push_back(std::move(out.group_value));
        }
      } else if (out.passed) {
        for (auto tit = targets_first; tit != targets_last; ++tit) {
          expand(tit->first, tit->second, 0, 0);  // parents not tracked
        }
      }
    } else if (out.passed && out.final_step) {
      ResolveVertexLocked(tl, exec, t.vid, true, /*from_owner=*/true);
    } else if (!out.passed || targets_first == targets_last) {
      ResolveVertexLocked(tl, exec, t.vid, false, /*from_owner=*/true);
    } else {
      exec.FindVertex(t.vid)->awaiting = true;
      for (auto tit = targets_first; tit != targets_last; ++tit) {
        expand(tit->first, tit->second, t.vid, exec.id);
      }
    }
    if (--exec.owned_unprocessed == 0) work.ran.push_back(exec.id);
  }
  if (failed != nullptr) {
    FailOnErrorLocked(tl, "vertex " + std::to_string(failed->vid), failed->status);
  }

  assert(work.tasks >= batch.size());
  work.tasks -= batch.size();
  if (work.tasks > 0) return;
  FlushQuiescentLocked(tl);
}

void BackendServer::ResolveVertexLocked(TravelLocal& tl, ExecState& exec, graph::VertexId vid,
                                        bool reach, bool from_owner) {
  if (exec.answered) return;
  ExecState::EntryVertex* v = exec.FindVertex(vid);
  if (v == nullptr || v->resolved) return;  // not an entry, or already decided
  v->resolved = true;
  v->awaiting = false;
  exec.unresolved--;
  if (reach) {
    v->reached = true;
    // rtn()/final-result emission happens exactly once, at the owner.
    if (v->owned) {
      const lang::TraversalPlan& plan = tl.cplan->plan;
      const bool is_final = exec.step >= plan.num_steps();
      if (RtnAtStep(plan, exec.step) || (is_final && !plan.has_rtn())) {
        exec.results.push_back(vid);
      }
    }
  }
  if (!from_owner || !v->owned) return;
  // The redundant arrivals waiting on this vertex take its verdict; each
  // belongs to another execution, which may now answer.
  tl.memo.Resolve(exec.step, vid, reach, [&](const TravelMemo::Waiter& w) {
    auto it = tl.execs.find(w.exec);
    if (it == tl.execs.end()) return;
    ResolveVertexLocked(tl, *it->second, w.vid, reach, /*from_owner=*/false);
    TryAnswerLocked(tl, *it->second);
  });
}

void BackendServer::AdmitExecLocked(TravelLocal& tl, ExecState& exec) {
  if (exec.owned_unprocessed > 0) {
    tl.work.tasks += exec.owned_unprocessed;
    return;
  }
  SettleExecLocked(tl, exec);  // no pending frame carries its vertices
  if (tl.work.tasks == 0) FlushTraceBufferLocked(tl);
}

void BackendServer::FlushQuiescentLocked(TravelLocal& tl) {
  const CompiledPlan& cplan = *tl.cplan;
  LocalWork& work = tl.work;
  visit_stats_.local_flushes.fetch_add(1, std::memory_order_relaxed);
  // Sending first queues each frame's creation item ahead of the
  // terminations below, and counts the frames in their executions' children.
  auto send = [&](uint32_t step, ServerId server, Frontier entries, ExecId dispatch) {
    const ExecId child = SendTraverseLocked(cplan, tl.id, step, dispatch, server,
                                            std::move(entries), /*scan_start=*/false);
    QueueTraceItemLocked(tl, TraceItem{child, step, 1});
  };
  std::vector<LocalWork::Expansion>& ex = work.expansions;
  std::sort(ex.begin(), ex.end());
  for (size_t lo = 0, hi = 0; lo < ex.size(); lo = hi) {
    while (hi < ex.size() && ex[hi].step == ex[lo].step && ex[hi].server == ex[lo].server) hi++;
    // The frame's entries: its distinct destinations, vid-sorted, each with
    // its distinct parents on the attribution protocol.
    Frontier entries;
    entries.vids.reserve(hi - lo);
    entries.ends.reserve(hi - lo);
    if (cplan.attribution) entries.parents.reserve(hi - lo);
    for (size_t k = lo; k < hi; k++) {
      const bool new_dst = k == lo || ex[k].dst != ex[k - 1].dst;
      if (new_dst) entries.Add(ex[k].dst);
      if (cplan.attribution && (new_dst || ex[k].parent != ex[k - 1].parent)) {
        entries.AddParent(ex[k].parent);
      }
    }
    ExecId dispatch = 0;
    if (cplan.attribution) {
      DispatchRecord record;
      record.parents.reserve(hi - lo);
      for (size_t k = lo; k < hi; k++) record.parents.emplace_back(ex[k].owner, ex[k].parent);
      std::sort(record.parents.begin(), record.parents.end());
      record.parents.erase(std::unique(record.parents.begin(), record.parents.end()),
                           record.parents.end());
      record.parents.shrink_to_fit();  // it waits for the frame's answer
      // The frame is one child of every execution it carries vertices of,
      // counted once per execution however its vertices interleave.
      for (size_t k = 0; k < record.parents.size(); k++) {
        const ExecId owner = record.parents[k].first;
        if (k > 0 && owner == record.parents[k - 1].first) continue;
        if (auto eit = tl.execs.find(owner); eit != tl.execs.end()) {
          eit->second->children_outstanding++;
        }
      }
      dispatch = MakeExecId(cfg_.id, next_exec_seq_++);
      tl.dispatches.emplace(dispatch, std::move(record));
    }
    send(ex[lo].step, ex[lo].server, std::move(entries), dispatch);
  }
  ex.clear();
  for (auto& [key, entries] : work.path_frames) send(key.first, key.second, std::move(entries), 0);
  work.path_frames.clear();
  if (!cplan.attribution) {
    // Direct protocol (paper Fig. 3): the results of the executions that
    // ran go straight to the coordinator in one message, ahead of the
    // terminations that cover them.
    AnswerPayload ans;
    ans.travel_id = tl.id;  // parent_exec 0: travel-level accumulation
    for (ExecId id : work.ran) {
      auto eit = tl.execs.find(id);
      if (eit == tl.execs.end()) continue;
      ExecState& exec = *eit->second;
      ans.result_vids.insert(ans.result_vids.end(), exec.results.begin(), exec.results.end());
      std::move(exec.result_values.begin(), exec.result_values.end(),
                std::back_inserter(ans.result_values));
      std::move(exec.result_paths.begin(), exec.result_paths.end(),
                std::back_inserter(ans.result_paths));
    }
    if (!ans.result_vids.empty() || !ans.result_paths.empty()) {
      QueueSendLocked(rpc::MsgType::kReturnVertices, cplan.coordinator, ans.Encode());
    }
  }
  for (ExecId id : work.ran) {
    auto eit = tl.execs.find(id);
    if (eit != tl.execs.end()) SettleExecLocked(tl, *eit->second);  // may erase it
  }
  work.ran.clear();
  FlushTraceBufferLocked(tl);
}

void BackendServer::SettleExecLocked(TravelLocal& tl, ExecState& exec) {
  if (exec.owned_unprocessed > 0 || exec.dispatched) return;
  exec.dispatched = true;
  const TraceItem terminated{exec.id, exec.step, 0};
  if (!tl.cplan->attribution) {
    // Direct protocol: the execution's results left with its flush, so it
    // is finished once it has dispatched.
    tl.execs.erase(exec.id);  // exec is dangling after this line
    QueueTraceItemLocked(tl, terminated);
    return;
  }
  // Status tracing (Section IV-C): report the termination, then answer once
  // every vertex resolved (every frame of an earlier batch may have
  // answered already).
  QueueTraceItemLocked(tl, terminated);
  ResolveUnreachedLocked(tl, exec);
  TryAnswerLocked(tl, exec);
}

void BackendServer::ResolveUnreachedLocked(TravelLocal& tl, ExecState& exec) {
  if (!exec.dispatched || exec.children_outstanding > 0) return;
  for (size_t i = 0; i < exec.vertices.size(); i++) {
    if (exec.vertices[i].awaiting) {
      ResolveVertexLocked(tl, exec, exec.vertices[i].vid, false, /*from_owner=*/true);
    }
  }
}

void BackendServer::TryAnswerLocked(TravelLocal& tl, ExecState& exec) {
  if (exec.answered || !exec.dispatched || exec.owned_unprocessed > 0 ||
      exec.children_outstanding > 0 || exec.unresolved > 0) {
    return;
  }
  exec.answered = true;

  AnswerPayload ans;
  ans.travel_id = tl.id;
  ans.exec_id = exec.id;
  ans.parent_exec = exec.parent_exec;
  auto& reached_parents = ans.reached_parents;
  for (const ExecState::EntryVertex& v : exec.vertices) {
    if (!v.reached) continue;
    reached_parents.insert(reached_parents.end(), exec.parents.begin() + v.parents_begin,
                           exec.parents.begin() + v.parents_end);
  }
  std::sort(reached_parents.begin(), reached_parents.end());
  reached_parents.erase(std::unique(reached_parents.begin(), reached_parents.end()),
                        reached_parents.end());
  ans.result_vids = std::move(exec.results);
  QueueSendLocked(rpc::MsgType::kReturnVertices, exec.parent_server, ans.Encode());
  tl.execs.erase(exec.id);  // exec is dangling after this line
}

void BackendServer::HandleAnswer(rpc::Message&& msg) {
  auto ans = AnswerPayload::Decode(msg.payload);
  if (!ans.ok()) return;

  MutexLock lk(&mu_);

  if (ans->parent_exec == 0) {
    // Travel-level accounting at the coordinator.
    auto it = travels_.find(ans->travel_id);
    if (it == travels_.end()) return;
    TravelState& ts = it->second;
    if (!FoldResultsLocked(ts, ans->result_vids, ans->result_values, ans->result_paths)) return;
    // Direct protocol: completion comes from status tracing.
    if (ts.cplan == nullptr || !ts.cplan->attribution) return;
    if (ts.root_outstanding > 0) ts.root_outstanding--;
    if (ts.root_outstanding == 0) CompleteTravelLocked(ts, Status::OK());
    return;
  }

  // The answer to one frame: erasing its record on first delivery makes a
  // duplicated answer a no-op.
  auto lit = locals_.find(ans->travel_id);
  if (lit == locals_.end()) return;
  TravelLocal& tl = lit->second;
  auto rit = tl.dispatches.find(ans->parent_exec);
  if (rit == tl.dispatches.end()) return;
  const DispatchRecord record = std::move(rit->second);
  tl.dispatches.erase(rit);

  // Each reached parent vid resolves in its owner execution. No owner can
  // answer before the loop below counts the frame off.
  std::sort(ans->reached_parents.begin(), ans->reached_parents.end());
  for (const auto& [owner, vid] : record.parents) {
    if (!std::binary_search(ans->reached_parents.begin(), ans->reached_parents.end(), vid)) {
      continue;
    }
    auto eit = tl.execs.find(owner);
    if (eit != tl.execs.end()) {
      ResolveVertexLocked(tl, *eit->second, vid, true, /*from_owner=*/true);
    }
  }
  // Results pass through one parent; each parent counts the frame once
  // (the record is sorted by owner).
  bool results_attached = false;
  for (size_t k = 0; k < record.parents.size(); k++) {
    const ExecId owner = record.parents[k].first;
    if (k > 0 && owner == record.parents[k - 1].first) continue;
    auto eit = tl.execs.find(owner);
    if (eit == tl.execs.end()) continue;
    ExecState& exec = *eit->second;
    if (!results_attached) {
      exec.results.insert(exec.results.end(), ans->result_vids.begin(), ans->result_vids.end());
      results_attached = true;
    }
    if (exec.children_outstanding > 0) exec.children_outstanding--;
    ResolveUnreachedLocked(tl, exec);
    TryAnswerLocked(tl, exec);  // may erase exec
  }
}

// ---------------------------------------------------------------------------
// Live updates + point queries (client -> owning server, Section I reqs)
// ---------------------------------------------------------------------------

void BackendServer::HandleMutation(rpc::Message&& msg) {
  auto reply_ack = [&](const Status& st) {
    MutateAckPayload ack;
    ack.ok = st.ok() ? 1 : 0;
    ack.error = st.message();
    ack.code = static_cast<uint8_t>(st.code());
    SendLossy(rpc::MsgType::kMutateAck, msg.src, ack.Encode(), msg.rpc_id);
  };

  // Clients may address any server; requests for records owned elsewhere
  // are forwarded to the owner, which replies to the client directly (the
  // original src rides along on the forwarded message).
  auto forward_if_foreign = [&](graph::VertexId anchor) {
    const ServerId owner = partitioner_->ServerFor(anchor);
    if (owner == cfg_.id) return false;
    rpc::Message fwd = msg;
    fwd.dst = owner;
    SendLossy(std::move(fwd));
    return true;
  };

  // A catalog replica that cannot reach the authority interns nothing
  // (kInvalidId): the mutation is refused, not stored under no name.
  // Returns false once the refusal is acked.
  auto interned = [&](graph::LabelId label, const graph::PropMap& props) {
    bool ok = label != graph::Catalog::kInvalidId;
    for (const auto& [key, value] : props) ok = ok && key != graph::Catalog::kInvalidId;
    if (!ok) reply_ack(Status::Unavailable("catalog cannot intern a label or property"));
    return ok;
  };

  switch (msg.type) {
    case rpc::MsgType::kPutVertex: {
      auto req = PutVertexPayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->vid)) return;
      graph::VertexRecord rec;
      rec.id = req->vid;
      rec.label = catalog_->Intern(req->label);
      rec.props = InternProps(req->props, catalog_);
      if (!interned(rec.label, rec.props)) return;
      reply_ack(store_->PutVertex(rec));
      return;
    }
    case rpc::MsgType::kPutEdge: {
      auto req = PutEdgePayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->src)) return;  // edge-cut: edges live with src
      // Referential integrity: an edge whose endpoint vertex does not exist
      // is a dangling reference no traversal can ever resolve. `src` is
      // always local here (the forward above routed us to its owner), so it
      // is checked authoritatively; `dst` is checked when it is ours and
      // only counted when it lives on another shard (a synchronous
      // cross-shard existence RPC on the ingest hot path is not worth it).
      if (!store_->HasVertex(req->src)) {
        dangling_edges_rejected_->Inc();
        return reply_ack(Status::NotFound("dangling edge: src vertex " +
                                          std::to_string(req->src) + " does not exist"));
      }
      if (partitioner_->ServerFor(req->dst) == cfg_.id) {
        if (!store_->HasVertex(req->dst)) {
          dangling_edges_rejected_->Inc();
          return reply_ack(Status::NotFound("dangling edge: dst vertex " +
                                            std::to_string(req->dst) + " does not exist"));
        }
      } else {
        edge_dst_unverified_->Inc();
      }
      graph::EdgeRecord rec;
      rec.src = req->src;
      rec.label = catalog_->Intern(req->label);
      rec.dst = req->dst;
      rec.props = InternProps(req->props, catalog_);
      if (!interned(rec.label, rec.props)) return;
      reply_ack(store_->PutEdge(rec));
      return;
    }
    case rpc::MsgType::kDeleteVertex: {
      auto req = GetVertexPayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->vid)) return;
      reply_ack(store_->DeleteVertex(req->vid));
      return;
    }
    case rpc::MsgType::kGetVertex: {
      auto req = GetVertexPayload::Decode(msg.payload);
      if (!req.ok()) return;
      if (forward_if_foreign(req->vid)) return;
      VertexReplyPayload out;
      out.vid = req->vid;
      graph::VertexRecord rec;
      const Status st = store_->GetVertex(req->vid, &rec);
      if (st.ok()) {
        out.found = 1;
        out.label = catalog_->Name(rec.label).value_or("?");
        for (const auto& [key, value] : rec.props) {
          out.props.emplace_back(catalog_->Name(key).value_or("?"), value);
        }
      } else if (!st.IsNotFound()) {
        out.code = static_cast<uint8_t>(st.code());
        out.message = st.message();
      }
      SendLossy(rpc::MsgType::kVertexReply, msg.src, out.Encode(), msg.rpc_id);
      return;
    }
    default:
      return;
  }
}

// Distributed catalog authority (clients conventionally address server 0;
// in-process clusters share the catalog object so any server can answer).
void BackendServer::HandleCatalog(rpc::Message&& msg) {
  CatalogReplyPayload out;
  if (msg.type == rpc::MsgType::kCatalogIntern) {
    auto req = CatalogInternPayload::Decode(msg.payload);
    if (req.ok()) out.id = catalog_->Intern(req->name);
  } else {
    out.names = catalog_->Snapshot();
  }
  SendLossy(rpc::MsgType::kCatalogReply, msg.src, out.Encode(), msg.rpc_id);
}

// ---------------------------------------------------------------------------
// Status tracing + progress + failure detection
// ---------------------------------------------------------------------------

void BackendServer::ApplyTraceItemLocked(TravelState& ts, const TraceItem& item) {
  if (item.step >= ts.unfinished_per_step.size()) {
    ts.unfinished_per_step.resize(item.step + 1, 0);
  }
  const bool existed = ts.execs.count(item.exec) != 0;
  auto& trace = ts.execs[item.exec];
  if (item.created != 0) {
    if (trace.created) return;
    trace.created = true;
    trace.step = item.step;
    RecordStepEventLocked(ts, item.step, /*created=*/true);
    ts.total_created++;
    if (!existed) {
      ts.incomplete_execs++;
    } else if (trace.terminated) {
      ts.incomplete_execs--;
    }
    if (!trace.terminated) ts.unfinished_per_step[item.step]++;
  } else {
    if (trace.terminated) return;
    trace.terminated = true;
    RecordStepEventLocked(ts, trace.created ? trace.step : item.step,
                          /*created=*/false);
    ts.total_terminated++;
    if (!existed) {
      ts.incomplete_execs++;
    } else if (trace.created) {
      ts.incomplete_execs--;
    }
    if (trace.created) {
      if (ts.unfinished_per_step[trace.step] > 0) ts.unfinished_per_step[trace.step]--;
    } else {
      trace.step = item.step;  // termination raced ahead of creation
    }
  }
}

void BackendServer::HandleTraceBatch(rpc::Message&& msg) {
  auto batch = TraceBatchPayload::Decode(msg.payload);
  if (!batch.ok()) return;
  MutexLock lk(&mu_);
  auto it = travels_.find(batch->travel_id);
  if (it == travels_.end()) return;
  TravelState& ts = it->second;
  ts.last_activity_us = NowMicros();
  for (const auto& item : batch->items) ApplyTraceItemLocked(ts, item);
  if (ts.cplan == nullptr) return;
  if (!ts.cplan->attribution && ts.total_created > 0 && ts.incomplete_execs == 0) {
    CompleteTravelLocked(ts, Status::OK());
    return;
  }
  if (ts.mode == EngineMode::kSync) MaybeReleaseStepLocked(ts);
}

// A frame's creation item leaves its sender ahead of the terminations of
// the executions whose vertices it carries, so once every execution of the
// released steps has terminated, every creation of the next step is known
// here.
void BackendServer::MaybeReleaseStepLocked(TravelState& ts) {
  const std::vector<uint32_t>& unfinished = ts.unfinished_per_step;
  const uint32_t next = ts.released_step + 1;
  if (next >= unfinished.size() || unfinished[next] == 0) return;
  for (uint32_t step = 0; step < next; step++) {
    if (unfinished[step] > 0) return;
  }
  ts.released_step = next;
  const std::string release = ReleaseStepPayload{ts.id, next}.Encode();
  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    QueueSendLocked(rpc::MsgType::kReleaseStep, s, release);
  }
}

// Starts the travel's held frames of every released step. A re-delivered
// release finds none. The release may overtake a frame of its step on an
// unordered transport: the step stays released here, so that frame starts
// on arrival.
void BackendServer::HandleReleaseStep(rpc::Message&& msg) {
  auto release = ReleaseStepPayload::Decode(msg.payload);
  if (!release.ok()) return;
  MutexLock lk(&mu_);
  if (aborted_travels_.count(release->travel_id) != 0) return;
  TravelLocal& tl = LocalLocked(release->travel_id);
  tl.released = std::max(tl.released, release->step);
  if (tl.cplan == nullptr) return;  // no frame of the travel arrived here yet
  std::vector<TraversePayload> frames;
  frames.swap(tl.held);
  for (auto& req : frames) {
    if (req.step > tl.released) {
      tl.held.push_back(std::move(req));
    } else {
      StartExecLocked(tl, req);
    }
  }
}

void BackendServer::HandleProgress(rpc::Message&& msg) {
  auto travel = DecodeTravelId(msg.payload);
  ProgressPayload progress;
  {
    MutexLock lk(&mu_);
    if (travel.ok()) {
      auto it = travels_.find(*travel);
      if (it != travels_.end()) {
        progress.travel_id = *travel;
        progress.unfinished_per_step = it->second.unfinished_per_step;
        progress.total_created = it->second.total_created;
        progress.total_terminated = it->second.total_terminated;
      }
    }
  }
  SendLossy(rpc::MsgType::kProgressReply, msg.src, progress.Encode(), msg.rpc_id);
}

void BackendServer::HandleAbort(rpc::Message&& msg) {
  auto abort = AbortPayload::Decode(msg.payload);
  if (!abort.ok()) return;
  const TravelId travel = abort->travel_id;

  MutexLock lk(&mu_);

  // If this server coordinates the travel and it is still live, route the
  // abort through the normal completion path: that releases the admission
  // slot, notifies the client, and re-broadcasts the cleanup to every
  // server. The local-state erasure below still runs for this delivery.
  auto tit = travels_.find(travel);
  if (tit != travels_.end() && !tit->second.done) {
    if (abort->reason == AbortPayload::kCancel) travel_cancelled_->Inc();
    // Cancelled travels return no results; a participant's failure carries
    // its Status. A cancelled branch child fails its parent with the
    // child's status, unless the parent initiated the cancel (done already).
    FailTravelLocked(tit->second, abort->code != 0
                                      ? StatusFromWire(abort->code, std::move(abort->message))
                                      : Status::Aborted("travel cancelled"));
  }

  aborted_travels_.insert(travel);
  aborted_order_.push_back(travel);
  while (aborted_order_.size() > kMaxAbortTombstones) {
    aborted_travels_.erase(aborted_order_.front());
    aborted_order_.pop_front();
  }

  if (auto it = locals_.find(travel); it != locals_.end()) {
    // Release the pinned view (unblocking compaction GC) — or park it for
    // the differential harness when test retention is on. Workers mid-batch
    // still hold their shared_ptr copy; the KV snapshot is handed back only
    // when the last holder drops it. The travel's tasks still queued here
    // stay queued: ProcessBatch drops them, unread, when they pop.
    if (cfg_.retain_snapshots_for_test) retained_snaps_[travel] = it->second.snap;
    locals_.erase(it);  // the memo goes with the record
  }
  travels_.erase(travel);
}

void BackendServer::SendLossy(rpc::MsgType type, rpc::EndpointId dst, std::string payload,
                              uint64_t rpc_id) {
  SendLossy(rpc::Message{type, cfg_.id, dst, rpc_id, std::move(payload)});
}

void BackendServer::SendLossy(rpc::Message msg) {
  const rpc::EndpointId dst = msg.dst;
  Status s = transport_->Send(std::move(msg));
  if (!s.ok()) {
    send_failures_.fetch_add(1);
    GT_WARN << "server " << cfg_.id << ": send to endpoint " << dst
            << " failed: " << s.ToString();
  }
}

void BackendServer::MaintenanceLoop() {
  const auto interval =
      std::chrono::milliseconds(std::max<uint32_t>(1, cfg_.maintenance_interval_ms));
  while (!stop_.load()) {
    {
      // Interruptible sleep: Stop() signals maint_cv_ so shutdown never
      // waits out a full interval (and long TSan/soak intervals stay cheap).
      MutexLock lk(&maint_mu_);
      if (maint_stop_) return;
      maint_cv_.WaitFor(interval);
      if (maint_stop_) return;
    }
    std::vector<TravelId> deadline_exceeded;
    std::vector<TravelId> failed;
    {
      MutexLock lk(&mu_);
      const uint64_t now = NowMicros();
      for (auto& [id, ts] : travels_) {
        if (ts.done) continue;
        // Branch parents do no engine work: their children inherit the
        // absolute deadline and carry their own activity timeouts, and any
        // child failure propagates up through the fold. Enforcing the
        // parent's own last_activity would race the children's progress.
        if (ts.pending_children > 0) continue;
        if (ts.deadline_us != 0 && now > ts.deadline_us) {
          deadline_exceeded.push_back(id);
        } else if (now - ts.last_activity_us >
                   static_cast<uint64_t>(ts.timeout_ms) * 1000) {
          failed.push_back(id);
        }
      }
      for (TravelId id : deadline_exceeded) {
        auto it = travels_.find(id);
        if (it == travels_.end()) continue;
        travel_deadline_exceeded_->Inc();
        // Deadline expiry is final: Timeout is not retryable client-side.
        FailTravelLocked(it->second, Status::Timeout("travel deadline exceeded"));
      }
      for (TravelId id : failed) {
        auto it = travels_.find(id);
        if (it == travels_.end()) continue;
        GT_WARN << "server " << cfg_.id << ": traversal " << id
                << " timed out (execution created but never terminated); failing";
        // The paper's recovery story: detect via the trace registry and
        // restart the whole traversal. Aborted is the client's retry signal.
        FailTravelLocked(it->second, Status::Aborted("execution lost"));
      }
    }
    DrainOutbox();  // completions staged under mu_
  }
}

}  // namespace gt::engine
