// BackendServer: one GraphTrek traversal-engine daemon. Each backend server
// owns a GraphStore (its shard of the property graph), a request queue
// drained by worker threads, a traversal-affiliate cache, and — for
// traversals it coordinates — the status-tracing registry and client-facing
// result stream.
//
// One executor runs all three engines under evaluation; the mode travels
// with each traversal. Every arrival is classified against the
// traversal-affiliate cache, every vertex goes through the same step
// evaluator and every frame leaves at the travel's local quiescence. The
// engines differ only in policy:
//   Async-GT   - a redundant arrival still queues an I/O-only task that
//                pays its read and applies nothing; FIFO tasks, no merging
//   GraphTrek  - redundant arrivals are absorbed without I/O, plus
//                smallest-step-first scheduling and execution merging
//   Sync-GT    - absorbs like GraphTrek with FIFO, unmerged tasks, plus a
//                barrier (Section VI): a server holds the step-k frames it
//                receives until the coordinator sees every earlier step
//                drain and broadcasts the step's release
#pragma once

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/engine/request_queue.h"
#include "src/engine/travel_cache.h"
#include "src/engine/travel_trace.h"
#include "src/engine/types.h"
#include "src/engine/visit_stats.h"
#include "src/graph/graph_store.h"
#include "src/graph/partitioner.h"
#include "src/lang/gtravel.h"
#include "src/lang/planner.h"
#include "src/rpc/transport.h"

namespace gt::engine {

struct ServerConfig {
  ServerId id = 0;
  uint32_t num_servers = 1;
  uint32_t workers = 2;               // worker threads (parallel I/O depth)
  size_t cache_capacity = 1 << 20;    // traversal-affiliate cache entries
  uint32_t exec_timeout_ms = 15000;   // coordinator failure-detection window
  uint32_t result_chunk = 4096;       // vids per kResultChunk message
  // Maintenance tick period: the resolution of failure detection and
  // deadline enforcement. Frames and trace items never wait on it (they
  // leave on local quiescence); raise it for TSan/soak runs.
  uint32_t maintenance_interval_ms = 5;

  // Admission control (coordinator role). A submit is rejected with
  // Unavailable when the total in-flight table is full or the submitting
  // priority class is at its limit. 0 = unlimited.
  uint32_t max_inflight_travels = 4096;
  std::array<uint32_t, kNumTravelClasses> admission_limits{{64, 512, 2048}};

  // Ablation knobs for the GraphTrek mode (both on in the full system).
  bool graphtrek_merging = true;        // execution merging (Section V-B)
  bool graphtrek_priority_sched = true; // smallest-step-first scheduling

  // Per-travel snapshot isolation. When on, every travel pins a KV read
  // snapshot on each participating server at admission (coordinator) or on
  // first contact (kPinTravel broadcast / lazy first-touch, whichever lands
  // first), and every traversal read on that server is bounded to the
  // pinned view — travels racing live mutations see a consistent
  // point-in-time graph instead of a torn mix of old and new state. Off
  // reproduces the historical read-latest behaviour (torn-read control for
  // tests/benches).
  bool snapshot_isolation = true;
  // Test hook: keep each travel's released snapshot in a side map instead
  // of dropping it at cleanup, so the differential harness can dump the
  // exact pinned view a finished travel saw (Cluster::DumpAtTravelPin).
  // Callers must drain via DropRetainedSnapshotsForTest.
  bool retain_snapshots_for_test = false;
};

class BackendServer {
 public:
  BackendServer(ServerConfig cfg, graph::GraphStore* store,
                const graph::Partitioner* partitioner, graph::Catalog* catalog,
                rpc::Transport* transport);
  ~BackendServer();

  BackendServer(const BackendServer&) = delete;
  BackendServer& operator=(const BackendServer&) = delete;

  // Registers the endpoint and starts worker + maintenance threads.
  Status Start();
  void Stop();

  ServerId id() const { return cfg_.id; }
  const VisitStats& visit_stats() const { return visit_stats_; }
  void ResetVisitStats() { visit_stats_.Reset(); }
  size_t queue_depth() const { return queue_.size(); }
  size_t cache_size() const;
  uint64_t cache_evictions() const;
  graph::GraphStore* store() { return store_; }
  // Transport sends that failed (peer unreachable after retries). The engine
  // tolerates loss — status tracing restarts lost work — but the count feeds
  // the ops stats line.
  uint64_t send_failures() const { return send_failures_.load(); }

  // Recently completed travels this server coordinated (oldest first,
  // bounded archive), with per-step execution spans.
  std::vector<TravelTrace> RecentTraces() const GT_EXCLUDES(mu_);
  // Renders the archived trace for `travel` (0 = most recent) as Chrome
  // trace-event JSON. False when the travel is not in the archive.
  bool ExportTraceJson(TravelId travel, std::string* json) const GT_EXCLUDES(mu_);

  // True while any per-travel engine state (plan, execs, local work and
  // its pending frames, held Sync-GT frames, dispatch records, coordinator
  // entry, memo/access/type-scan maps, pinned snapshot) survives for
  // `travel`. The cancellation contract is that an abort reclaims
  // everything; tests poll this on every server after cancelling.
  bool HasTravelResidue(TravelId travel) const GT_EXCLUDES(mu_);

  // The snapshot `travel` is pinned to on this server: the live pin while
  // the travel runs, or the retained copy after cleanup when
  // cfg.retain_snapshots_for_test is set. Null when never pinned.
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> TravelSnapshotForTest(
      TravelId travel) const GT_EXCLUDES(mu_);
  // Drains the test-retention side map (releases the underlying KV
  // snapshots once the last outside reference drops).
  void DropRetainedSnapshotsForTest() GT_EXCLUDES(mu_);

 private:
  // --- shared traversal bookkeeping ---------------------------------------

  struct CompiledPlan {
    // The executable plan: repeat hops expanded into linear cohorts
    // (TraversalPlan::Unrolled), never carrying a branch — the coordinator
    // flattens branches into per-alternative child travels before any
    // engine sees them. plan_bytes stays the compact wire form so hand-offs
    // forward what arrived.
    lang::TraversalPlan plan;
    std::string plan_bytes;  // serialized (compact) form forwarded on hand-offs
    EngineMode mode = EngineMode::kGraphTrek;
    ServerId coordinator = 0;
    graph::Catalog::Id type_key = graph::Catalog::kInvalidId;
    // True when an rtn() marks a non-final step: results must then be
    // attributed per vertex through the execution-tree answer flow (the
    // generalized Fig. 4 relay). Plans without intermediate rtn() take the
    // paper's direct protocol: final vertices return straight to the
    // coordinator and completion is detected purely by status tracing.
    bool attribution = false;
    // Exec ids already delivered for this travel (guarded by the server
    // mu_, like the plans_ map itself). Hand-off frames are absorbed
    // first-delivery-wins: a re-delivered frame replayed against live exec
    // state corrupts the unresolved/children accounting, and replayed
    // against an already-erased exec it re-answers the parent and lets the
    // travel complete without its siblings' results.
    std::unordered_set<ExecId> seen_execs;
  };

  // Execution state (one per kTraverse request). Its owner tasks' expansion
  // joins the travel's pending frames (ProcessBatch); the execution itself
  // only reports termination: at the travel's next local quiescence, or on
  // arrival when it queued no task.
  struct ExecState {
    TravelId travel = 0;
    ExecId id = 0;
    uint32_t step = 0;
    ServerId parent_server = 0;
    // The sender's dispatch id (attribution protocol), 0 for roots and the
    // direct protocol: the answer goes to that dispatch record, or to the
    // coordinator's travel-level accounting.
    ExecId parent_exec = 0;

    // Attribution protocol: the execution's vertex table, one record per
    // distinct entry vertex, vid-sorted and built once at the start. Each
    // record's previous-step parents (for the answer upward) are
    // parents[parents_begin, parents_end).
    struct EntryVertex {
      graph::VertexId vid = 0;
      uint32_t parents_begin = 0;
      uint32_t parents_end = 0;
      bool owned = false;     // this execution performs its I/O + expansion
      bool awaiting = false;  // owned, reach awaits child answers
      bool resolved = false;  // reach decided
      bool reached = false;   // decided true
    };
    std::vector<EntryVertex> vertices;
    std::vector<graph::VertexId> parents;
    // The vertex's record, or null when it is not an entry of this execution.
    EntryVertex* FindVertex(graph::VertexId vid) {
      auto it = std::lower_bound(
          vertices.begin(), vertices.end(), vid,
          [](const EntryVertex& v, graph::VertexId x) { return v.vid < x; });
      return it != vertices.end() && it->vid == vid ? &*it : nullptr;
    }
    // Vertices not yet resolved to reach/no-reach.
    size_t unresolved = 0;
    // Queued tasks (owner and Async-GT I/O-only) not yet processed.
    size_t owned_unprocessed = 0;

    // Set once the termination was reported: after the last task ran and
    // the travel's frames left, or on arrival when no task was queued.
    bool dispatched = false;
    // Sent frames carrying this execution's vertices not yet answered
    // (attribution protocol; each frame counts once per execution).
    uint32_t children_outstanding = 0;

    std::vector<graph::VertexId> results;  // rtn/final hits + child pass-through
    // kGroup: rendered group value per results entry (parallel vector),
    // captured at processing time while the vertex record is in hand.
    std::vector<std::string> result_values;
    // kPaths: completed visited chains discovered by this execution.
    std::vector<std::vector<graph::VertexId>> result_paths;
    // kPaths: distinct path prefixes per entry vertex (the same vertex can
    // be reached along several chains; each expands independently).
    std::unordered_map<graph::VertexId, std::vector<std::vector<graph::VertexId>>>
        path_prefixes;
    bool answered = false;
  };

  // Attribution protocol: one per sent frame, keyed by the dispatch id the
  // frame carries as its parent_exec. A frame serves every execution whose
  // vertices were expanded toward that (step, server) since the travel's
  // last send, so the answer's reached parents route back through
  // (parent vid, owner exec).
  struct DispatchRecord {
    TravelId travel = 0;
    std::vector<std::pair<graph::VertexId, ExecId>> parents;
  };

  // One outbound kTraverse frame being filled, per (travel, step, server).
  struct PendingFrame {
    std::vector<std::pair<graph::VertexId, graph::VertexId>> targets;  // (dst, parent vid)
    std::vector<FrontierEntry> path_entries;  // kPaths: one per (prefix, edge)
    DispatchRecord record;                    // attribution: the frame's parents
  };

  // A travel's work on this server, present while it has a task queued or
  // inside a worker batch here. The batch that brings `tasks` to zero
  // flushes it (FlushQuiescentLocked).
  struct LocalWork {
    size_t tasks = 0;
    // Executions whose last task ran since the travel's last flush.
    std::vector<ExecId> ran;
    // Outbound frames filled by the travel's batches, per (step, server),
    // whichever executions own the tasks: they leave together at the flush.
    std::map<std::pair<uint32_t, ServerId>, PendingFrame> frames;
  };

  // A Sync-GT travel's barrier on this server: the last step the
  // coordinator released here, and the frames received for later steps,
  // decoded (their plan view cleared), waiting for that step's release.
  struct HeldFrames {
    uint32_t released = 0;  // roots run unheld: step 0 starts released
    std::vector<TraversePayload> frames;
  };

  // Coordinator-side per-traversal state (status tracing, Section IV-C).
  struct TravelState {
    TravelId id = 0;
    EngineMode mode = EngineMode::kGraphTrek;
    rpc::EndpointId client = 0;
    // The travel's registered plan (shared with plans_); null for a branch
    // parent, which runs no engine work of its own.
    std::shared_ptr<CompiledPlan> cplan;
    uint64_t started_us = 0;
    uint64_t last_activity_us = 0;
    uint32_t timeout_ms = 0;
    TravelClass cls = TravelClass::kNormal;
    uint64_t deadline_us = 0;  // absolute wall deadline; 0 = none
    bool done = false;

    // Execution registry: created/terminated tracing events.
    struct ExecTrace {
      uint32_t step = 0;
      bool created = false;
      bool terminated = false;
    };
    std::unordered_map<ExecId, ExecTrace> execs;
    uint64_t total_created = 0;
    uint64_t total_terminated = 0;
    std::vector<uint32_t> unfinished_per_step;

    // Outstanding root executions (attribution path only); results
    // accumulate here.
    uint32_t root_outstanding = 0;
    uint64_t incomplete_execs = 0;  // trace entries missing created/terminated
    std::unordered_set<graph::VertexId> results;

    // Result-mode accumulation (rendered to the client only at completion).
    lang::ResultMode result_mode = lang::ResultMode::kVertices;
    std::unordered_map<graph::VertexId, std::string> result_values;  // kGroup
    std::set<std::vector<graph::VertexId>> result_paths;             // kPaths

    // Branch fan-out (coordinator-side): a branch plan becomes one parent
    // travel plus one internal child travel per flattened alternative, all
    // coordinated on this server so parent/child folding happens under one
    // mu_. Children skip admission and client streaming; rendering happens
    // only when the parent completes. Children fold each result batch
    // straight into the parent, so the parent's path cap bounds the union.
    TravelId parent_travel = 0;      // nonzero = internal branch child
    bool internal = false;           // true for branch children
    uint32_t pending_children = 0;   // parent: children not yet complete
    std::vector<TravelId> children;  // parent: abort/deadline cascade list

    // Per-step span accumulation for the archived TravelTrace, fed from
    // trace items.
    std::vector<TravelTrace::StepSpan> step_spans;

    // Sync-GT: the last step broadcast as released (roots run unheld, so
    // step 0 starts released).
    uint32_t released_step = 0;
  };

  // --- message handling -----------------------------------------------------

  void OnMessage(rpc::Message&& msg);
  void HandleSubmit(rpc::Message&& msg);
  void HandleTraverse(rpc::Message&& msg);
  void HandleAnswer(rpc::Message&& msg);
  void HandleTraceBatch(rpc::Message&& msg);
  void HandleProgress(rpc::Message&& msg);
  void HandleAbort(rpc::Message&& msg);
  void HandlePinTravel(rpc::Message&& msg);
  void HandleReleaseStep(rpc::Message&& msg);

  void HandleMutation(rpc::Message&& msg);
  void HandleCatalog(rpc::Message&& msg);

  // --- coordinator ------------------------------------------------------------

  // All Locked methods require mu_.
  // Decodes, rewrites and admits a submitted travel, then launches it; a
  // non-OK status is the client's failed-submit reply.
  Status SubmitLocked(const rpc::Message& msg) GT_REQUIRES(mu_);
  // Launches an admitted travel: one root execution per start server.
  void StartRootExecsLocked(TravelState& ts) GT_REQUIRES(mu_);
  // Pins `travel` here and broadcasts the pin to every other server.
  void PinEverywhereLocked(TravelId travel) GT_REQUIRES(mu_);
  // Lazily collects planner statistics from the local shard (once per
  // server; guarded by plan_stats_ready_). Maintenance-path scans only — no
  // device charges.
  const lang::PlanStats& PlanStatsLocked() GT_REQUIRES(mu_);
  // Folds one batch of results (values parallel to vids, or empty) into
  // the travel — a branch child's into its parent — and fails that travel
  // once its paths exceed the coordinator cap. Returns false when `ts`
  // itself completed (it is then dangling).
  bool FoldResultsLocked(TravelState& ts, const std::vector<graph::VertexId>& vids,
                         std::vector<std::string>& values,
                         std::vector<std::vector<graph::VertexId>>& paths) GT_REQUIRES(mu_);
  // Completes the travel with an error: its partial results are dropped.
  void FailTravelLocked(TravelState& ts, Status status) GT_REQUIRES(mu_);
  void CompleteTravelLocked(TravelState& ts, Status status) GT_REQUIRES(mu_);
  // Folds one execution lifecycle event into the travel's step spans.
  void RecordStepEventLocked(TravelState& ts, uint32_t step, bool created)
      GT_REQUIRES(mu_);
  // Archives the finished travel into recent_traces_ and observes its wall
  // time in the per-mode duration histogram.
  void ArchiveTravelLocked(const TravelState& ts, bool ok, uint64_t now_us)
      GT_REQUIRES(mu_);
  void ApplyTraceItemLocked(TravelState& ts, const TraceItem& item) GT_REQUIRES(mu_);
  // Sync-GT barrier: once every execution of the released steps has
  // terminated and the next step has creations, broadcasts its release.
  void MaybeReleaseStepLocked(TravelState& ts) GT_REQUIRES(mu_);

  // --- plans --------------------------------------------------------------------

  // Registers `travel`'s executable (repeat-unrolled) plan on this server.
  std::shared_ptr<CompiledPlan> RegisterPlanLocked(TravelId travel, lang::TraversalPlan plan,
                                                   std::string_view plan_bytes,
                                                   EngineMode mode, ServerId coordinator)
      GT_REQUIRES(mu_);
  // The travel's plan on this server, compiled from its compact wire form
  // on first sight. Null when the bytes do not decode.
  std::shared_ptr<CompiledPlan> PlanForLocked(TravelId travel, std::string_view plan_bytes,
                                              EngineMode mode, ServerId coordinator)
      GT_REQUIRES(mu_);
  // The registered plan, or null (never seen here, or already cleaned up).
  std::shared_ptr<CompiledPlan> FindPlanLocked(TravelId travel) const GT_REQUIRES(mu_);
  // Scan-start roots on this server: the type index of the plan's anchor
  // type, with the planner's pushed-down start filters applied inside the
  // scan. A re-scan within a travel charges the warm device cost.
  std::vector<graph::VertexId> ScanStartLocked(TravelId travel, const CompiledPlan& cplan)
      GT_REQUIRES(mu_);

  // --- executor -------------------------------------------------------------

  // Creates the execution of a delivered (or released) hand-off frame and
  // classifies its entries: owner tasks queue, redundant arrivals absorb
  // or (Async-GT) queue an I/O-only task. May erase the execution.
  void StartExecLocked(const TraversePayload& req, const CompiledPlan& cplan) GT_REQUIRES(mu_);

  void WorkerLoop();
  void ProcessBatch(const std::vector<VertexTask>& batch);

  void ResolveVertexLocked(ExecState& exec, graph::VertexId vid, bool reach, bool from_owner)
      GT_REQUIRES(mu_);
  // Reports the exec's termination (direct protocol: then erases it; its
  // results left with the quiescent flush); on the attribution protocol,
  // answers once every vertex resolved. Sends no frames: every frame
  // carrying the exec's vertices has left (quiescent flush), or the exec
  // queued no task. May erase `exec`.
  void SettleExecLocked(ExecState& exec, const CompiledPlan& cplan) GT_REQUIRES(mu_);
  // A new exec's queued tasks join the travel's local work; an exec with
  // none settles at once, and its termination leaves now only when the
  // travel has no local work here (else the next quiescent flush carries
  // it). May erase `exec`.
  void AdmitExecLocked(ExecState& exec, const CompiledPlan& cplan) GT_REQUIRES(mu_);
  // Local quiescence of `travel` (a worker batch left it no task here):
  // sends the frames of its finished `work`, one per (step, server) with a
  // dispatch record each on the attribution protocol, settles the
  // executions that ran, then flushes its trace buffer, so each creation
  // item leaves ahead of the terminations of the executions its frame
  // carries.
  void FlushQuiescentLocked(TravelId travel, LocalWork& work, const CompiledPlan& cplan)
      GT_REQUIRES(mu_);
  // Queues a kTraverse hand-off that creates a new exec at `step` on `dst`;
  // returns the new exec's id.
  ExecId SendTraverseLocked(const CompiledPlan& cplan, TravelId travel, uint32_t step,
                            ExecId parent_exec, ServerId dst,
                            std::vector<FrontierEntry> entries, bool scan_start)
      GT_REQUIRES(mu_);
  // Once every frame carrying a dispatched exec's vertices has answered,
  // resolves its vertices still awaiting children as unreached.
  void ResolveUnreachedLocked(ExecState& exec) GT_REQUIRES(mu_);
  void TryAnswerLocked(ExecState& exec) GT_REQUIRES(mu_);
  // Buffers one status-tracing item for the travel's coordinator. A full
  // buffer (48 items) flushes early; otherwise the travel's quiescent flush
  // sends it.
  void QueueTraceItemLocked(ServerId coordinator, TravelId travel, TraceItem item)
      GT_REQUIRES(mu_);
  void FlushTraceBufferLocked(ServerId coordinator, TravelId travel) GT_REQUIRES(mu_);

  // --- maintenance ------------------------------------------------------------

  void MaintenanceLoop();

  // Fire-and-forget send: delivery failures are logged and counted, never
  // propagated — the engine's status tracer owns end-to-end recovery.
  void SendLossy(rpc::Message msg);
  void SendLossy(rpc::MsgType type, rpc::EndpointId dst, std::string payload,
                 uint64_t rpc_id = 0);

  // Sends staged while mu_ is held: QueueSendLocked appends a message from
  // this server to outbox_, and every path that may have queued (message
  // handlers, worker batches, the maintenance tick) calls DrainOutbox after
  // releasing mu_. Keeps the transport — whose delivery work is unbounded
  // from our perspective — out of the engine's critical section.
  void QueueSendLocked(rpc::MsgType type, rpc::EndpointId dst, std::string payload,
                       uint64_t rpc_id = 0) GT_REQUIRES(mu_);
  void DrainOutbox() GT_EXCLUDES(mu_);

  // Pins this server's current store view for `travel` (no-op when
  // snapshot isolation is off or the travel is already pinned); returns the
  // pin. Handlers that materialize travel state call this so every later
  // store read the travel performs here is bounded to one view, even when
  // the kPinTravel broadcast was reordered behind the first kTraverse
  // frame (fault-injected transports).
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> PinTravelSnapLocked(
      TravelId travel) GT_REQUIRES(mu_);
  // The travel's pin on this server, or null (isolation off / never pinned).
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> TravelSnapLocked(
      TravelId travel) const GT_REQUIRES(mu_);

  ServerConfig cfg_;
  graph::GraphStore* store_;
  const graph::Partitioner* partitioner_;
  graph::Catalog* catalog_;
  rpc::Transport* transport_;

  VisitStats visit_stats_;
  RequestQueue queue_;

  mutable Mutex mu_;
  std::unordered_map<TravelId, std::shared_ptr<CompiledPlan>> plans_ GT_GUARDED_BY(mu_);
  std::unordered_map<ExecId, std::unique_ptr<ExecState>> execs_ GT_GUARDED_BY(mu_);
  std::unordered_map<TravelId, LocalWork> local_work_ GT_GUARDED_BY(mu_);
  // Attribution frames sent and not yet answered, by dispatch id.
  std::unordered_map<ExecId, DispatchRecord> dispatches_ GT_GUARDED_BY(mu_);
  std::unordered_map<TravelId, TravelState> travels_ GT_GUARDED_BY(mu_);  // coordinated here
  // Sync-GT barrier state per travel: received frames held until their
  // step's release.
  std::unordered_map<TravelId, HeldFrames> held_frames_ GT_GUARDED_BY(mu_);
  TravelCache cache_ GT_GUARDED_BY(mu_);
  // Vertices already accessed per travel on this server: later accesses hit
  // the storage engine's block cache and charge the warm device cost.
  std::unordered_map<TravelId, std::unordered_set<graph::VertexId>> accessed_ GT_GUARDED_BY(mu_);
  // Type-index labels already scanned per travel on this server: a travel
  // re-scanning the same index (scan-start re-delivery) charges the warm
  // device cost, mirroring accessed_ above.
  std::unordered_map<TravelId, std::unordered_set<graph::LabelId>> scanned_types_
      GT_GUARDED_BY(mu_);
  // Outbound tracing events, batched per (coordinator, travel) and flushed
  // at the travel's local quiescence, or early by size.
  std::map<std::pair<ServerId, TravelId>, std::vector<TraceItem>> trace_buffer_
      GT_GUARDED_BY(mu_);
  // Per-travel pinned store snapshot (snapshot_isolation). Workers copy the
  // shared_ptr under mu_ and read through it lock-free; the custom deleter
  // hands the pin back to the GraphStore when the last holder drops it, so
  // an abort erasing the map entry mid-batch never yanks the view out from
  // under a worker. Erased in HandleAbort (every completion path broadcasts
  // an abort/cleanup), which also bounds the map to live travels.
  std::unordered_map<TravelId, std::shared_ptr<const graph::GraphStore::ReadSnapshot>>
      travel_snaps_ GT_GUARDED_BY(mu_);
  // Test-only retention (cfg_.retain_snapshots_for_test): snapshots moved
  // here at cleanup instead of released, drained by
  // DropRetainedSnapshotsForTest. Deliberately NOT counted as travel
  // residue — retention is an explicit harness choice, not a leak.
  std::unordered_map<TravelId, std::shared_ptr<const graph::GraphStore::ReadSnapshot>>
      retained_snaps_ GT_GUARDED_BY(mu_);
  std::unordered_set<TravelId> aborted_travels_ GT_GUARDED_BY(mu_);  // late-message tombstones
  std::deque<TravelId> aborted_order_ GT_GUARDED_BY(mu_);  // bounds the tombstone set
  uint64_t next_exec_seq_ GT_GUARDED_BY(mu_) = 1;
  uint64_t next_travel_seq_ GT_GUARDED_BY(mu_) = 1;
  // Planner statistics, built once from this shard on the first submit
  // (under hash partitioning the local shard is a representative sample of
  // global selectivities; rewrites only need relative order).
  bool plan_stats_ready_ GT_GUARDED_BY(mu_) = false;
  lang::PlanStats plan_stats_ GT_GUARDED_BY(mu_);
  // Live coordinated travels per priority class (admission accounting;
  // incremented on admit, decremented in CompleteTravelLocked).
  std::array<uint32_t, kNumTravelClasses> inflight_per_class_ GT_GUARDED_BY(mu_) = {{0, 0, 0}};
  // Sends staged under mu_, flushed by DrainOutbox once the lock drops.
  std::vector<rpc::Message> outbox_ GT_GUARDED_BY(mu_);
  // A DrainOutbox is sending; others leave their messages to it.
  bool draining_ GT_GUARDED_BY(mu_) = false;
  // Completed-travel archive for trace export (bounded; oldest dropped).
  std::deque<TravelTrace> recent_traces_ GT_GUARDED_BY(mu_);

  // Registry handles, fetched once at construction (hot paths only touch
  // the atomics inside). Indexed by EngineMode for the duration histogram.
  metrics::Histogram* travel_duration_ms_[3] = {nullptr, nullptr, nullptr};
  metrics::Counter* travels_ok_ = nullptr;
  metrics::Counter* travels_failed_ = nullptr;
  // Lifecycle counters (coordinator role), per priority class where the
  // class is known at the event.
  metrics::Counter* travel_admitted_[kNumTravelClasses] = {nullptr, nullptr, nullptr};
  metrics::Counter* travel_rejected_[kNumTravelClasses] = {nullptr, nullptr, nullptr};
  metrics::Counter* travel_cancelled_ = nullptr;
  metrics::Counter* travel_deadline_exceeded_ = nullptr;
  metrics::Counter* travel_snapshots_pinned_ = nullptr;
  // Referential-integrity accounting on the kPutEdge ingest path.
  metrics::Counter* dangling_edges_rejected_ = nullptr;
  metrics::Counter* edge_dst_unverified_ = nullptr;
  metrics::CollectorId metrics_collector_ = 0;  // live between Start and Stop

  // Workers plus the maintenance tick run on this pool (cfg_.workers + 1
  // threads) so the engine owns no raw std::thread lifecycles.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> send_failures_{0};
  std::atomic<bool> stop_{false};
  bool started_ = false;  // Start/Stop are external-control-thread only

  // Maintenance tick interrupt: Stop signals maint_cv_ so the loop exits
  // immediately instead of finishing a full sleep interval.
  Mutex maint_mu_;
  CondVar maint_cv_;
  bool maint_stop_ GT_GUARDED_BY(maint_mu_) = false;
};

}  // namespace gt::engine
