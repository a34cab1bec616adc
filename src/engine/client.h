// GraphTrekClient: submits GTravel plans to a coordinator server, streams
// back results, polls progress, and implements the paper's restart-on-
// failure policy (a traversal whose executions are lost to a failure is
// simply resubmitted).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/engine/mutation.h"
#include "src/engine/types.h"
#include "src/graph/partitioner.h"
#include "src/lang/gtravel.h"
#include "src/rpc/mailbox.h"

namespace gt::engine {

struct TraversalResult {
  TravelId travel_id = 0;
  std::vector<graph::VertexId> vids;  // sorted, deduplicated (kVertices)
  // Aggregation / path terminals (populated per the plan's result_mode; the
  // others stay empty). `count` is the coordinator-reported result total and
  // is set for every mode — for count() plans it IS the result.
  uint64_t count = 0;
  std::map<std::string, uint64_t> groups;           // group(key): value -> count
  std::vector<std::vector<graph::VertexId>> paths;  // path(): visited chains
  double elapsed_ms = 0.0;
  uint32_t restarts = 0;  // failure-triggered resubmissions
};

struct RunOptions {
  EngineMode mode = EngineMode::kGraphTrek;
  ServerId coordinator = 0;
  uint32_t failure_timeout_ms = 0;  // 0 = server default
  uint32_t max_restarts = 2;
  uint32_t client_timeout_ms = 120000;  // overall wait

  // Admission class the travel submits under (per-class coordinator limits).
  TravelClass priority = TravelClass::kNormal;
  // Server-enforced deadline shipped in the SubmitPayload; 0 = derive from
  // client_timeout_ms so the server never runs a travel its client stopped
  // waiting for.
  uint32_t deadline_ms = 0;
  // Backpressure policy: admission rejections (Unavailable) retry with
  // jittered exponential backoff up to this many attempts.
  uint32_t max_admission_retries = 8;
  uint32_t backoff_base_ms = 2;
};

class GraphTrekClient {
 public:
  // `num_servers` > 0 enables owner-routing of mutations and point queries
  // (otherwise they are sent to server 0, which forwards to the owner).
  explicit GraphTrekClient(rpc::Transport* transport, rpc::EndpointId id,
                           uint32_t num_servers = 0)
      : mailbox_(transport, id),
        partitioner_(num_servers == 0 ? 1 : num_servers),
        routed_(num_servers > 0) {}

  rpc::EndpointId id() const { return mailbox_.id(); }
  rpc::Mailbox* mailbox() { return &mailbox_; }

  // Submits the plan and blocks until the traversal completes (restarting
  // on reported failures, per the paper's recovery policy).
  Result<TraversalResult> Run(const lang::TraversalPlan& plan, const RunOptions& opts);

  // Fire-and-forget submission; use Await() to collect.
  Result<TravelId> Submit(const lang::TraversalPlan& plan, const RunOptions& opts);

  // Waits for a previously submitted traversal. On timeout the travel is
  // cancelled at its coordinator (kAbortTraversal) so server-side state is
  // reclaimed instead of orphaned.
  Result<TraversalResult> Await(TravelId travel, uint32_t timeout_ms = 120000);

  // Asks the travel's coordinator to abandon it. Fire-and-forget: the
  // coordinator completes the travel as Aborted and fans cleanup out to
  // every server.
  Status Cancel(TravelId travel);

  // Requests the per-step unfinished-execution counts from the coordinator.
  Result<ProgressPayload> Progress(TravelId travel, ServerId coordinator,
                                   uint32_t timeout_ms = 5000);

  // --- live updates + point queries (paper Section I requirements) ---
  // Labels and property keys are plain strings; servers intern them.

  Status PutVertex(graph::VertexId vid, const std::string& label,
                   NamedProps props = {}, uint32_t timeout_ms = 10000);
  Status PutEdge(graph::VertexId src, const std::string& label, graph::VertexId dst,
                 NamedProps props = {}, uint32_t timeout_ms = 10000);
  Status DeleteVertex(graph::VertexId vid, uint32_t timeout_ms = 10000);

  // Low-latency point lookup of one vertex record (label + props by name):
  // found=0 when the vertex is absent, the store's Status when it cannot
  // read the record.
  Result<VertexReplyPayload> GetVertex(graph::VertexId vid, uint32_t timeout_ms = 10000);

  // OR-composition helper: the language AND-composes filters; the paper's
  // prescription for OR is to "issue different traversals and combine their
  // results". Runs each plan (sequentially) and returns the deduplicated
  // union of their result sets.
  Result<TraversalResult> RunUnion(const std::vector<lang::TraversalPlan>& plans,
                                   const RunOptions& opts);

 private:
  ServerId OwnerOf(graph::VertexId vid) const {
    return routed_ ? partitioner_.ServerFor(vid) : 0;
  }
  Status CallMutation(ServerId dst, rpc::MsgType type, std::string payload,
                      uint32_t timeout_ms);

  // Finished/cancelled travel ids (bounded). Stale kResultChunk /
  // kTraversalComplete frames for these are dropped from the mailbox so
  // they never confuse a later Await. Single-threaded like the rest of the
  // client API.
  void MarkFinished(TravelId travel);
  void DrainStaleFrames();

  rpc::Mailbox mailbox_;
  graph::HashPartitioner partitioner_;
  bool routed_ = false;
  std::unordered_set<TravelId> finished_;
  std::deque<TravelId> finished_order_;
};

}  // namespace gt::engine
