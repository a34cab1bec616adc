#include "src/engine/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace gt::engine {

Result<TravelId> GraphTrekClient::Submit(const lang::TraversalPlan& plan,
                                         const RunOptions& opts) {
  SubmitPayload submit;
  submit.mode = static_cast<uint8_t>(opts.mode);
  submit.timeout_ms = opts.failure_timeout_ms;
  submit.priority_class = static_cast<uint8_t>(opts.priority);
  submit.deadline_ms = opts.deadline_ms != 0 ? opts.deadline_ms : opts.client_timeout_ms;
  submit.plan = plan.Encode();

  auto reply = mailbox_.Call(opts.coordinator, rpc::MsgType::kSubmitTraversal,
                             submit.Encode());
  if (!reply.ok()) return reply.status();
  if (reply->type == rpc::MsgType::kTraversalComplete) {
    auto done = CompletePayload::Decode(reply->payload);
    if (done.ok() && done->ok == 0) {
      // Admission rejections surface as Unavailable; malformed submissions
      // keep their original code (InvalidArgument fallback for legacy peers).
      Status st = StatusFromWire(done->code, done->error);
      if (st.ok()) st = Status::InvalidArgument(done->error);
      return st;
    }
    return Status::Internal("unexpected completion on submit");
  }
  CheckedReader dec(reply->payload);
  uint64_t travel = 0;
  if (!dec.GetVarint64(&travel)) return Status::Corruption("bad accept payload");
  return travel;
}

Status GraphTrekClient::Cancel(TravelId travel) {
  MarkFinished(travel);
  return mailbox_.Send(ExecServer(travel), rpc::MsgType::kAbortTraversal,
                       AbortPayload{travel, AbortPayload::kCancel}.Encode());
}

void GraphTrekClient::MarkFinished(TravelId travel) {
  constexpr size_t kMaxFinished = 128;
  if (!finished_.insert(travel).second) return;
  finished_order_.push_back(travel);
  while (finished_order_.size() > kMaxFinished) {
    finished_.erase(finished_order_.front());
    finished_order_.pop_front();
  }
}

void GraphTrekClient::DrainStaleFrames() {
  if (finished_.empty()) return;
  mailbox_.DrainInboxIf([this](const rpc::Message& m) {
    TravelId travel = 0;
    if (m.type == rpc::MsgType::kResultChunk) {
      auto chunk = ResultChunkPayload::Decode(m.payload);
      if (!chunk.ok()) return false;
      travel = chunk->travel_id;
    } else if (m.type == rpc::MsgType::kTraversalComplete) {
      auto done = CompletePayload::Decode(m.payload);
      if (!done.ok()) return false;
      travel = done->travel_id;
    } else {
      return false;
    }
    return finished_.count(travel) != 0;
  });
}

Result<TraversalResult> GraphTrekClient::Await(TravelId travel, uint32_t timeout_ms) {
  TraversalResult result;
  result.travel_id = travel;
  const uint64_t deadline = NowMicros() + static_cast<uint64_t>(timeout_ms) * 1000;
  DrainStaleFrames();  // drop leftovers from cancelled/abandoned travels

  // Giving up on the travel must tell the coordinator, or the travel keeps
  // running server-side (leaking frontier state on every server) and its
  // frames sit in the mailbox forever.
  auto give_up = [&](Status st) -> Status {
    Status ignored = Cancel(travel);
    (void)ignored;  // cancellation is best-effort; the deadline also covers us
    DrainStaleFrames();
    return st;
  };

  for (;;) {
    const uint64_t now = NowMicros();
    if (now >= deadline) return give_up(Status::Timeout("traversal wait"));
    auto msg = mailbox_.Receive(static_cast<uint32_t>((deadline - now) / 1000) + 1);
    if (!msg.ok()) {
      if (msg.status().IsTimeout()) return give_up(Status::Timeout("traversal wait"));
      return msg.status();
    }

    switch (msg->type) {
      case rpc::MsgType::kResultChunk: {
        auto chunk = ResultChunkPayload::Decode(msg->payload);
        if (!chunk.ok()) return chunk.status();
        if (chunk->travel_id != travel) continue;  // stale stream
        result.vids.insert(result.vids.end(), chunk->vids.begin(), chunk->vids.end());
        for (const auto& [value, count] : chunk->groups) result.groups[value] += count;
        for (auto& path : chunk->paths) result.paths.push_back(std::move(path));
        break;
      }
      case rpc::MsgType::kTraversalComplete: {
        auto done = CompletePayload::Decode(msg->payload);
        if (!done.ok()) return done.status();
        if (done->travel_id != travel) continue;
        MarkFinished(travel);
        if (done->ok == 0) {
          Status st = StatusFromWire(done->code, done->error);
          if (st.ok()) st = Status::Aborted(done->error);
          return st;
        }
        result.count = done->total_results;
        std::sort(result.vids.begin(), result.vids.end());
        result.vids.erase(std::unique(result.vids.begin(), result.vids.end()),
                          result.vids.end());
        std::sort(result.paths.begin(), result.paths.end());
        result.paths.erase(std::unique(result.paths.begin(), result.paths.end()),
                           result.paths.end());
        return result;
      }
      default:
        break;  // ignore unrelated traffic
    }
  }
}

Result<TraversalResult> GraphTrekClient::Run(const lang::TraversalPlan& plan,
                                             const RunOptions& opts) {
  Stopwatch watch;
  uint32_t restarts = 0;
  uint32_t admission_retries = 0;
  for (;;) {
    auto travel = Submit(plan, opts);
    if (!travel.ok()) {
      if (travel.status().IsUnavailable() &&
          admission_retries < opts.max_admission_retries) {
        // Admission backpressure: jittered exponential backoff, then retry.
        const uint32_t shift = std::min(admission_retries, 6u);
        const uint64_t base_ms =
            static_cast<uint64_t>(std::max<uint32_t>(1, opts.backoff_base_ms)) << shift;
        const uint64_t jitter_ms = NowMicros() % (base_ms + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(base_ms + jitter_ms));
        admission_retries++;
        continue;
      }
      return travel.status();
    }
    auto result = Await(*travel, opts.client_timeout_ms);
    if (result.ok()) {
      result->elapsed_ms = watch.ElapsedMillis();
      result->restarts = restarts;
      return result;
    }
    if (result.status().IsAborted() && restarts < opts.max_restarts) {
      // Failure detected by the coordinator's status tracing; restart the
      // traversal from scratch (paper Section IV-C).
      restarts++;
      GT_WARN << "traversal " << *travel << " failed (" << result.status().ToString()
              << "); restarting (" << restarts << "/" << opts.max_restarts << ")";
      continue;
    }
    return result.status();
  }
}

Result<TraversalResult> GraphTrekClient::RunUnion(
    const std::vector<lang::TraversalPlan>& plans, const RunOptions& opts) {
  Stopwatch watch;
  TraversalResult combined;
  uint32_t restarts = 0;
  for (const auto& plan : plans) {
    auto result = Run(plan, opts);
    if (!result.ok()) return result.status();
    combined.vids.insert(combined.vids.end(), result->vids.begin(), result->vids.end());
    combined.count += result->count;
    for (const auto& [value, count] : result->groups) combined.groups[value] += count;
    combined.paths.insert(combined.paths.end(), result->paths.begin(),
                          result->paths.end());
    restarts += result->restarts;
    combined.travel_id = result->travel_id;
  }
  std::sort(combined.vids.begin(), combined.vids.end());
  combined.vids.erase(std::unique(combined.vids.begin(), combined.vids.end()),
                      combined.vids.end());
  std::sort(combined.paths.begin(), combined.paths.end());
  combined.paths.erase(std::unique(combined.paths.begin(), combined.paths.end()),
                       combined.paths.end());
  combined.elapsed_ms = watch.ElapsedMillis();
  combined.restarts = restarts;
  return combined;
}

Result<ProgressPayload> GraphTrekClient::Progress(TravelId travel, ServerId coordinator,
                                                  uint32_t timeout_ms) {
  std::string payload;
  PutVarint64(&payload, travel);
  auto reply = mailbox_.Call(coordinator, rpc::MsgType::kProgressRequest,
                             std::move(payload), timeout_ms);
  if (!reply.ok()) return reply.status();
  return ProgressPayload::Decode(reply->payload);
}

}  // namespace gt::engine

// ---------------------------------------------------------------------------
// Live updates + point queries
// ---------------------------------------------------------------------------

namespace gt::engine {

Status GraphTrekClient::CallMutation(ServerId dst, rpc::MsgType type, std::string payload,
                                     uint32_t timeout_ms) {
  auto reply = mailbox_.Call(dst, type, std::move(payload), timeout_ms);
  if (!reply.ok()) return reply.status();
  auto ack = MutateAckPayload::Decode(reply->payload);
  if (!ack.ok()) return ack.status();
  if (ack->ok != 0) return Status::OK();
  return ack->code != 0 ? StatusFromWire(ack->code, std::move(ack->error))
                        : Status::Internal(ack->error);
}

Status GraphTrekClient::PutVertex(graph::VertexId vid, const std::string& label,
                                  NamedProps props, uint32_t timeout_ms) {
  PutVertexPayload req;
  req.vid = vid;
  req.label = label;
  req.props = std::move(props);
  return CallMutation(OwnerOf(vid), rpc::MsgType::kPutVertex, req.Encode(), timeout_ms);
}

Status GraphTrekClient::PutEdge(graph::VertexId src, const std::string& label,
                                graph::VertexId dst, NamedProps props,
                                uint32_t timeout_ms) {
  PutEdgePayload req;
  req.src = src;
  req.label = label;
  req.dst = dst;
  req.props = std::move(props);
  return CallMutation(OwnerOf(src), rpc::MsgType::kPutEdge, req.Encode(), timeout_ms);
}

Status GraphTrekClient::DeleteVertex(graph::VertexId vid, uint32_t timeout_ms) {
  GetVertexPayload req;
  req.vid = vid;
  return CallMutation(OwnerOf(vid), rpc::MsgType::kDeleteVertex, req.Encode(), timeout_ms);
}

Result<VertexReplyPayload> GraphTrekClient::GetVertex(graph::VertexId vid,
                                                      uint32_t timeout_ms) {
  GetVertexPayload req;
  req.vid = vid;
  auto reply = mailbox_.Call(OwnerOf(vid), rpc::MsgType::kGetVertex, req.Encode(),
                             timeout_ms);
  if (!reply.ok()) return reply.status();
  auto out = VertexReplyPayload::Decode(reply->payload);
  if (out.ok() && out->code != 0) return StatusFromWire(out->code, std::move(out->message));
  return out;
}

}  // namespace gt::engine
