// Engine protocol types: identifiers, frontier entries and the payload
// encodings for every engine message (frontier hand-offs, tracing events,
// result returns and the Sync-GT step release).
//
// rtn() attribution model
// -----------------------
// Each frontier entry carries parents: the vertices of the PREVIOUS step
// (on the sending server) whose edge expansion produced this entry. Answers
// flow back up the execution tree: a child execution answers its parent
// with the subset of parent vertices that have at least one path reaching
// the end of the chain. Every execution translates child answers into (a)
// reach values for its own vertices (memoized in the traversal-affiliate
// cache) and (b) an answer to its own parent. rtn-marked steps emit their
// reached vertices as result values which ride the answers up to the
// coordinator. This generalizes the paper's "change the reporting
// destination" relay (Fig. 4) to exact per-vertex attribution.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/graph/encoding.h"

namespace gt::engine {

using TravelId = uint64_t;
using ExecId = uint64_t;
using ServerId = uint32_t;

inline ExecId MakeExecId(ServerId server, uint64_t seq) {
  return (static_cast<uint64_t>(server) << 40) | (seq & ((1ULL << 40) - 1));
}
inline ServerId ExecServer(ExecId id) { return static_cast<ServerId>(id >> 40); }

// Engine variants under evaluation (paper Section VII).
enum class EngineMode : uint8_t {
  kSync = 0,       // Sync-GT: the one executor held to a coordinator barrier per step
  kAsyncPlain = 1, // Async-GT: asynchronous, no cache absorption / merging / priority
  kGraphTrek = 2,  // GraphTrek: async + traversal-affiliate cache + sched/merge
};

inline const char* EngineModeName(EngineMode m) {
  switch (m) {
    case EngineMode::kSync: return "Sync-GT";
    case EngineMode::kAsyncPlain: return "Async-GT";
    case EngineMode::kGraphTrek: return "GraphTrek";
  }
  return "?";
}

// Admission-control priority class carried on every submit. Coordinators
// keep a bounded in-flight table per class; over-limit submits are rejected
// with Unavailable and the client backs off and retries.
enum class TravelClass : uint8_t {
  kInteractive = 0,  // user-facing point/short traversals, small quota
  kNormal = 1,       // default
  kBatch = 2,        // bulk/analytics travels, large quota
};
inline constexpr uint32_t kNumTravelClasses = 3;

inline const char* TravelClassName(TravelClass c) {
  switch (c) {
    case TravelClass::kInteractive: return "interactive";
    case TravelClass::kNormal: return "normal";
    case TravelClass::kBatch: return "batch";
  }
  return "?";
}

// Reconstructs a Status from a wire (code, message) pair; out-of-range
// codes collapse to Internal rather than trusting the peer.
inline Status StatusFromWire(uint8_t code, std::string msg) {
  if (code == 0) return Status::OK();
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal(std::move(msg));
  }
  return Status(static_cast<StatusCode>(code), std::move(msg));
}

// One frontier frame's entries as one flat table: entry i is vertex
// vids[i] plus the previous-step vertices that produced it, the run
// parents[begin(i), ends[i]). Building or decoding a frame costs three
// vectors, however many entries it holds.
struct Frontier {
  std::vector<graph::VertexId> vids;
  std::vector<uint32_t> ends;  // end of entry i's run in `parents`
  std::vector<graph::VertexId> parents;

  size_t size() const { return vids.size(); }
  bool empty() const { return vids.empty(); }
  uint32_t begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  uint32_t end(size_t i) const { return ends[i]; }

  // Appends an entry with no parents; AddParent extends the last entry's run.
  void Add(graph::VertexId vid) {
    vids.push_back(vid);
    ends.push_back(static_cast<uint32_t>(parents.size()));
  }
  void AddParent(graph::VertexId parent) {
    parents.push_back(parent);
    ends.back()++;
  }
  template <typename It>
  void Add(graph::VertexId vid, It first, It last) {
    parents.insert(parents.end(), first, last);
    vids.push_back(vid);
    ends.push_back(static_cast<uint32_t>(parents.size()));
  }
  void Add(graph::VertexId vid, std::initializer_list<graph::VertexId> ps) {
    Add(vid, ps.begin(), ps.end());
  }

  bool operator==(const Frontier& o) const {
    return vids == o.vids && ends == o.ends && parents == o.parents;
  }
};

// Wire form: entry count, then per entry its vid, parent count and parents.
inline void EncodeEntries(std::string* out, const Frontier& entries) {
  PutVarint32(out, static_cast<uint32_t>(entries.size()));
  for (size_t i = 0; i < entries.size(); i++) {
    PutVarint64(out, entries.vids[i]);
    PutVarint32(out, entries.end(i) - entries.begin(i));
    for (uint32_t j = entries.begin(i); j < entries.end(i); j++) {
      PutVarint64(out, entries.parents[j]);
    }
  }
}

inline bool DecodeEntries(CheckedReader* dec, Frontier* out) {
  uint32_t n = 0;
  // Every entry costs at least 2 bytes (vid varint + parent count varint),
  // so GetCount bounds a hostile count before the reserve.
  if (!dec->GetCount(&n, 2)) return false;
  // A first pass counts the parents, so each array is sized once.
  CheckedReader scan = *dec;
  size_t num_parents = 0;
  for (uint32_t i = 0; i < n; i++) {
    uint64_t v = 0;
    uint32_t np = 0;
    if (!scan.GetVarint64(&v) || !scan.GetCount(&np)) return false;
    num_parents += np;
    for (uint32_t j = 0; j < np; j++) {
      if (!scan.GetVarint64(&v)) return false;
    }
  }
  out->vids.clear();
  out->ends.clear();
  out->parents.clear();
  out->vids.reserve(n);
  out->ends.reserve(n);
  out->parents.reserve(num_parents);
  for (uint32_t i = 0; i < n; i++) {
    uint64_t vid = 0;
    uint32_t np = 0;
    if (!dec->GetVarint64(&vid) || !dec->GetCount(&np)) return false;
    out->Add(vid);
    for (uint32_t j = 0; j < np; j++) {
      uint64_t p;
      if (!dec->GetVarint64(&p)) return false;
      out->AddParent(p);
    }
  }
  return true;
}

inline void EncodeVidList(std::string* out, const std::vector<graph::VertexId>& vids) {
  PutVarint32(out, static_cast<uint32_t>(vids.size()));
  for (auto v : vids) PutVarint64(out, v);
}

inline bool DecodeVidList(CheckedReader* dec, std::vector<graph::VertexId>* out) {
  uint32_t n = 0;
  if (!dec->GetCount(&n)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    uint64_t v;
    if (!dec->GetVarint64(&v)) return false;
    out->push_back(v);
  }
  return true;
}

// Length-prefixed string list (group values riding beside result vids).
inline void EncodeStringList(std::string* out, const std::vector<std::string>& strs) {
  PutVarint32(out, static_cast<uint32_t>(strs.size()));
  for (const auto& s : strs) PutLengthPrefixed(out, s);
}

inline bool DecodeStringList(CheckedReader* dec, std::vector<std::string>* out) {
  uint32_t n = 0;
  if (!dec->GetCount(&n)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    std::string_view s;
    if (!dec->GetLengthPrefixed(&s)) return false;
    out->emplace_back(s);
  }
  return true;
}

// Vertex-chain list (kPaths results: each inner list is one visited chain).
inline void EncodePathList(std::string* out,
                           const std::vector<std::vector<graph::VertexId>>& paths) {
  PutVarint32(out, static_cast<uint32_t>(paths.size()));
  for (const auto& p : paths) EncodeVidList(out, p);
}

inline bool DecodePathList(CheckedReader* dec,
                           std::vector<std::vector<graph::VertexId>>* out) {
  uint32_t n = 0;
  if (!dec->GetCount(&n)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    std::vector<graph::VertexId> p;
    if (!DecodeVidList(dec, &p)) return false;
    out->push_back(std::move(p));
  }
  return true;
}

// --- kSubmitTraversal (client -> coordinator) ------------------------------

struct SubmitPayload {
  uint8_t mode = 0;           // EngineMode
  uint32_t timeout_ms = 0;    // failure-detection timeout (0 = default)
  std::string plan;           // TraversalPlan::Encode()
  // Lifecycle extension (decode tolerates its absence for old encoders):
  uint8_t priority_class =    // TravelClass, admission-control quota bucket
      static_cast<uint8_t>(TravelClass::kNormal);
  uint32_t deadline_ms = 0;   // end-to-end deadline enforced by the
                              // coordinator's maintenance tick (0 = none)

  std::string Encode() const {
    std::string out;
    out.push_back(static_cast<char>(mode));
    PutVarint32(&out, timeout_ms);
    PutLengthPrefixed(&out, plan);
    out.push_back(static_cast<char>(priority_class));
    PutVarint32(&out, deadline_ms);
    return out;
  }
  static Result<SubmitPayload> Decode(std::string_view data) {
    SubmitPayload p;
    CheckedReader dec(data);
    std::string_view plan;
    if (!dec.GetByte(&p.mode) || !dec.GetVarint32(&p.timeout_ms) ||
        !dec.GetLengthPrefixed(&plan)) {
      return Status::Corruption("bad submit payload");
    }
    p.plan.assign(plan);
    if (!dec.empty()) {
      if (!dec.GetByte(&p.priority_class) || !dec.GetVarint32(&p.deadline_ms)) {
        return Status::Corruption("bad submit lifecycle tail");
      }
      if (p.priority_class >= kNumTravelClasses) {
        p.priority_class = static_cast<uint8_t>(TravelClass::kNormal);
      }
    }
    return p;
  }
};

// --- kTraverse (server -> server) ------------------------------------------

struct TraversePayload {
  TravelId travel_id = 0;
  uint32_t step = 0;      // step index of the entries' working set
  ExecId exec_id = 0;     // id of the execution created at the receiver
  // One frame serves every sender execution whose vertices its worker batch
  // expanded toward this (step, receiver). On the attribution protocol this
  // is the sender's dispatch id, which routes the answer to those
  // executions; 0 for roots and direct-protocol frames.
  ExecId parent_exec = 0;
  ServerId parent_server = 0;
  ServerId coordinator = 0;
  uint8_t mode = 0;           // EngineMode
  uint8_t scan_start = 0;     // step-0 request: scan the local type index
  // Included on every hand-off (plans are small). A view, not a copy: on
  // decode it aliases the message payload (kTraverse is the hot frame, and
  // the receiver only reads the plan on the travel's first frame), so the
  // decoded payload is only valid while the backing message/buffer lives.
  std::string_view plan;
  Frontier entries;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    PutVarint32(&out, step);
    PutVarint64(&out, exec_id);
    PutVarint64(&out, parent_exec);
    PutVarint32(&out, parent_server);
    PutVarint32(&out, coordinator);
    out.push_back(static_cast<char>(mode));
    out.push_back(static_cast<char>(scan_start));
    PutLengthPrefixed(&out, plan);
    EncodeEntries(&out, entries);
    return out;
  }
  static Result<TraversePayload> Decode(std::string_view data) {
    TraversePayload p;
    CheckedReader dec(data);
    std::string_view plan;
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetVarint32(&p.step) ||
        !dec.GetVarint64(&p.exec_id) || !dec.GetVarint64(&p.parent_exec) ||
        !dec.GetVarint32(&p.parent_server) || !dec.GetVarint32(&p.coordinator) ||
        !dec.GetByte(&p.mode) || !dec.GetByte(&p.scan_start) ||
        !dec.GetLengthPrefixed(&plan) || !DecodeEntries(&dec, &p.entries)) {
      return Status::Corruption("bad traverse payload");
    }
    p.plan = plan;  // zero-copy: aliases `data`
    return p;
  }
};

// --- kReturnVertices (execution answer, child -> parent / -> coordinator) --

struct AnswerPayload {
  TravelId travel_id = 0;
  ExecId exec_id = 0;         // the answering execution
  ExecId parent_exec = 0;     // the frame's dispatch id; 0 = the coordinator
  std::vector<graph::VertexId> reached_parents;  // parent vids with a live path
  std::vector<graph::VertexId> result_vids;      // rtn/final results, pass-through
  // Result-mode extension (decode tolerates its absence for old encoders;
  // legacy plans encode no tail, so their frames stay byte-identical):
  std::vector<std::string> result_values;  // kGroup: value per result vid
  std::vector<std::vector<graph::VertexId>> result_paths;  // kPaths chains

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    PutVarint64(&out, exec_id);
    PutVarint64(&out, parent_exec);
    EncodeVidList(&out, reached_parents);
    EncodeVidList(&out, result_vids);
    if (!result_values.empty() || !result_paths.empty()) {
      EncodeStringList(&out, result_values);
      EncodePathList(&out, result_paths);
    }
    return out;
  }
  static Result<AnswerPayload> Decode(std::string_view data) {
    AnswerPayload p;
    CheckedReader dec(data);
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetVarint64(&p.exec_id) ||
        !dec.GetVarint64(&p.parent_exec) || !DecodeVidList(&dec, &p.reached_parents) ||
        !DecodeVidList(&dec, &p.result_vids)) {
      return Status::Corruption("bad answer payload");
    }
    if (!dec.empty()) {
      if (!DecodeStringList(&dec, &p.result_values) ||
          !DecodePathList(&dec, &p.result_paths)) {
        return Status::Corruption("bad answer result tail");
      }
      // Group values ride one-per-result-vid; anything else is corrupt.
      if (!p.result_values.empty() && p.result_values.size() != p.result_vids.size()) {
        return Status::Corruption("answer result_values/result_vids mismatch");
      }
    }
    return p;
  }
};

// --- kTraceBatch (batched tracing, server -> coordinator) --------------------
// Servers coalesce creation/termination events into small batches to keep
// the coordinator's tracing traffic off the traversal's critical path.

struct TraceItem {
  ExecId exec = 0;
  uint32_t step = 0;
  uint8_t created = 0;  // 1 = creation event, 0 = termination event

  bool operator==(const TraceItem& o) const {
    return exec == o.exec && step == o.step && created == o.created;
  }
};

struct TraceBatchPayload {
  TravelId travel_id = 0;
  std::vector<TraceItem> items;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    PutVarint32(&out, static_cast<uint32_t>(items.size()));
    for (const auto& it : items) {
      PutVarint64(&out, it.exec);
      PutVarint32(&out, it.step);
      out.push_back(static_cast<char>(it.created));
    }
    return out;
  }
  static Result<TraceBatchPayload> Decode(std::string_view data) {
    TraceBatchPayload p;
    CheckedReader dec(data);
    uint32_t n = 0;
    // 3 = minimum encoded item (exec varint + step varint + created byte).
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetCount(&n, 3)) {
      return Status::Corruption("bad trace batch payload");
    }
    p.items.resize(n);
    for (uint32_t i = 0; i < n; i++) {
      if (!dec.GetVarint64(&p.items[i].exec) || !dec.GetVarint32(&p.items[i].step) ||
          !dec.GetByte(&p.items[i].created)) {
        return Status::Corruption("bad trace item");
      }
    }
    return p;
  }
};

// --- kResultChunk / kTraversalComplete (coordinator -> client) -------------

struct ResultChunkPayload {
  TravelId travel_id = 0;
  std::vector<graph::VertexId> vids;
  // Result-mode extension (decode tolerates its absence; legacy kVertices
  // travels never encode it): group buckets and path chains streamed to the
  // client at completion time.
  std::vector<std::pair<std::string, uint64_t>> groups;  // value -> count
  std::vector<std::vector<graph::VertexId>> paths;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    EncodeVidList(&out, vids);
    if (!groups.empty() || !paths.empty()) {
      PutVarint32(&out, static_cast<uint32_t>(groups.size()));
      for (const auto& [value, count] : groups) {
        PutLengthPrefixed(&out, value);
        PutVarint64(&out, count);
      }
      EncodePathList(&out, paths);
    }
    return out;
  }
  static Result<ResultChunkPayload> Decode(std::string_view data) {
    ResultChunkPayload p;
    CheckedReader dec(data);
    if (!dec.GetVarint64(&p.travel_id) || !DecodeVidList(&dec, &p.vids)) {
      return Status::Corruption("bad result chunk");
    }
    if (!dec.empty()) {
      uint32_t n = 0;
      // 2 = minimum encoded bucket (empty length-prefixed value + count).
      if (!dec.GetCount(&n, 2)) return Status::Corruption("bad result chunk groups");
      p.groups.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        std::string_view value;
        uint64_t count = 0;
        if (!dec.GetLengthPrefixed(&value) || !dec.GetVarint64(&count)) {
          return Status::Corruption("bad result chunk group");
        }
        p.groups.emplace_back(std::string(value), count);
      }
      if (!DecodePathList(&dec, &p.paths)) {
        return Status::Corruption("bad result chunk paths");
      }
    }
    return p;
  }
};

struct CompletePayload {
  TravelId travel_id = 0;
  uint8_t ok = 1;
  std::string error;
  uint64_t total_results = 0;
  // StatusCode of the completion (decode tolerates its absence: old
  // encoders map ok=0 to Aborted, the historical client interpretation).
  uint8_t code = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    out.push_back(static_cast<char>(ok));
    PutLengthPrefixed(&out, error);
    PutVarint64(&out, total_results);
    out.push_back(static_cast<char>(code));
    return out;
  }
  static Result<CompletePayload> Decode(std::string_view data) {
    CompletePayload p;
    CheckedReader dec(data);
    std::string_view err;
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetByte(&p.ok) ||
        !dec.GetLengthPrefixed(&err) || !dec.GetVarint64(&p.total_results)) {
      return Status::Corruption("bad complete payload");
    }
    p.error.assign(err);
    p.code = p.ok != 0 ? 0 : static_cast<uint8_t>(StatusCode::kAborted);
    if (!dec.empty()) {
      if (!dec.GetByte(&p.code)) return Status::Corruption("bad complete code");
    }
    return p;
  }
};

// --- kAbortTraversal (any -> any) -------------------------------------------
// kCleanup: completion broadcast from the coordinator; receivers drop the
// travel's local state. kCancel: a client (or operator) asks the travel's
// coordinator to abandon a live travel — the coordinator completes it as
// Aborted, which fans the kCleanup broadcast out to every server. kFail: a
// participant's store error (a failed scan start) asks the coordinator to
// fail the travel with that Status, carried in an optional tail (code byte
// + message); a frame without it reads as Aborted.

struct AbortPayload {
  enum Reason : uint8_t { kCleanup = 0, kCancel = 1, kFail = 2 };

  TravelId travel_id = 0;
  uint8_t reason = kCleanup;
  uint8_t code = 0;  // StatusCode; 0 = no status tail
  std::string message{};

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    out.push_back(static_cast<char>(reason));
    if (code != 0) {
      out.push_back(static_cast<char>(code));
      PutLengthPrefixed(&out, message);
    }
    return out;
  }
  static Result<AbortPayload> Decode(std::string_view data) {
    AbortPayload p;
    CheckedReader dec(data);
    if (!dec.GetVarint64(&p.travel_id)) return Status::Corruption("bad abort payload");
    if (!dec.empty()) {
      // Legacy frames carry the bare travel id (implicit kCleanup).
      if (!dec.GetByte(&p.reason)) return Status::Corruption("bad abort reason");
    }
    if (!dec.empty()) {
      std::string_view msg;
      if (!dec.GetByte(&p.code) || !dec.GetLengthPrefixed(&msg)) {
        return Status::Corruption("bad abort status");
      }
      p.message.assign(msg);
    }
    return p;
  }
};

// --- kProgressReply (coordinator -> client) ---------------------------------
// Per-step count of unfinished traversal executions, the paper's progress
// estimate ("the count of current unfinished traversal executions in each
// step can still help users estimate the remaining work").

struct ProgressPayload {
  TravelId travel_id = 0;
  std::vector<uint32_t> unfinished_per_step;
  uint64_t total_created = 0;
  uint64_t total_terminated = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    PutVarint32(&out, static_cast<uint32_t>(unfinished_per_step.size()));
    for (auto c : unfinished_per_step) PutVarint32(&out, c);
    PutVarint64(&out, total_created);
    PutVarint64(&out, total_terminated);
    return out;
  }
  static Result<ProgressPayload> Decode(std::string_view data) {
    ProgressPayload p;
    CheckedReader dec(data);
    uint32_t n = 0;
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetCount(&n)) {
      return Status::Corruption("bad progress payload");
    }
    p.unfinished_per_step.resize(n);
    for (uint32_t i = 0; i < n; i++) {
      if (!dec.GetVarint32(&p.unfinished_per_step[i])) {
        return Status::Corruption("bad progress count");
      }
    }
    if (!dec.GetVarint64(&p.total_created) || !dec.GetVarint64(&p.total_terminated)) {
      return Status::Corruption("bad progress totals");
    }
    return p;
  }
};

// --- kReleaseStep (coordinator -> all servers, Sync-GT) --------------------
// Every execution of the steps before `step` has terminated: each server
// starts the frames of `step` it holds, and those arriving later.

struct ReleaseStepPayload {
  TravelId travel_id = 0;
  uint32_t step = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, travel_id);
    PutVarint32(&out, step);
    return out;
  }
  static Result<ReleaseStepPayload> Decode(std::string_view data) {
    ReleaseStepPayload p;
    CheckedReader dec(data);
    if (!dec.GetVarint64(&p.travel_id) || !dec.GetVarint32(&p.step)) {
      return Status::Corruption("bad release step payload");
    }
    return p;
  }
};

}  // namespace gt::engine
