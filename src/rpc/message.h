// RPC message and wire format shared by all transports.
//
// Frame on the wire:
//   fixed32 frame_len (bytes after this field)
//   fixed16 type | fixed32 src | fixed32 dst | fixed64 rpc_id | payload
#pragma once

#include <cstdint>
#include <string>

#include "src/common/codec.h"
#include "src/common/status.h"

namespace gt::rpc {

// Endpoint ids: backend servers use [0, num_servers); clients allocate ids
// at kClientIdBase and above.
using EndpointId = uint32_t;
constexpr EndpointId kClientIdBase = 1u << 20;

// Fixed message-header layout after the frame_len prefix:
// type (packed as fixed32) + src + dst + rpc_id. Every frame body is at
// least this long; transports reject shorter (or absurdly long) frames as
// protocol errors instead of trying to resynchronize the stream.
constexpr uint32_t kMsgHeaderBytes = 4 + 4 + 4 + 8;
constexpr uint32_t kMinFrameBody = kMsgHeaderBytes;
constexpr uint32_t kMaxFrameBody = 64u << 20;

enum class MsgType : uint16_t {
  kInvalid = 0,

  // Client <-> coordinator.
  kSubmitTraversal = 1,   // client -> coordinator: serialized plan
  kTraversalAccepted = 2, // coordinator -> client
  kResultChunk = 3,       // coordinator -> client: streamed result vertices
  kTraversalComplete = 4, // coordinator -> client: final status
  kProgressRequest = 5,   // client -> coordinator
  kProgressReply = 6,     // coordinator -> client

  // Traversal engine, server <-> server.
  kTraverse = 16,         // frontier hand-off for one step
  kReturnVertices = 20,   // final/rtn vertices -> report destination
  kTraceBatch = 21,       // execution created/terminated items -> coordinator
  kReleaseStep = 32,      // coordinator -> all servers: start a Sync-GT step's held frames

  // Management.
  kAbortTraversal = 48,
  kPing = 49,
  kPong = 50,
  kPinTravel = 51,      // coordinator -> all servers: pin a read snapshot

  // Live updates + point queries (client -> owning server).
  kPutVertex = 64,
  kPutEdge = 65,
  kMutateAck = 66,
  kGetVertex = 67,
  kVertexReply = 68,
  kDeleteVertex = 69,

  // Distributed catalog (any process -> authority server).
  kCatalogIntern = 80,
  kCatalogPull = 81,
  kCatalogReply = 82,
};

struct Message {
  MsgType type = MsgType::kInvalid;
  EndpointId src = 0;
  EndpointId dst = 0;
  uint64_t rpc_id = 0;  // nonzero correlates a request with its response
  std::string payload;

  // Header: frame_len(4) + type(4, low 16 bits used) + src(4) + dst(4) + rpc_id(8).
  size_t WireSize() const { return 4 + kMsgHeaderBytes + payload.size(); }

  void EncodeTo(std::string* out) const {
    const uint32_t frame_len = static_cast<uint32_t>(kMsgHeaderBytes + payload.size());
    PutFixed32(out, frame_len);
    PutFixed32(out, (static_cast<uint32_t>(type) & 0xffff));
    // type packed as fixed32 for alignment simplicity; high 16 bits zero.
    PutFixed32(out, src);
    PutFixed32(out, dst);
    PutFixed64(out, rpc_id);
    out->append(payload);
  }

  // Decodes the body of a frame (everything after frame_len).
  static Result<Message> DecodeBody(std::string_view frame_body) {
    Message m;
    if (Status s = DecodeHeader(frame_body, &m); !s.ok()) return s;
    m.payload.assign(frame_body.substr(kMsgHeaderBytes));
    return m;
  }

  // Zero-copy variant for transports that own the frame buffer: steals
  // `frame_body` as the payload (after trimming the 20-byte header in
  // place) instead of copying it. The hot kTraverse frames carry the
  // frontier and the plan, so the reader thread avoids an allocation +
  // memcpy per frame.
  static Result<Message> DecodeBody(std::string&& frame_body) {
    Message m;
    if (Status s = DecodeHeader(frame_body, &m); !s.ok()) return s;
    frame_body.erase(0, kMsgHeaderBytes);
    m.payload = std::move(frame_body);
    return m;
  }

  // Decodes the fixed header prefix of a frame body into *m (payload is
  // left untouched). `frame_body` is the whole frame after the frame_len
  // prefix, of which the first kMsgHeaderBytes are the header; anything
  // shorter — a frame_len that promised more than the header, or a
  // truncated read — is a Corruption, never an out-of-bounds access: both
  // DecodeBody variants only slice the payload off after this succeeds, so
  // a header-vs-body size mismatch can never turn into UB downstream.
  static Status DecodeHeader(std::string_view frame_body, Message* m) {
    CheckedReader reader(frame_body);
    uint32_t type32 = 0;
    if (!reader.GetFixed32(&type32) || !reader.GetFixed32(&m->src) ||
        !reader.GetFixed32(&m->dst) || !reader.GetFixed64(&m->rpc_id)) {
      return Status::Corruption("short message header");
    }
    m->type = static_cast<MsgType>(type32 & 0xffff);
    return Status::OK();
  }
};

inline const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kInvalid: return "Invalid";
    case MsgType::kSubmitTraversal: return "SubmitTraversal";
    case MsgType::kTraversalAccepted: return "TraversalAccepted";
    case MsgType::kResultChunk: return "ResultChunk";
    case MsgType::kTraversalComplete: return "TraversalComplete";
    case MsgType::kProgressRequest: return "ProgressRequest";
    case MsgType::kProgressReply: return "ProgressReply";
    case MsgType::kTraverse: return "Traverse";
    case MsgType::kReturnVertices: return "ReturnVertices";
    case MsgType::kTraceBatch: return "TraceBatch";
    case MsgType::kReleaseStep: return "ReleaseStep";
    case MsgType::kAbortTraversal: return "AbortTraversal";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kPinTravel: return "PinTravel";
    case MsgType::kPutVertex: return "PutVertex";
    case MsgType::kPutEdge: return "PutEdge";
    case MsgType::kMutateAck: return "MutateAck";
    case MsgType::kGetVertex: return "GetVertex";
    case MsgType::kVertexReply: return "VertexReply";
    case MsgType::kDeleteVertex: return "DeleteVertex";
    case MsgType::kCatalogIntern: return "CatalogIntern";
    case MsgType::kCatalogPull: return "CatalogPull";
    case MsgType::kCatalogReply: return "CatalogReply";
  }
  return "Unknown";
}

}  // namespace gt::rpc
