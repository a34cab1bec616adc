// Live-update and point-query protocol payloads.
//
// The paper's metadata system "must support live updates (to ingest
// production information in real time) [and] low-latency point queries (for
// frequent metadata operations such as permission checking)". These
// messages carry single-record mutations and point lookups from clients to
// the owning backend server. Labels and property keys travel as *names*
// (strings) so that out-of-process clients need no catalog state; servers
// intern them on arrival.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/graph/catalog.h"
#include "src/graph/encoding.h"

namespace gt::engine {

// Property list keyed by name rather than interned id.
using NamedProps = std::vector<std::pair<std::string, graph::PropValue>>;

inline void EncodeNamedProps(std::string* out, const NamedProps& props) {
  PutVarint32(out, static_cast<uint32_t>(props.size()));
  for (const auto& [name, value] : props) {
    PutLengthPrefixed(out, name);
    value.EncodeTo(out);
  }
}

inline bool DecodeNamedProps(CheckedReader* dec, NamedProps* out) {
  uint32_t n = 0;
  // 2 = minimum encoded prop (empty-name length byte + value tag byte).
  if (!dec->GetCount(&n, 2)) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    std::string_view name;
    graph::PropValue value;
    if (!dec->GetLengthPrefixed(&name) || !graph::PropValue::DecodeFrom(dec, &value)) {
      return false;
    }
    out->emplace_back(std::string(name), std::move(value));
  }
  return true;
}

// Resolves names against a catalog (interning new ones).
inline graph::PropMap InternProps(const NamedProps& props, graph::Catalog* catalog) {
  graph::PropMap out;
  for (const auto& [name, value] : props) {
    out.Set(catalog->Intern(name), value);
  }
  return out;
}

// --- kPutVertex --------------------------------------------------------------

struct PutVertexPayload {
  graph::VertexId vid = 0;
  std::string label;
  NamedProps props;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, vid);
    PutLengthPrefixed(&out, label);
    EncodeNamedProps(&out, props);
    return out;
  }
  static Result<PutVertexPayload> Decode(std::string_view data) {
    PutVertexPayload p;
    CheckedReader dec(data);
    std::string_view label;
    if (!dec.GetVarint64(&p.vid) || !dec.GetLengthPrefixed(&label) ||
        !DecodeNamedProps(&dec, &p.props)) {
      return Status::Corruption("bad put-vertex payload");
    }
    p.label.assign(label);
    return p;
  }
};

// --- kPutEdge ----------------------------------------------------------------

struct PutEdgePayload {
  graph::VertexId src = 0;
  std::string label;
  graph::VertexId dst = 0;
  NamedProps props;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, src);
    PutLengthPrefixed(&out, label);
    PutVarint64(&out, dst);
    EncodeNamedProps(&out, props);
    return out;
  }
  static Result<PutEdgePayload> Decode(std::string_view data) {
    PutEdgePayload p;
    CheckedReader dec(data);
    std::string_view label;
    if (!dec.GetVarint64(&p.src) || !dec.GetLengthPrefixed(&label) ||
        !dec.GetVarint64(&p.dst) || !DecodeNamedProps(&dec, &p.props)) {
      return Status::Corruption("bad put-edge payload");
    }
    p.label.assign(label);
    return p;
  }
};

// --- kMutateAck ----------------------------------------------------------------
// A refused mutation carries its StatusCode after the message (0 = no code:
// the client reads the error as Internal).

struct MutateAckPayload {
  uint8_t ok = 1;
  std::string error;
  uint8_t code = 0;  // StatusCode; 0 = no tail

  std::string Encode() const {
    std::string out;
    out.push_back(static_cast<char>(ok));
    PutLengthPrefixed(&out, error);
    if (code != 0) out.push_back(static_cast<char>(code));
    return out;
  }
  static Result<MutateAckPayload> Decode(std::string_view data) {
    MutateAckPayload p;
    CheckedReader dec(data);
    std::string_view err;
    if (!dec.GetByte(&p.ok) || !dec.GetLengthPrefixed(&err)) {
      return Status::Corruption("bad mutate ack");
    }
    p.error.assign(err);
    if (!dec.empty() && !dec.GetByte(&p.code)) return Status::Corruption("bad mutate ack code");
    return p;
  }
};

// --- kGetVertex / kVertexReply ---------------------------------------------------

struct GetVertexPayload {
  graph::VertexId vid = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, vid);
    return out;
  }
  static Result<GetVertexPayload> Decode(std::string_view data) {
    GetVertexPayload p;
    CheckedReader dec(data);
    if (!dec.GetVarint64(&p.vid)) return Status::Corruption("bad get-vertex payload");
    return p;
  }
};

// A point query the store could not answer (anything but NotFound) carries
// the store's Status in an optional tail: a code byte, then the message.
struct VertexReplyPayload {
  uint8_t found = 0;
  graph::VertexId vid = 0;
  std::string label;
  NamedProps props;
  uint8_t code = 0;  // StatusCode; 0 = no status tail
  std::string message{};

  std::string Encode() const {
    std::string out;
    out.push_back(static_cast<char>(found));
    PutVarint64(&out, vid);
    PutLengthPrefixed(&out, label);
    EncodeNamedProps(&out, props);
    if (code != 0) {
      out.push_back(static_cast<char>(code));
      PutLengthPrefixed(&out, message);
    }
    return out;
  }
  static Result<VertexReplyPayload> Decode(std::string_view data) {
    VertexReplyPayload p;
    CheckedReader dec(data);
    std::string_view label;
    if (!dec.GetByte(&p.found) || !dec.GetVarint64(&p.vid) ||
        !dec.GetLengthPrefixed(&label) || !DecodeNamedProps(&dec, &p.props)) {
      return Status::Corruption("bad vertex reply");
    }
    p.label.assign(label);
    if (!dec.empty()) {
      std::string_view msg;
      if (!dec.GetByte(&p.code) || !dec.GetLengthPrefixed(&msg)) {
        return Status::Corruption("bad vertex reply status");
      }
      p.message.assign(msg);
    }
    return p;
  }
};

// --- kCatalogIntern / kCatalogReply ----------------------------------------------
// Distributed catalog protocol: server 0 is the interning authority; other
// processes resolve unknown names through it (see graph::RemoteCatalog).

struct CatalogInternPayload {
  std::string name;

  std::string Encode() const {
    std::string out;
    PutLengthPrefixed(&out, name);
    return out;
  }
  static Result<CatalogInternPayload> Decode(std::string_view data) {
    CatalogInternPayload p;
    CheckedReader dec(data);
    std::string_view name;
    if (!dec.GetLengthPrefixed(&name)) return Status::Corruption("bad intern payload");
    p.name.assign(name);
    return p;
  }
};

struct CatalogReplyPayload {
  uint32_t id = graph::Catalog::kInvalidId;
  // Full snapshot (kCatalogPull replies): names in id order.
  std::vector<std::string> names;

  std::string Encode() const {
    std::string out;
    PutVarint32(&out, id);
    PutVarint32(&out, static_cast<uint32_t>(names.size()));
    for (const auto& n : names) PutLengthPrefixed(&out, n);
    return out;
  }
  static Result<CatalogReplyPayload> Decode(std::string_view data) {
    CatalogReplyPayload p;
    CheckedReader dec(data);
    uint32_t n = 0;
    if (!dec.GetVarint32(&p.id) || !dec.GetCount(&n)) {
      return Status::Corruption("bad catalog reply");
    }
    p.names.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
      std::string_view name;
      if (!dec.GetLengthPrefixed(&name)) return Status::Corruption("bad catalog name");
      p.names.emplace_back(name);
    }
    return p;
  }
};

}  // namespace gt::engine
