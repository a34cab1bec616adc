// RemoteCatalog: catalog replica for out-of-process participants (server
// daemons other than the authority, and standalone clients).
//
// Id assignment must be globally consistent because label/property-key ids
// are baked into stored records and serialized plans. One server (the
// authority, by convention server 0) owns assignment; every other process
// resolves unknown names through it and caches the bindings locally.
// Lookup()/Name() are local-only (warm the replica with Pull() at startup);
// Intern()/TryIntern() fall through to an RPC on a local miss, and
// TryIntern() says which call failed.
#pragma once

#include <memory>
#include <string>

#include "src/engine/mutation.h"
#include "src/graph/catalog.h"
#include "src/rpc/mailbox.h"

namespace gt::engine {

class RemoteCatalog final : public graph::Catalog {
 public:
  // `mailbox` must outlive the catalog; `authority` is the owning endpoint.
  RemoteCatalog(rpc::Mailbox* mailbox, rpc::EndpointId authority,
                uint32_t timeout_ms = 10000)
      : mailbox_(mailbox), authority_(authority), timeout_ms_(timeout_ms) {}

  // Fetches the authority's full snapshot into the local replica.
  Status Pull() {
    auto reply = mailbox_->Call(authority_, rpc::MsgType::kCatalogPull, "", timeout_ms_);
    if (!reply.ok()) return reply.status();
    auto decoded = CatalogReplyPayload::Decode(reply->payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->names.size() > kMaxWireId) {
      return Status::Corruption("catalog snapshot impossibly large: " +
                                std::to_string(decoded->names.size()) + " names");
    }
    for (uint32_t id = 0; id < decoded->names.size(); id++) {
      InsertAt(id, decoded->names[id]);
    }
    return Status::OK();
  }

  Result<Id> TryIntern(const std::string& name) override {
    const Id local = graph::Catalog::Lookup(name);
    if (local != kInvalidId) return local;

    CatalogInternPayload req;
    req.name = name;
    auto reply = mailbox_->Call(authority_, rpc::MsgType::kCatalogIntern, req.Encode(),
                                timeout_ms_);
    if (!reply.ok()) return InternFailed(name, reply.status());
    auto decoded = CatalogReplyPayload::Decode(reply->payload);
    if (!decoded.ok()) return InternFailed(name, decoded.status());
    // The id is untrusted wire input and feeds a resize(id + 1) in
    // InsertAt; reject anything outside the sane dense-id range.
    if (decoded->id >= kMaxWireId) {
      return InternFailed(name, Status::Corruption("id " + std::to_string(decoded->id) +
                                                   " out of range"));
    }
    InsertAt(decoded->id, name);
    return decoded->id;
  }

  Id Intern(const std::string& name) override { return TryIntern(name).value_or(kInvalidId); }

 private:
  Status InternFailed(const std::string& name, const Status& why) const {
    return Status::Unavailable(std::string(rpc::MsgTypeName(rpc::MsgType::kCatalogIntern)) +
                               " of \"" + name + "\" to authority " +
                               std::to_string(authority_) + " failed: " + why.ToString());
  }

  rpc::Mailbox* mailbox_;
  rpc::EndpointId authority_;
  uint32_t timeout_ms_;
};

}  // namespace gt::engine
