// Catalog: interning of label and property-key strings to 32-bit ids.
// In a deployed system this metadata is tiny and replicated to every backend
// server; here one Catalog instance is shared read-mostly by the cluster.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"

namespace gt::graph {

class Catalog {
 public:
  using Id = uint32_t;
  static constexpr Id kInvalidId = 0xffffffffu;

  // Upper bound accepted from remote peers. Catalog ids are dense indexes
  // into names_, so an id that arrives over the wire drives a resize(id+1);
  // without a cap a hostile (or corrupt) reply could demand gigabytes. The
  // catalog holds label/property-key names — tiny by design — so a million
  // ids is far beyond any legitimate deployment.
  static constexpr Id kMaxWireId = 1u << 20;

  virtual ~Catalog() = default;

  // Returns the id for `name`, interning it if new. Thread-safe.
  virtual Id Intern(const std::string& name) GT_EXCLUDES(mu_) {
    {
      ReaderMutexLock lk(&mu_);
      auto it = ids_.find(name);
      if (it != ids_.end()) return it->second;
    }
    WriterMutexLock lk(&mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const Id id = static_cast<Id>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  // Intern that says why it failed. This catalog never fails; a replica
  // that cannot reach its authority returns Unavailable naming the failed
  // call. A subclass that overrides only Intern has its kInvalidId read as
  // Unavailable.
  virtual Result<Id> TryIntern(const std::string& name) {
    const Id id = Intern(name);
    if (id == kInvalidId) return Status::Unavailable("catalog cannot intern \"" + name + "\"");
    return id;
  }

  // Returns kInvalidId when the name was never interned.
  virtual Id Lookup(const std::string& name) const GT_EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    auto it = ids_.find(name);
    return it == ids_.end() ? kInvalidId : it->second;
  }

  virtual Result<std::string> Name(Id id) const GT_EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    if (id >= names_.size()) return Status::NotFound("catalog id " + std::to_string(id));
    return names_[id];
  }

  size_t size() const GT_EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    return names_.size();
  }

  // Replicates another catalog's name->id mapping (used when a cluster must
  // agree with a catalog the data was generated against; in a deployment
  // this metadata is shipped to every server). REQUIRES: this catalog is a
  // prefix of `other` (typically empty).
  void CopyFrom(const Catalog& other) GT_EXCLUDES(mu_) {
    std::vector<std::string> names = other.Snapshot();
    WriterMutexLock lk(&mu_);
    for (size_t i = names_.size(); i < names.size(); i++) {
      ids_.emplace(names[i], static_cast<Id>(i));
      names_.push_back(names[i]);
    }
  }

  // Installs a (name, id) binding decided elsewhere (the catalog authority
  // in a multi-process deployment). Gaps are padded with placeholders that
  // are overwritten when their bindings arrive.
  void InsertAt(Id id, const std::string& name) GT_EXCLUDES(mu_) {
    WriterMutexLock lk(&mu_);
    if (id >= names_.size()) names_.resize(id + 1);
    names_[id] = name;
    ids_[name] = id;
  }

  // Snapshot of all names in id order.
  std::vector<std::string> Snapshot() const GT_EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    return names_;
  }

 private:
  mutable SharedMutex mu_;
  std::vector<std::string> names_ GT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Id> ids_ GT_GUARDED_BY(mu_);
};

}  // namespace gt::graph
