// Traversal-affiliate cache (paper Section V-A), generalized into the
// memo table that also drives rtn() attribution.
//
// Each entry is keyed by the paper's {travel-id, current-step, vertex-id}
// triple and records whether that vertex's traversal subtree reaches the
// end of the call chain (`reach`). A first arrival inserts a *pending*
// entry and owns the vertex's processing; subsequent arrivals are redundant
// visits — GraphTrek absorbs them without I/O and registers a waiter record
// that the owner's Resolve hands back, for the caller to answer inline.
//
// Replacement follows the paper's time-based strategy: the triples with the
// smallest step ids are substituted first (the presence of larger step ids
// indicates the oldest steps are finished). Only resolved entries are
// evictable; pending entries pin protocol state.
//
// Not internally synchronized: the owning BackendServer serializes access
// under its engine mutex and resolves the returned waiters under it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/engine/types.h"

namespace gt::engine {

class TravelCache {
 public:
  explicit TravelCache(size_t capacity = 1 << 20) : capacity_(capacity) {}

  enum class State { kMiss, kPending, kResolved };

  struct LookupResult {
    State state = State::kMiss;
    bool reach = false;  // valid when kResolved
  };

  // A redundant arrival waiting on a pending entry: the execution that
  // absorbed it and the vertex it takes the owner's verdict for.
  struct Waiter {
    ExecId exec = 0;
    graph::VertexId vid = 0;
  };

  // Looks up {travel, step, vid}; on miss inserts a pending entry (the
  // caller becomes the owner responsible for resolving it).
  LookupResult LookupOrInsertPending(TravelId travel, uint32_t step, graph::VertexId vid) {
    const Key key{travel, step, vid};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_++;
      return LookupResult{it->second.resolved ? State::kResolved : State::kPending,
                          it->second.reach};
    }
    misses_++;
    MaybeEvict();
    Entry e;
    e.seq = next_seq_++;
    entries_.emplace(key, std::move(e));
    return LookupResult{State::kMiss, false};
  }

  // Registers a waiter that Resolve returns once the pending entry
  // resolves. REQUIRES: entry exists and is pending.
  void AddWaiter(TravelId travel, uint32_t step, graph::VertexId vid, Waiter waiter) {
    entries_.at(Key{travel, step, vid}).waiters.push_back(waiter);
  }

  // Resolves a pending entry and returns its waiters in registration order.
  // REQUIRES: entry exists and is pending.
  std::vector<Waiter> Resolve(TravelId travel, uint32_t step, graph::VertexId vid,
                              bool reach) {
    const Key key{travel, step, vid};
    Entry& e = entries_.at(key);
    e.resolved = true;
    e.reach = reach;
    evictable_.insert(EvictKey{step, e.seq, key});
    return std::move(e.waiters);
  }

  // Drops all entries of a finished travel.
  void EraseTravel(TravelId travel) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.travel == travel) {
        if (it->second.resolved) {
          evictable_.erase(EvictKey{it->first.step, it->second.seq, it->first});
        }
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // True when any entry of `travel` is still cached (cancellation tests
  // assert abort reclaims everything; linear scan, test/abort path only).
  bool HasTravel(TravelId travel) const {
    for (const auto& [key, entry] : entries_) {
      if (key.travel == travel) return true;
    }
    return false;
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Key {
    TravelId travel;
    uint32_t step;
    graph::VertexId vid;
    bool operator==(const Key& o) const {
      return travel == o.travel && step == o.step && vid == o.vid;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(HashCombine(Mix64(k.travel), Mix64(k.step)), Mix64(k.vid));
    }
  };
  struct Entry {
    bool resolved = false;
    bool reach = false;
    uint64_t seq = 0;
    std::vector<Waiter> waiters;
  };
  // Eviction order: smallest step first, then oldest insertion.
  struct EvictKey {
    uint32_t step;
    uint64_t seq;
    Key key;
    bool operator<(const EvictKey& o) const {
      if (step != o.step) return step < o.step;
      return seq < o.seq;
    }
  };

  void MaybeEvict() {
    while (entries_.size() >= capacity_ && !evictable_.empty()) {
      auto it = evictable_.begin();
      entries_.erase(it->key);
      evictable_.erase(it);
      evictions_++;
    }
  }

  size_t capacity_;
  uint64_t next_seq_ = 0;
  uint64_t evictions_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::set<EvictKey> evictable_;
};

}  // namespace gt::engine
