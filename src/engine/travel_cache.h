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
// Every travel owns its memo (a TravelMemo in its TravelLocal record): one
// flat open-addressing table keyed by (step, vid), with the waiters of its
// pending entries as linked runs of one flat array whose links a resolved
// entry hands back for reuse. A visit allocates nothing once the table has
// grown to the travel's size, and cleanup drops the whole memo with the
// record.
//
// The memo is unbounded: it holds at most the travel's distinct (step, vid)
// arrivals on this server, the same order of state as the travel's
// execution tables. The paper bounds the cache and replaces the smallest
// steps first; here an evicted entry let the next arrival re-expand its
// subtree, so a bounded memo ran slower than Async-GT, which absorbs no
// redundant arrival (DESIGN.md protocol note 2).
//
// Not internally synchronized: the owning BackendServer serializes access
// under its engine mutex and resolves the returned waiters under it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/hash.h"
#include "src/engine/types.h"

namespace gt::engine {

// One travel's memo on one server.
class TravelMemo {
 public:
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

  TravelMemo() = default;
  TravelMemo(const TravelMemo&) = delete;
  TravelMemo& operator=(const TravelMemo&) = delete;

  // Looks up {step, vid}; on miss inserts a pending entry (the caller
  // becomes the owner responsible for resolving it).
  LookupResult LookupOrInsertPending(uint32_t step, graph::VertexId vid) {
    if (const Slot* s = table_.Find(Key{vid, step})) {
      return LookupResult{s->state == kPending ? State::kPending : State::kResolved,
                          s->state == kReached};
    }
    table_.Insert(Slot{vid, step, kPending, kNone, kNone});
    return LookupResult{State::kMiss, false};
  }

  // Registers a waiter that Resolve hands back once the pending entry
  // resolves. REQUIRES: entry exists and is pending.
  void AddWaiter(uint32_t step, graph::VertexId vid, ExecId exec) {
    Slot* s = table_.Find(Key{vid, step});
    if (s == nullptr) return;
    uint32_t link = free_links_;
    if (link != kNone) {
      free_links_ = waiters_[link].next;
      waiters_[link] = WaiterLink{exec, kNone};
    } else {
      link = static_cast<uint32_t>(waiters_.size());
      waiters_.push_back(WaiterLink{exec, kNone});
    }
    if (s->head == kNone) {
      s->head = link;
    } else {
      waiters_[s->tail].next = link;
    }
    s->tail = link;
  }

  // Resolves a pending entry and calls on_waiter(const Waiter&) for each of
  // its waiters in registration order. `on_waiter` must not insert into
  // this memo. REQUIRES: entry exists and is pending.
  template <typename OnWaiter>
  void Resolve(uint32_t step, graph::VertexId vid, bool reach, OnWaiter&& on_waiter) {
    Slot* s = table_.Find(Key{vid, step});
    if (s == nullptr || s->state != kPending) return;
    s->state = reach ? kReached : kUnreached;
    const uint32_t head = s->head;
    const uint32_t tail = s->tail;
    s->head = s->tail = kNone;
    for (uint32_t link = head; link != kNone;) {
      const WaiterLink w = waiters_[link];
      on_waiter(Waiter{w.exec, vid});
      link = w.next;
    }
    if (tail != kNone) {
      // The entry's links go back to the free list, so the array stays as
      // large as the most waiters pending at once.
      waiters_[tail].next = free_links_;
      free_links_ = head;
    }
  }

  size_t size() const { return table_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  enum : uint8_t { kEmpty = 0, kPending, kUnreached, kReached };

  struct Key {
    graph::VertexId vid;
    uint32_t step;
    bool operator==(const Key& o) const { return vid == o.vid && step == o.step; }
  };
  struct Slot {
    graph::VertexId vid;
    uint32_t step;
    uint8_t state;
    uint32_t head;  // first and last waiter link, kNone when none
    uint32_t tail;
    Key key() const { return Key{vid, step}; }
    bool used() const { return state != kEmpty; }
    static uint64_t Hash(const Key& k) { return Mix64(k.vid + k.step * 0x9e3779b97f4a7c15ULL); }
  };
  struct WaiterLink {
    ExecId exec;
    uint32_t next;
  };

  FlatTable<Slot> table_;
  std::vector<WaiterLink> waiters_;
  uint32_t free_links_ = kNone;  // resolved entries' links, chained by `next`
};

}  // namespace gt::engine
