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
// The capacity is per server (MemoPool, shared by the server's memos).
// Replacement follows the paper's time-based strategy: the resolved
// entries with the smallest step ids are substituted first (the presence
// of larger step ids indicates the oldest steps are finished), oldest
// insertion first among equal steps. Pending entries pin protocol state
// and are never evicted. The pool keeps every resolved entry in one binary
// heap in that order, so an insert into a full pool evicts exactly one
// entry in O(log n); entries of dropped memos leave the heap lazily.
//
// Not internally synchronized: the owning BackendServer serializes access
// under its engine mutex and resolves the returned waiters under it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/hash.h"
#include "src/engine/types.h"

namespace gt::engine {

class TravelMemo;

// The server-wide side of the memo: the capacity in entries, the hit, miss
// and eviction counters, the registry of live memos, and the eviction heap
// of their resolved entries.
class MemoPool {
 public:
  explicit MemoPool(size_t capacity = 1 << 20) : capacity_(capacity) {}
  MemoPool(const MemoPool&) = delete;
  MemoPool& operator=(const MemoPool&) = delete;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  friend class TravelMemo;

  // A resolved entry in the eviction heap: the memo's registry slot, and
  // the entry's step, pool-wide insertion number and vertex.
  struct Victim {
    uint32_t step;
    uint32_t memo;
    uint64_t seq;
    graph::VertexId vid;
  };
  // Heap order: the top is the smallest step, oldest insertion.
  static bool Later(const Victim& a, const Victim& b) {
    return a.step != b.step ? a.step > b.step : a.seq > b.seq;
  }

  uint32_t Register(TravelMemo* memo) {
    if (free_memos_.empty()) {
      memos_.push_back(memo);
      return static_cast<uint32_t>(memos_.size() - 1);
    }
    const uint32_t slot = free_memos_.back();
    free_memos_.pop_back();
    memos_[slot] = memo;
    return slot;
  }
  void Unregister(uint32_t slot, size_t resolved);
  void AddVictim(const Victim& v) {
    victims_.push_back(v);
    std::push_heap(victims_.begin(), victims_.end(), Later);
  }
  // Evicts resolved entries while the pool is full.
  void MakeRoom();
  // Whether `v` still names an entry: its memo is alive and not a newer
  // memo that reused the registry slot (a memo's entries are numbered from
  // its birth on). Eviction is the only other removal, and it pops.
  bool Live(const Victim& v) const;

  size_t capacity_;
  size_t size_ = 0;
  size_t resolved_ = 0;  // evictable entries: the live victims
  uint64_t next_seq_ = 0;
  uint64_t evictions_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<TravelMemo*> memos_;  // registry, nullptr in free slots
  std::vector<uint32_t> free_memos_;
  std::vector<Victim> victims_;  // min-heap by (step, seq)
  size_t stale_victims_ = 0;     // victims of dropped memos still in the heap
};

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

  explicit TravelMemo(MemoPool* pool)
      : pool_(pool), born_(pool->next_seq_), pool_slot_(pool->Register(this)) {}
  ~TravelMemo() {
    pool_->size_ -= table_.size();
    pool_->Unregister(pool_slot_, resolved_);
  }
  TravelMemo(const TravelMemo&) = delete;
  TravelMemo& operator=(const TravelMemo&) = delete;

  // Looks up {step, vid}; on miss inserts a pending entry (the caller
  // becomes the owner responsible for resolving it).
  LookupResult LookupOrInsertPending(uint32_t step, graph::VertexId vid) {
    if (const Slot* s = table_.Find(Key{vid, step})) {
      pool_->hits_++;
      return LookupResult{s->state == kPending ? State::kPending : State::kResolved,
                          s->state == kReached};
    }
    pool_->misses_++;
    pool_->MakeRoom();
    table_.Insert(Slot{vid, pool_->next_seq_++, step, kPending, kNone, kNone});
    pool_->size_++;
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
    resolved_++;
    pool_->resolved_++;
    pool_->AddVictim(MemoPool::Victim{step, pool_slot_, s->seq, vid});
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
  friend class MemoPool;

  static constexpr uint32_t kNone = UINT32_MAX;
  enum : uint8_t { kEmpty = 0, kPending, kUnreached, kReached };

  struct Key {
    graph::VertexId vid;
    uint32_t step;
    bool operator==(const Key& o) const { return vid == o.vid && step == o.step; }
  };
  struct Slot {
    graph::VertexId vid;
    uint64_t seq;  // pool-wide insertion number (eviction tie-break)
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

  // Removes a resolved entry (the pool's eviction).
  void Evict(uint32_t step, graph::VertexId vid) {
    if (!table_.Erase(Key{vid, step})) return;
    resolved_--;
    pool_->size_--;
    pool_->resolved_--;
  }

  MemoPool* pool_;
  uint64_t born_;  // pool_->next_seq_ at construction: this memo's entries are numbered from it
  uint32_t pool_slot_;
  size_t resolved_ = 0;
  FlatTable<Slot> table_;
  std::vector<WaiterLink> waiters_;
  uint32_t free_links_ = kNone;  // resolved entries' links, chained by `next`
};

inline bool MemoPool::Live(const Victim& v) const {
  const TravelMemo* memo = memos_[v.memo];
  return memo != nullptr && memo->born_ <= v.seq;
}

inline void MemoPool::Unregister(uint32_t slot, size_t resolved) {
  memos_[slot] = nullptr;
  free_memos_.push_back(slot);
  resolved_ -= resolved;
  stale_victims_ += resolved;
  // Drop the dead victims once they are half the heap: each rebuild costs
  // at most twice the victims it drops.
  if (stale_victims_ * 2 <= victims_.size()) return;
  victims_.erase(std::remove_if(victims_.begin(), victims_.end(),
                                [this](const Victim& v) { return !Live(v); }),
                 victims_.end());
  std::make_heap(victims_.begin(), victims_.end(), Later);
  stale_victims_ = 0;
}

inline void MemoPool::MakeRoom() {
  while (size_ >= capacity_ && resolved_ > 0) {
    std::pop_heap(victims_.begin(), victims_.end(), Later);
    const Victim v = victims_.back();
    victims_.pop_back();
    if (!Live(v)) {
      stale_victims_--;
      continue;
    }
    memos_[v.memo]->Evict(v.step, v.vid);
    evictions_++;
  }
}

}  // namespace gt::engine
