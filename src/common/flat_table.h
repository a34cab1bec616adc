// FlatTable: an insert-only open-addressing hash table in one array (linear
// probing, at most 3/4 full). An insert allocates only when the table
// doubles, which suits the engine's per-visit hot paths: the per-travel memo
// and warm-read set use it, and each lives and dies with its travel.
//
// Slot is a plain struct whose value-initialized form Slot{} is unused and
// which provides
//   Key key() const;              // Key has operator==
//   bool used() const;
//   static uint64_t Hash(const Key&);
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace gt {

template <typename Slot>
class FlatTable {
 public:
  using Key = decltype(std::declval<const Slot&>().key());

  Slot* Find(const Key& key) {
    return const_cast<Slot*>(static_cast<const FlatTable*>(this)->Find(key));
  }
  const Slot* Find(const Key& key) const {
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(key);; i = Next(i)) {
      const Slot& s = slots_[i];
      if (!s.used()) return nullptr;
      if (s.key() == key) return &s;
    }
  }

  // Stores `slot` unless an entry with its key is present. Returns the
  // stored entry and whether `slot` was inserted; the pointer is valid until
  // the next insert.
  std::pair<Slot*, bool> Insert(const Slot& slot) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const Key key = slot.key();
    for (size_t i = Home(key);; i = Next(i)) {
      Slot& s = slots_[i];
      if (!s.used()) {
        s = slot;
        size_++;
        return {&s, true};
      }
      if (s.key() == key) return {&s, false};
    }
  }

  size_t size() const { return size_; }

 private:
  size_t Home(const Key& key) const { return Slot::Hash(key) & (slots_.size() - 1); }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, slots_.size() * 2));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (!s.used()) continue;
      size_t i = Home(s.key());
      while (slots_[i].used()) i = Next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size
  size_t size_ = 0;
};

// A set of 64-bit keys.
class FlatSet64 {
 public:
  // Inserts `key`; true when it was not yet present.
  bool Insert(uint64_t key) { return table_.Insert(Slot{key, true}).second; }
  bool Contains(uint64_t key) const { return table_.Find(key) != nullptr; }
  size_t size() const { return table_.size(); }

 private:
  struct Slot {
    uint64_t k;
    bool in;
    uint64_t key() const { return k; }
    bool used() const { return in; }
    static uint64_t Hash(uint64_t key) { return Mix64(key); }
  };
  FlatTable<Slot> table_;
};

}  // namespace gt
