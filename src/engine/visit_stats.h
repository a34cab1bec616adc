// Per-server visit statistics — the three counters instrumented for the
// paper's Fig. 7:
//   redundant visits - repeated (travel, step, vertex) requests absorbed by
//                      the traversal-affiliate cache (GraphTrek) or paid as
//                      duplicate I/O (Async-GT)
//   combined visits  - requests folded into another vertex access by
//                      execution merging
//   real I/O visits  - vertex accesses that reached the storage backend
// The sum equals the total vertex requests the server received.
//
// Received visits are additionally bucketed by traversal step (steps at or
// beyond kMaxTrackedSteps fold into the last slot) so the registry can show
// where in a traversal the visit volume concentrates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace gt::engine {

struct VisitStats {
  static constexpr uint32_t kMaxTrackedSteps = 16;

  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> redundant{0};
  std::atomic<uint64_t> combined{0};
  std::atomic<uint64_t> real_io{0};
  // Whole hand-off frames absorbed because their exec id was already
  // delivered once (duplicating transports); not part of the visit sum.
  std::atomic<uint64_t> duplicate_frames{0};
  // Arrivals that inserted a pending memo entry and own their vertex; the
  // memo's hits are the redundant arrivals. Not part of the visit sum.
  std::atomic<uint64_t> memo_misses{0};
  // kTraverse frames this server sent, roots included; received visits per
  // frame is the frontier entries each frame carried.
  std::atomic<uint64_t> frames_sent{0};
  // Quiescent flushes: each sends one travel's pending frames together, so
  // frames_sent / local_flushes is the mean frames per flush (roots aside).
  std::atomic<uint64_t> local_flushes{0};
  std::atomic<uint64_t> per_step[kMaxTrackedSteps] = {};

  void AddStep(uint32_t step, uint64_t n = 1) {
    per_step[step < kMaxTrackedSteps ? step : kMaxTrackedSteps - 1].fetch_add(
        n, std::memory_order_relaxed);
  }

  void Reset() {
    received = redundant = combined = real_io = duplicate_frames = memo_misses = frames_sent =
        local_flushes = 0;
    for (auto& s : per_step) s = 0;
  }

  struct Snapshot {
    uint64_t received = 0;
    uint64_t redundant = 0;
    uint64_t combined = 0;
    uint64_t real_io = 0;
    std::array<uint64_t, kMaxTrackedSteps> per_step = {};
  };

  Snapshot Read() const {
    Snapshot s{received.load(), redundant.load(), combined.load(), real_io.load(), {}};
    for (uint32_t i = 0; i < kMaxTrackedSteps; i++) s.per_step[i] = per_step[i].load();
    return s;
  }

  std::string ToString() const {
    auto s = Read();
    return "received=" + std::to_string(s.received) + " redundant=" + std::to_string(s.redundant) +
           " combined=" + std::to_string(s.combined) + " real_io=" + std::to_string(s.real_io);
  }
};

}  // namespace gt::engine
