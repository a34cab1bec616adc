// Simulated storage-device latency model.
//
// The paper evaluates GraphTrek cold-start on RocksDB instances backed by
// GPFS / local disk, so every vertex access pays a device-level cost. This
// repo runs on one machine with an in-process cluster, so the device cost is
// modeled explicitly: each "real I/O" access (a vertex record read, an edge
// scan, a type-index scan) charges a configurable latency, and the charging
// thread waits it out. Because the engines are latency-bound rather than
// CPU-bound under this model, relative behaviour (barrier idling, straggler
// amplification, merging benefits) matches the paper's disk-bound setting.
//
// A thread may defer its waits with a BatchWait scope: the charges inside it
// are counted at once and paid in one sleep for their sum when the scope
// closes, as a real server submits a batch's reads together and blocks once
// for the last completion. The device stays serial per thread: the wait is
// the sum of the charges, never their max. A charge made outside any scope
// waits at once.
//
// The model also carries the external-straggler injection hook used by the
// Fig. 11 experiment (fixed delays inserted into individual vertex accesses).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/common/rng.h"

namespace gt {

struct DeviceModelConfig {
  // Cost charged per cold access. A vertex record read and an edge scan are
  // one access each, so expanding a vertex whose record is not yet read
  // charges twice.
  uint32_t access_latency_us = 0;
  // Additional cost per KiB transferred (sequential scan cost).
  uint32_t per_kib_us = 0;
  // Cost per *warm* access: the vertex's blocks were read earlier in the
  // same traversal and sit in the storage engine's block cache / OS page
  // cache. Redundant visits in the paper's Async-GT pay this, not a full
  // disk seek. 0 means "derive as access_latency_us / 10".
  uint32_t warm_latency_us = 0;
  // Heavy-tail model for cold accesses: with probability `tail_prob` a cold
  // access costs `tail_mult` x the base latency. Real storage devices (and
  // GPFS in particular) exhibit such tails; they are the organic straggler
  // source that hurts level-synchronous engines.
  double tail_prob = 0.0;
  uint32_t tail_mult = 10;
};

class DeviceModel {
 public:
  explicit DeviceModel(DeviceModelConfig cfg = {}) : cfg_(cfg) {}

  // While open on a thread, that thread's charges to `device` update every
  // counter at once but add their microseconds here instead of sleeping;
  // closing the scope sleeps once for the sum. A scope opened while another
  // is open on the thread, or with a null device, does nothing: nested
  // charges join the outermost scope (when it names the same device) and are
  // paid when it closes.
  class BatchWait {
   public:
    explicit BatchWait(DeviceModel* device)
        : device_(device), outermost_(device != nullptr && tls_open_ == nullptr) {
      if (outermost_) tls_open_ = this;
    }
    ~BatchWait() {
      if (!outermost_) return;
      tls_open_ = nullptr;
      device_->Pay(pending_us_);
    }
    BatchWait(const BatchWait&) = delete;
    BatchWait& operator=(const BatchWait&) = delete;

   private:
    friend class DeviceModel;
    DeviceModel* device_;
    bool outermost_;
    uint64_t pending_us_ = 0;
  };

  void set_config(DeviceModelConfig cfg) { cfg_ = cfg; }
  const DeviceModelConfig& config() const { return cfg_; }

  // Charges the cost of one access that read `bytes` bytes. `warm` accesses
  // (re-reads within a traversal) charge the cache-hit latency.
  void ChargeAccess(uint64_t bytes, bool warm = false) {
    uint64_t us;
    if (warm) {
      us = cfg_.warm_latency_us != 0 ? cfg_.warm_latency_us : cfg_.access_latency_us / 10;
      warm_accesses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      us = cfg_.access_latency_us + (bytes / 1024) * cfg_.per_kib_us;
      if (cfg_.tail_prob > 0.0) {
        thread_local Rng tl_rng(0x7a11 ^ reinterpret_cast<uintptr_t>(&tl_rng));
        if (tl_rng.Bernoulli(cfg_.tail_prob)) {
          us *= cfg_.tail_mult;
          tail_accesses_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    total_accesses_.fetch_add(1, std::memory_order_relaxed);
    total_us_.fetch_add(us, std::memory_order_relaxed);
    Wait(us);
  }

  // Charges an explicitly injected external delay (straggler emulation).
  void ChargeInjectedDelay(uint64_t us) {
    injected_us_.fetch_add(us, std::memory_order_relaxed);
    Wait(us);
  }

  uint64_t total_accesses() const { return total_accesses_.load(std::memory_order_relaxed); }
  uint64_t warm_accesses() const { return warm_accesses_.load(std::memory_order_relaxed); }
  uint64_t tail_accesses() const { return tail_accesses_.load(std::memory_order_relaxed); }
  uint64_t total_us() const { return total_us_.load(std::memory_order_relaxed); }
  uint64_t injected_us() const { return injected_us_.load(std::memory_order_relaxed); }
  // Sleeps actually taken: one per paid charge outside a scope, one per
  // closed scope whose charges were not all zero.
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

  void ResetStats() {
    total_accesses_ = 0;
    warm_accesses_ = 0;
    tail_accesses_ = 0;
    total_us_ = 0;
    injected_us_ = 0;
    waits_ = 0;
  }

 private:
  // Adds `us` to this thread's open scope on this device, or pays it now.
  void Wait(uint64_t us) {
    BatchWait* open = tls_open_;
    if (open != nullptr && open->device_ == this) {
      open->pending_us_ += us;
    } else {
      Pay(us);
    }
  }

  void Pay(uint64_t us) {
    if (us == 0) return;
    waits_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  static inline thread_local BatchWait* tls_open_ = nullptr;

  DeviceModelConfig cfg_;
  std::atomic<uint64_t> total_accesses_{0};
  std::atomic<uint64_t> warm_accesses_{0};
  std::atomic<uint64_t> tail_accesses_{0};
  std::atomic<uint64_t> total_us_{0};
  std::atomic<uint64_t> injected_us_{0};
  std::atomic<uint64_t> waits_{0};
};

}  // namespace gt
