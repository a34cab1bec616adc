// Shared plumbing for the repository benchmark (gt_perfbench): options,
// latency samples and percentiles, the in-memory span tracer, per-layer
// counter snapshots taken through the public accessors of a Cluster, and
// the run report every workload fills in.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/engine/cluster.h"

namespace gtb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke size: tiny graphs and streams so every workload finishes in a few
  // seconds (the self-test runs this).
  bool smoke = false;
  // Self-test hook: adds a wrong entry to every precomputed oracle so the
  // correctness gate must trip.
  bool corrupt_oracle = false;
  std::string out_dir = ".bench_build/run";
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------------
// Samples and percentiles.

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  // Linear-interpolated quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
  // True when at least `min_beyond` samples lie above quantile q, the rule
  // for reporting a tail percentile.
  bool Supports(double q, size_t min_beyond = 10) const {
    return static_cast<double>(v_.size()) * (1.0 - q) >= static_cast<double>(min_beyond);
  }
  double Max() const;

 private:
  std::vector<double> v_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its own calls into each layer.
// Every span carries the id of the operation it belongs to and the span
// that caused it; spans stay in memory and are written once as Chrome
// trace-event JSON at exit.

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root of its operation
  uint64_t op = 0;      // per-operation id shared by all its spans
  uint32_t pid = 0;     // 0 = benchmark client side, 1 + s = server s
  uint32_t tid = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  std::string args;  // extra JSON members, without braces
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records a finished span (dropped when tracing is off).
  void Add(Span span);

  // Times `fn()` as span `name` (child of `parent` in operation `op`) when
  // tracing is on; just calls it otherwise. `*id` receives the span id.
  template <typename F>
  auto Time(const char* name, uint64_t op, uint64_t parent, F&& fn, uint64_t* id = nullptr);

  // Writes every recorded span plus `metadata` (a JSON object) to `path`.
  bool WriteChromeJson(const std::string& path, const std::string& metadata) const;
  size_t size() const;

  // Small per-thread index used as the Chrome-trace tid.
  static uint32_t ThreadIndex();

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable gt::Mutex mu_;
  std::vector<Span> spans_ GT_GUARDED_BY(mu_);
};

uint64_t NowUs();

template <typename F>
auto Tracer::Time(const char* name, uint64_t op, uint64_t parent, F&& fn, uint64_t* id) {
  if (!enabled()) {
    if (id != nullptr) *id = 0;
    return fn();
  }
  Span s;
  s.name = name;
  s.id = NewId();
  s.parent = parent;
  s.op = op;
  s.tid = ThreadIndex();
  s.start_us = NowUs();
  auto result = fn();
  s.end_us = NowUs();
  if (id != nullptr) *id = s.id;
  Add(std::move(s));
  return result;
}

// ---------------------------------------------------------------------------
// Per-layer counters, read through public accessors (device models, visit
// stats, adjacency caches, KV stats, transport stats) plus the registry for
// the figures only it exposes. Per-layer metrics are deltas of two of these.

struct LayerCounters {
  // device
  uint64_t dev_accesses = 0, dev_warm = 0, dev_tail = 0, dev_us = 0;
  // engine
  uint64_t visits_received = 0, visits_redundant = 0, visits_combined = 0;
  uint64_t visits_real_io = 0, duplicate_frames = 0;
  std::vector<uint64_t> real_io_per_server;
  uint64_t tc_hits = 0, tc_misses = 0;
  // graph
  uint64_t adj_hits = 0, adj_misses = 0, adj_evictions = 0, adj_builds = 0;
  double adj_build_us = 0;
  uint64_t adj_bytes = 0;
  // kv
  uint64_t kv_gets = 0, kv_block_reads = 0, kv_block_cache_hits = 0;
  uint64_t kv_flushes = 0, kv_compactions = 0, kv_compaction_bytes = 0;
  uint64_t kv_bytes_written = 0, kv_snapshots = 0;
  // rpc
  uint64_t rpc_msgs = 0, rpc_bytes = 0, rpc_dropped = 0;
};

LayerCounters ReadLayerCounters(gt::engine::Cluster* cluster);

// Samples queue depths (engine request queues, transport inboxes) every few
// milliseconds on its own thread while alive; the traced run's source for
// engine.queue_depth_max and rpc.link_queue_depth_max.
class DepthSampler {
 public:
  explicit DepthSampler(gt::engine::Cluster* cluster);
  ~DepthSampler();
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  uint64_t engine_max() const { return engine_max_.load(); }
  uint64_t link_max() const { return link_max_.load(); }

 private:
  gt::engine::Cluster* cluster_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> engine_max_{0};
  std::atomic<uint64_t> link_max_{0};
  std::thread thread_;  // declared last: started after the members it uses
};

// ---------------------------------------------------------------------------
// The report a workload produces.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // e.g. sample count; printed in the report only
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> env;  // key -> JSON value

  void E2E(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    end_to_end.push_back({name, value, unit, note});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    per_layer.push_back({name, value, unit, note});
  }
  void Env(const std::string& key, const std::string& json_value) {
    env.emplace_back(key, json_value);
  }
  void EnvStr(const std::string& key, const std::string& s) { Env(key, "\"" + s + "\""); }
  void EnvNum(const std::string& key, double v);
  // Records a failed check: counts against correctness and prints why.
  void Fail(const std::string& why);
};

// Adds the end-to-end p50 of `s` as `prefix`_p50_ms, and its tail_q
// percentile (0.9 or 0.99; 0 = none) only when at least 10 samples lie
// beyond it.
void AddLatency(Report* r, const std::string& prefix, const Samples& s, double tail_q);

// Process resource figures.
double ProcessCpuMs();   // user + sys
double PeakRssMb();

// Formats a double with all significant digits for the JSON result.
std::string Num(double v);

}  // namespace gtb
