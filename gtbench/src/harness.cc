#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/common/clock.h"
#include "src/common/metrics.h"

namespace gtb {

uint64_t NowUs() { return gt::NowMicros(); }

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

// ---------------------------------------------------------------------------

uint32_t Tracer::ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

void Tracer::Add(Span span) {
  if (!enabled()) return;
  if (span.id == 0) span.id = NewId();
  gt::MutexLock lk(&mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  gt::MutexLock lk(&mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path, const std::string& metadata) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\": %s,\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n",
               metadata.c_str());
  gt::MutexLock lk(&mu_);
  bool first = true;
  auto emit_meta = [&](uint32_t pid, const std::string& name) {
    std::fprintf(f, "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,\"tid\":0,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", pid, name.c_str());
    first = false;
  };
  std::map<uint32_t, bool> pids;
  for (const Span& s : spans_) pids[s.pid] = true;
  for (const auto& [pid, unused] : pids) {
    emit_meta(pid, pid == 0 ? "benchmark client" : "server s" + std::to_string(pid - 1));
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"gtbench\",\"pid\":%u,"
                 "\"tid\":%u,\"ts\":%llu,\"dur\":%llu,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"op\":%llu%s%s}}",
                 first ? "" : ",\n", s.name.c_str(), s.pid, s.tid,
                 static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us - s.start_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.args.empty() ? "" : ",",
                 s.args.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

LayerCounters ReadLayerCounters(gt::engine::Cluster* cluster) {
  LayerCounters c;
  for (uint32_t i = 0; i < cluster->num_servers(); i++) {
    const gt::DeviceModel* dev = cluster->device(i);
    c.dev_accesses += dev->total_accesses();
    c.dev_warm += dev->warm_accesses();
    c.dev_tail += dev->tail_accesses();
    c.dev_us += dev->total_us();

    const auto& vstats = cluster->server(i)->visit_stats();
    const auto vs = vstats.Read();
    c.visits_received += vs.received;
    c.visits_redundant += vs.redundant;
    c.visits_combined += vs.combined;
    c.visits_real_io += vs.real_io;
    c.real_io_per_server.push_back(vs.real_io);
    c.duplicate_frames += vstats.duplicate_frames.load();

    gt::graph::GraphStore* store = cluster->store(i);
    if (auto* adj = store->adjacency_cache()) {
      c.adj_hits += adj->hits();
      c.adj_misses += adj->misses();
      c.adj_evictions += adj->evictions();
      c.adj_builds += adj->builds();
      c.adj_bytes += adj->usage();
    }
    const gt::kv::KvStats& kv = store->db()->stats();
    c.kv_gets += kv.gets.load();
    c.kv_block_reads += kv.block_reads.load();
    c.kv_block_cache_hits += kv.block_cache_hits.load();
    c.kv_flushes += kv.flushes.load();
    c.kv_compactions += kv.compactions.load();
    c.kv_compaction_bytes += kv.compaction_bytes.load();
    c.kv_bytes_written += kv.bytes_written.load();
    c.kv_snapshots += kv.snapshots_taken.load();
  }
  const gt::rpc::TransportStats& ts = cluster->transport()->stats();
  c.rpc_msgs = ts.messages_sent.load();
  c.rpc_bytes = ts.bytes_sent.load();
  c.rpc_dropped = ts.messages_dropped.load();

  // Figures only the registry exposes. Registry-owned families outlive a
  // cluster, which is fine: every use is a delta within one cluster's life.
  auto* reg = gt::metrics::Registry::Default();
  c.tc_hits = static_cast<uint64_t>(reg->Sum("gt_engine_travel_cache_hits_total"));
  c.tc_misses = static_cast<uint64_t>(reg->Sum("gt_engine_travel_cache_misses_total"));
  c.adj_build_us = reg->Sum("gt_graph_adj_build_us_sum");
  return c;
}

DepthSampler::DepthSampler(gt::engine::Cluster* cluster)
    : cluster_(cluster), thread_([this] {
        while (!stop_.load()) {
          uint64_t engine = 0;
          for (uint32_t i = 0; i < cluster_->num_servers(); i++) {
            engine = std::max<uint64_t>(engine, cluster_->server(i)->queue_depth());
          }
          uint64_t link = 0;
          for (const auto& [key, ls] : cluster_->inproc_transport()->LinkSnapshot()) {
            link = std::max<uint64_t>(link, ls.queue_depth);
          }
          if (engine > engine_max_.load()) engine_max_.store(engine);
          if (link > link_max_.load()) link_max_.store(link);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

DepthSampler::~DepthSampler() {
  stop_.store(true);
  thread_.join();
}

// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::EnvNum(const std::string& key, double v) { Env(key, Num(v)); }

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "gt_perfbench: CHECK FAILED: %s\n", why.c_str());
}

void AddLatency(Report* r, const std::string& prefix, const Samples& s, double tail_q) {
  auto add = [&](const std::string& suffix, double q) {
    r->E2E(prefix + suffix, s.Quantile(q), "ms", "n=" + std::to_string(s.size()));
  };
  add("_p50_ms", 0.50);
  if (tail_q > 0 && s.Supports(tail_q)) {
    add(tail_q >= 0.99 ? "_p99_ms" : "_p90_ms", tail_q);
  } else if (tail_q > 0) {
    std::printf("# %s_p%d_ms not reported: %zu samples leave fewer than 10 beyond it\n",
                prefix.c_str(), static_cast<int>(std::lround(tail_q * 100)), s.size());
  }
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace gtb
