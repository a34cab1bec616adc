// Micro-benchmarks (google-benchmark) for the RPC fabric and the engine's
// per-server data structures (traversal-affiliate cache, request queue).
#include <benchmark/benchmark.h>

#include "src/common/metrics.h"
#include "src/common/sync.h"
#include "src/engine/request_queue.h"
#include "src/engine/travel_cache.h"
#include "src/rpc/inproc_transport.h"
#include "src/rpc/mailbox.h"

namespace {

using namespace gt;

void BM_InprocSendDeliver(benchmark::State& state) {
  rpc::InProcTransport transport;
  std::atomic<uint64_t> delivered{0};
  transport.RegisterEndpoint(1, [&](rpc::Message&&) { delivered.fetch_add(1); }).ok();
  uint64_t sent = 0;
  for (auto _ : state) {
    rpc::Message m;
    m.type = rpc::MsgType::kPing;
    m.dst = 1;
    m.payload.assign(static_cast<size_t>(state.range(0)), 'x');
    transport.Send(std::move(m)).ok();
    sent++;
  }
  while (delivered.load() < sent) std::this_thread::yield();
  state.SetItemsProcessed(static_cast<int64_t>(sent));
}
BENCHMARK(BM_InprocSendDeliver)->Arg(64)->Arg(4096);

void BM_MailboxCallRoundTrip(benchmark::State& state) {
  rpc::InProcTransport transport;
  transport
      .RegisterEndpoint(1,
                        [&](rpc::Message&& m) {
                          rpc::Message reply;
                          reply.dst = m.src;
                          reply.rpc_id = m.rpc_id;
                          transport.Send(std::move(reply)).ok();
                        })
      .ok();
  rpc::Mailbox mailbox(&transport, rpc::kClientIdBase);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mailbox.Call(1, rpc::MsgType::kPing, "x"));
  }
}
BENCHMARK(BM_MailboxCallRoundTrip);

void BM_TravelCacheLookupInsert(benchmark::State& state) {
  engine::TravelCache cache(1 << 20);
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = cache.LookupOrInsertPending(1, static_cast<uint32_t>(i % 8), i % 100000);
    if (r.state == engine::TravelCache::State::kMiss) {
      cache.Resolve(1, static_cast<uint32_t>(i % 8), i % 100000, true);
    }
    benchmark::DoNotOptimize(r);
    i++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TravelCacheLookupInsert);

void BM_TravelCacheEvictionChurn(benchmark::State& state) {
  engine::TravelCache cache(static_cast<size_t>(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    cache.LookupOrInsertPending(1, static_cast<uint32_t>(i % 8), i);
    cache.Resolve(1, static_cast<uint32_t>(i % 8), i, false);
    i++;
  }
  state.counters["evictions"] = static_cast<double>(cache.evictions());
}
BENCHMARK(BM_TravelCacheEvictionChurn)->Arg(1024)->Arg(65536);

void BM_RequestQueuePushPop(benchmark::State& state) {
  const bool merging = state.range(0) != 0;
  engine::RequestQueue q;
  std::vector<engine::VertexTask> batch;
  uint64_t i = 0;
  for (auto _ : state) {
    // Two tasks per vertex (distinct steps) so merging has work to do.
    q.Push(engine::VertexTask{1, 1, i % 512, 1, true}, true, merging);
    q.Push(engine::VertexTask{1, 2, i % 512, 2, true}, true, merging);
    q.PopBatch(&batch);
    if (!merging) q.PopBatch(&batch);
    i++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_RequestQueuePushPop)->Arg(0)->Arg(1);

// Registry hot-path costs: instrumented code touches only these two
// operations, so they bound the observability overhead per event.
void BM_MetricsCounterInc(benchmark::State& state) {
  metrics::Registry registry;
  metrics::Counter* c = registry.GetCounter("bm_counter_total", {{"k", "v"}});
  for (auto _ : state) c->Inc();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  metrics::Registry registry;
  metrics::Histogram* h = registry.GetHistogram(
      "bm_latency_ms", {}, metrics::Histogram::LatencyBucketsMs());
  double v = 0.1;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 8000 ? v * 1.7 : 0.1;  // walk across the bucket ladder
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramObserve);

}  // namespace

BENCHMARK_MAIN();
