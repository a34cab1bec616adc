// Micro-benchmarks (google-benchmark) for the RPC fabric and the engine's
// per-server data structures (traversal-affiliate memo, request queue).
#include <benchmark/benchmark.h>

#include <memory>

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

// One travel's memo at the engine's access pattern: a lookup per arrival
// (Arg(0) distinct vertices per step, 8 steps), the owner resolving each
// miss, one redundant arrival in four registering a waiter first.
void BM_TravelMemoLookupResolve(benchmark::State& state) {
  const uint64_t vertices = static_cast<uint64_t>(state.range(0));
  auto memo = std::make_unique<engine::TravelMemo>();
  uint64_t i = 0;
  uint64_t waiters = 0;
  for (auto _ : state) {
    const uint32_t step = static_cast<uint32_t>(i % 8);
    const graph::VertexId vid = (i / 8) % vertices;
    auto r = memo->LookupOrInsertPending(step, vid);
    if (r.state == engine::TravelMemo::State::kMiss) {
      if (i % 4 == 0) memo->AddWaiter(step, vid, /*exec=*/i);
      memo->Resolve(step, vid, true, [&](const engine::TravelMemo::Waiter&) { waiters++; });
    }
    benchmark::DoNotOptimize(r);
    if (++i % (8 * vertices * 2) == 0) {
      state.PauseTiming();
      memo = std::make_unique<engine::TravelMemo>();  // next travel
      state.ResumeTiming();
    }
  }
  state.counters["waiters"] = static_cast<double>(waiters);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TravelMemoLookupResolve)->Arg(1000)->Arg(100000);

// A travel's cleanup: fill a memo with Arg(0) resolved entries beside
// another travel's 100 K, then drop it (timed). Cost scales with the erased
// travel's own size, not with the other travel's.
void BM_TravelMemoErase(benchmark::State& state) {
  engine::TravelMemo other;
  for (graph::VertexId v = 0; v < 100000; v++) {
    other.LookupOrInsertPending(1, v);
    other.Resolve(1, v, false, [](const engine::TravelMemo::Waiter&) {});
  }
  const graph::VertexId n = static_cast<graph::VertexId>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto memo = std::make_unique<engine::TravelMemo>();
    for (graph::VertexId v = 0; v < n; v++) {
      memo->LookupOrInsertPending(2, v);
      memo->Resolve(2, v, true, [](const engine::TravelMemo::Waiter&) {});
    }
    state.ResumeTiming();
    memo.reset();
  }
  state.counters["other_entries"] = static_cast<double>(other.size());
}
BENCHMARK(BM_TravelMemoErase)->Arg(1)->Arg(10000);

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
