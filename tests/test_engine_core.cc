// Unit tests for the engine building blocks: the traversal-affiliate cache,
// the scheduling/merging request queue, protocol payload codecs, visit
// statistics and the straggler injector.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/clock.h"
#include "src/engine/request_queue.h"
#include "src/engine/straggler.h"
#include "src/engine/travel_cache.h"
#include "src/engine/types.h"
#include "src/engine/visit_stats.h"

namespace gt::engine {
namespace {

// --- TravelCache ----------------------------------------------------------------

TEST(TravelCacheTest, FirstArrivalIsMissAndBecomesOwner) {
  TravelCache cache(100);
  auto r = cache.LookupOrInsertPending(1, 0, 42);
  EXPECT_EQ(r.state, TravelCache::State::kMiss);
  r = cache.LookupOrInsertPending(1, 0, 42);
  EXPECT_EQ(r.state, TravelCache::State::kPending);
}

TEST(TravelCacheTest, KeyIsTravelStepVertexTriple) {
  TravelCache cache(100);
  cache.LookupOrInsertPending(1, 0, 42);
  // Different travel, step or vertex: all distinct entries.
  EXPECT_EQ(cache.LookupOrInsertPending(2, 0, 42).state, TravelCache::State::kMiss);
  EXPECT_EQ(cache.LookupOrInsertPending(1, 1, 42).state, TravelCache::State::kMiss);
  EXPECT_EQ(cache.LookupOrInsertPending(1, 0, 43).state, TravelCache::State::kMiss);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(TravelCacheTest, ResolveFiresWaitersWithReachValue) {
  TravelCache cache(100);
  cache.LookupOrInsertPending(1, 2, 7);
  cache.AddWaiter(1, 2, 7, TravelCache::Waiter{/*exec=*/11, /*vid=*/7});
  cache.AddWaiter(1, 2, 7, TravelCache::Waiter{/*exec=*/12, /*vid=*/7});
  // Resolve hands back both waiters, in registration order.
  const auto waiters = cache.Resolve(1, 2, 7, true);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0].exec, 11u);
  EXPECT_EQ(waiters[0].vid, 7u);
  EXPECT_EQ(waiters[1].exec, 12u);
  EXPECT_EQ(waiters[1].vid, 7u);
  // Subsequent lookups see the resolved value.
  auto r = cache.LookupOrInsertPending(1, 2, 7);
  EXPECT_EQ(r.state, TravelCache::State::kResolved);
  EXPECT_TRUE(r.reach);
}

TEST(TravelCacheTest, EvictionPrefersSmallestStep) {
  TravelCache cache(4);
  // Fill with resolved entries at steps 3, 1, 2, 0.
  for (uint32_t step : {3u, 1u, 2u, 0u}) {
    cache.LookupOrInsertPending(1, step, step);
    cache.Resolve(1, step, step, false);
  }
  EXPECT_EQ(cache.size(), 4u);
  // Next insert evicts the smallest step id (0), per the paper's policy.
  cache.LookupOrInsertPending(1, 9, 99);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.LookupOrInsertPending(1, 0, 0).state, TravelCache::State::kMiss);
  // Step 3 survived.
  EXPECT_EQ(cache.LookupOrInsertPending(1, 3, 3).state, TravelCache::State::kResolved);
}

TEST(TravelCacheTest, PendingEntriesAreNotEvicted) {
  TravelCache cache(2);
  cache.LookupOrInsertPending(1, 0, 1);  // pending, pinned
  cache.LookupOrInsertPending(1, 0, 2);  // pending, pinned
  cache.LookupOrInsertPending(1, 0, 3);  // exceeds capacity, nothing evictable
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.LookupOrInsertPending(1, 0, 1).state, TravelCache::State::kPending);
}

TEST(TravelCacheTest, EraseTravelDropsOnlyThatTravel) {
  TravelCache cache(100);
  cache.LookupOrInsertPending(1, 0, 1);
  cache.Resolve(1, 0, 1, true);
  cache.LookupOrInsertPending(2, 0, 1);
  cache.Resolve(2, 0, 1, false);
  cache.EraseTravel(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.LookupOrInsertPending(1, 0, 1).state, TravelCache::State::kMiss);
  EXPECT_EQ(cache.LookupOrInsertPending(2, 0, 1).state, TravelCache::State::kResolved);
}

TEST(TravelCacheTest, EraseTravelDropsPendingEntryWithWaiters) {
  TravelCache cache(100);
  cache.LookupOrInsertPending(1, 0, 5);
  cache.AddWaiter(1, 0, 5, TravelCache::Waiter{/*exec=*/21, /*vid=*/5});
  ASSERT_TRUE(cache.HasTravel(1));
  cache.EraseTravel(1);
  EXPECT_FALSE(cache.HasTravel(1));
  EXPECT_EQ(cache.size(), 0u);
}

// --- RequestQueue ---------------------------------------------------------------

VertexTask Task(TravelId travel, uint32_t step, graph::VertexId vid) {
  return VertexTask{travel, step, vid, 0, true};
}

TEST(RequestQueueTest, FifoTasksPopInArrivalOrder) {
  RequestQueue q;
  q.Push(Task(1, 5, 10), /*priority=*/false, /*mergeable=*/false);
  q.Push(Task(1, 1, 11), false, false);
  q.Push(Task(1, 3, 12), false, false);
  std::vector<VertexTask> batch;
  std::vector<graph::VertexId> order;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(q.PopBatch(&batch));
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].vid);
  }
  EXPECT_EQ(order, (std::vector<graph::VertexId>{10, 11, 12}));
}

TEST(RequestQueueTest, PriorityTasksPopSmallestStepFirst) {
  // The paper's Fig. 6 schedule: requests reorder by step id.
  RequestQueue q;
  q.Push(Task(1, 1, 100), true, false);
  q.Push(Task(1, 1, 101), true, false);
  q.Push(Task(1, 2, 102), true, false);
  q.Push(Task(1, 0, 103), true, false);
  q.Push(Task(1, 2, 104), true, false);
  std::vector<VertexTask> batch;
  std::vector<uint32_t> steps;
  while (q.size() > 0) {
    ASSERT_TRUE(q.PopBatch(&batch));
    for (auto& t : batch) steps.push_back(t.step);
  }
  EXPECT_EQ(steps, (std::vector<uint32_t>{0, 1, 1, 2, 2}));
}

TEST(RequestQueueTest, MergingExtractsAllTasksForSameVertex) {
  // The paper's Fig. 6 merge: steps 1 and 2 of v0 combine into one access.
  RequestQueue q;
  q.Push(Task(1, 1, 0), true, true);
  q.Push(Task(1, 1, 1), true, true);
  q.Push(Task(1, 2, 0), true, true);
  q.Push(Task(1, 2, 1), true, true);
  q.Push(Task(1, 0, 2), true, true);

  std::vector<VertexTask> batch;
  ASSERT_TRUE(q.PopBatch(&batch));  // step 0, v2 first (priority)
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].vid, 2u);

  ASSERT_TRUE(q.PopBatch(&batch));  // v0: steps 1 and 2 merged
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].vid, 0u);
  EXPECT_EQ(batch[1].vid, 0u);

  ASSERT_TRUE(q.PopBatch(&batch));  // v1: steps 1 and 2 merged
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].vid, 1u);
}

TEST(RequestQueueTest, MergingIsScopedToTravel) {
  RequestQueue q;
  q.Push(Task(1, 0, 7), true, true);
  q.Push(Task(2, 0, 7), true, true);  // same vertex, different travel
  std::vector<VertexTask> batch;
  ASSERT_TRUE(q.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(q.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(RequestQueueTest, NonMergeableTasksNeverMerge) {
  RequestQueue q;
  q.Push(Task(1, 0, 7), false, false);
  q.Push(Task(1, 1, 7), false, false);
  std::vector<VertexTask> batch;
  ASSERT_TRUE(q.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(RequestQueueTest, ShutdownWakesBlockedWorkers) {
  RequestQueue q;
  std::thread worker([&] {
    std::vector<VertexTask> batch;
    EXPECT_FALSE(q.PopBatch(&batch));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Shutdown();
  worker.join();
}

TEST(RequestQueueTest, HighWatermarkTracksPeak) {
  RequestQueue q;
  for (int i = 0; i < 10; i++) q.Push(Task(1, 0, i), true, true);
  std::vector<VertexTask> batch;
  while (q.size() > 0) q.PopBatch(&batch);
  EXPECT_EQ(q.high_watermark(), 10u);
}

// --- protocol payload codecs ---------------------------------------------------------

TEST(PayloadTest, TraverseRoundTrip) {
  TraversePayload p;
  p.travel_id = 99;
  p.step = 3;
  p.exec_id = MakeExecId(2, 17);
  p.parent_exec = MakeExecId(1, 4);
  p.parent_server = 1;
  p.coordinator = 0;
  p.mode = static_cast<uint8_t>(EngineMode::kGraphTrek);
  p.scan_start = 1;
  p.plan = "plan-bytes";
  p.entries = {{5, {1, 2}}, {9, {}}};

  // The decoded plan is a view into the encoded buffer: keep it alive.
  const std::string encoded = p.Encode();
  auto decoded = TraversePayload::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->travel_id, 99u);
  EXPECT_EQ(decoded->step, 3u);
  EXPECT_EQ(decoded->exec_id, p.exec_id);
  EXPECT_EQ(decoded->parent_exec, p.parent_exec);
  EXPECT_EQ(decoded->scan_start, 1);
  EXPECT_EQ(decoded->plan, "plan-bytes");
  EXPECT_EQ(decoded->entries, p.entries);
}

TEST(PayloadTest, AnswerRoundTrip) {
  AnswerPayload p;
  p.travel_id = 7;
  p.exec_id = MakeExecId(3, 9);
  p.parent_exec = MakeExecId(0, 1);
  p.reached_parents = {10, 20, 30};
  p.result_vids = {100};
  auto decoded = AnswerPayload::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->reached_parents, p.reached_parents);
  EXPECT_EQ(decoded->result_vids, p.result_vids);
}

TEST(PayloadTest, ReleaseStepRoundTrip) {
  ReleaseStepPayload p;
  p.travel_id = 11;
  p.step = 4;
  auto decoded = ReleaseStepPayload::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->travel_id, 11u);
  EXPECT_EQ(decoded->step, 4u);
}

TEST(PayloadTest, ProgressRoundTrip) {
  ProgressPayload p;
  p.travel_id = 3;
  p.unfinished_per_step = {0, 5, 2};
  p.total_created = 100;
  p.total_terminated = 93;
  auto decoded = ProgressPayload::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->unfinished_per_step, p.unfinished_per_step);
  EXPECT_EQ(decoded->total_created, 100u);
}

TEST(PayloadTest, TraceBatchRoundTrip) {
  TraceBatchPayload p;
  p.travel_id = 77;
  p.items = {TraceItem{MakeExecId(1, 2), 3, 1}, TraceItem{MakeExecId(0, 9), 2, 0}};
  auto decoded = TraceBatchPayload::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->travel_id, 77u);
  EXPECT_EQ(decoded->items, p.items);
}

TEST(PayloadTest, TraceBatchRejectsTruncation) {
  TraceBatchPayload p;
  p.travel_id = 1;
  p.items = {TraceItem{5, 1, 1}};
  const std::string bytes = p.Encode();
  EXPECT_FALSE(TraceBatchPayload::Decode(std::string_view(bytes).substr(0, bytes.size() - 1))
                   .ok());
}

TEST(PayloadTest, CorruptPayloadsRejected) {
  EXPECT_FALSE(TraversePayload::Decode("x").ok());
  EXPECT_FALSE(AnswerPayload::Decode("").ok());
  EXPECT_FALSE(ReleaseStepPayload::Decode("z").ok());
}

TEST(ExecIdTest, EncodesServerAndSequence) {
  const ExecId id = MakeExecId(25, 123456);
  EXPECT_EQ(ExecServer(id), 25u);
  EXPECT_NE(MakeExecId(1, 5), MakeExecId(2, 5));
  EXPECT_NE(MakeExecId(1, 5), MakeExecId(1, 6));
}

// --- VisitStats -----------------------------------------------------------------------

TEST(VisitStatsTest, SnapshotAndReset) {
  VisitStats stats;
  stats.received.fetch_add(10);
  stats.redundant.fetch_add(6);
  stats.combined.fetch_add(1);
  stats.real_io.fetch_add(3);
  auto snap = stats.Read();
  EXPECT_EQ(snap.received, 10u);
  EXPECT_EQ(snap.redundant + snap.combined + snap.real_io, 10u);
  stats.Reset();
  EXPECT_EQ(stats.Read().received, 0u);
}

// --- StragglerInjector -------------------------------------------------------------------

TEST(StragglerTest, RuleMatchesServerAndStep) {
  StragglerInjector injector;
  injector.AddRule(StragglerRule{.server_id = 1, .step = 3, .delay_us = 1, .max_hits = 0});

  tls_current_step = 3;
  injector.OnVertexAccess(1, 100);  // matches
  injector.OnVertexAccess(2, 100);  // wrong server
  tls_current_step = 2;
  injector.OnVertexAccess(1, 100);  // wrong step
  tls_current_step = -1;
  EXPECT_EQ(injector.total_injected_delays(), 1u);
}

TEST(StragglerTest, AnyStepRuleAndMaxHits) {
  StragglerInjector injector;
  injector.AddRule(StragglerRule{.server_id = 0, .step = -1, .delay_us = 1, .max_hits = 2});
  tls_current_step = 0;
  for (int i = 0; i < 5; i++) injector.OnVertexAccess(0, i);
  tls_current_step = -1;
  EXPECT_EQ(injector.total_injected_delays(), 2u);
}

TEST(StragglerTest, DelayIsActuallyInjected) {
  DeviceModel device;
  StragglerInjector injector(&device);
  injector.AddRule(StragglerRule{.server_id = 0, .step = -1, .delay_us = 5000, .max_hits = 1});
  tls_current_step = 1;
  Stopwatch watch;
  injector.OnVertexAccess(0, 1);
  tls_current_step = -1;
  EXPECT_GE(watch.ElapsedMicros(), 4000u);
  EXPECT_EQ(device.injected_us(), 5000u);
}

TEST(StragglerTest, ClearRulesStopsInjection) {
  StragglerInjector injector;
  injector.AddRule(StragglerRule{.server_id = 0, .step = -1, .delay_us = 1, .max_hits = 0});
  injector.ClearRules();
  tls_current_step = 0;
  injector.OnVertexAccess(0, 1);
  tls_current_step = -1;
  EXPECT_EQ(injector.total_injected_delays(), 0u);
}

}  // namespace
}  // namespace gt::engine
