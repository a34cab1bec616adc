// Unit tests for the engine building blocks: the traversal-affiliate memo,
// the scheduling/merging request queue, protocol payload codecs, visit
// statistics and the straggler injector.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <thread>

#include "src/common/clock.h"
#include "src/engine/request_queue.h"
#include "src/engine/straggler.h"
#include "src/engine/travel_cache.h"
#include "src/engine/types.h"
#include "src/engine/visit_stats.h"

namespace gt::engine {
namespace {

// --- traversal-affiliate memo (TravelMemo) ------------------------------------

// Resolves {step, vid} and returns the waiters it hands back, in order.
std::vector<TravelMemo::Waiter> ResolveAll(TravelMemo& memo, uint32_t step, graph::VertexId vid,
                                           bool reach) {
  std::vector<TravelMemo::Waiter> waiters;
  memo.Resolve(step, vid, reach, [&](const TravelMemo::Waiter& w) { waiters.push_back(w); });
  return waiters;
}

TEST(TravelCacheTest, FirstArrivalIsMissAndBecomesOwner) {
  TravelMemo memo;
  auto r = memo.LookupOrInsertPending(0, 42);
  EXPECT_EQ(r.state, TravelMemo::State::kMiss);
  r = memo.LookupOrInsertPending(0, 42);
  EXPECT_EQ(r.state, TravelMemo::State::kPending);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(TravelCacheTest, KeyIsTravelStepVertexTriple) {
  TravelMemo travel1;
  TravelMemo travel2;
  travel1.LookupOrInsertPending(0, 42);
  // Different travel, step or vertex: all distinct entries.
  EXPECT_EQ(travel2.LookupOrInsertPending(0, 42).state, TravelMemo::State::kMiss);
  EXPECT_EQ(travel1.LookupOrInsertPending(1, 42).state, TravelMemo::State::kMiss);
  EXPECT_EQ(travel1.LookupOrInsertPending(0, 43).state, TravelMemo::State::kMiss);
  EXPECT_EQ(travel1.size(), 3u);
  EXPECT_EQ(travel2.size(), 1u);
}

TEST(TravelCacheTest, ResolveFiresWaitersWithReachValue) {
  TravelMemo memo;
  memo.LookupOrInsertPending(2, 7);
  memo.AddWaiter(2, 7, /*exec=*/11);
  memo.AddWaiter(2, 7, /*exec=*/12);
  // Resolve hands back both waiters, in registration order.
  const auto waiters = ResolveAll(memo, 2, 7, true);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0].exec, 11u);
  EXPECT_EQ(waiters[0].vid, 7u);
  EXPECT_EQ(waiters[1].exec, 12u);
  EXPECT_EQ(waiters[1].vid, 7u);
  // Subsequent lookups see the resolved value.
  auto r = memo.LookupOrInsertPending(2, 7);
  EXPECT_EQ(r.state, TravelMemo::State::kResolved);
  EXPECT_TRUE(r.reach);
}

TEST(TravelCacheTest, EraseTravelDropsOnlyThatTravel) {
  auto travel1 = std::make_unique<TravelMemo>();
  TravelMemo travel2;
  travel1->LookupOrInsertPending(0, 1);
  ResolveAll(*travel1, 0, 1, true);
  travel2.LookupOrInsertPending(0, 1);
  ResolveAll(travel2, 0, 1, false);
  travel1.reset();  // the travel's cleanup drops its memo
  EXPECT_EQ(travel2.size(), 1u);
  travel1 = std::make_unique<TravelMemo>();
  EXPECT_EQ(travel1->LookupOrInsertPending(0, 1).state, TravelMemo::State::kMiss);
  const auto r = travel2.LookupOrInsertPending(0, 1);
  EXPECT_EQ(r.state, TravelMemo::State::kResolved);
  EXPECT_FALSE(r.reach);
}

TEST(TravelCacheTest, EraseTravelDropsPendingEntryWithWaiters) {
  auto memo = std::make_unique<TravelMemo>();
  memo->LookupOrInsertPending(0, 5);
  memo->AddWaiter(0, 5, /*exec=*/21);
  ASSERT_EQ(memo->size(), 1u);
  memo.reset();  // the waiter links go with the memo (ASan checks the drop)
}

// The table grows (rehash) without losing entries: every one of 5,000
// resolved entries is still found, with its reach value.
TEST(TravelCacheTest, ManyEntriesSurviveGrowth) {
  TravelMemo memo;
  for (graph::VertexId v = 0; v < 5000; v++) {
    ASSERT_EQ(memo.LookupOrInsertPending(v % 7, v * 2654435761u).state, TravelMemo::State::kMiss);
    ResolveAll(memo, v % 7, v * 2654435761u, v % 3 == 0);
  }
  EXPECT_EQ(memo.size(), 5000u);
  for (graph::VertexId v = 0; v < 5000; v++) {
    const auto r = memo.LookupOrInsertPending(v % 7, v * 2654435761u);
    ASSERT_EQ(r.state, TravelMemo::State::kResolved) << v;
    EXPECT_EQ(r.reach, v % 3 == 0) << v;
  }
  EXPECT_EQ(memo.size(), 5000u);  // hits insert nothing
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
  p.entries.Add(5, {1, 2});
  p.entries.Add(9, {});

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

// The frontier's wire form as the nested encoder wrote it before frames
// became flat: count, then per entry vid, parent count and parents.
using NestedEntries = std::vector<std::pair<graph::VertexId, std::vector<graph::VertexId>>>;
std::string EncodeNested(const NestedEntries& entries) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& [vid, parents] : entries) {
    PutVarint64(&out, vid);
    PutVarint32(&out, static_cast<uint32_t>(parents.size()));
    for (auto p : parents) PutVarint64(&out, p);
  }
  return out;
}

// Random frames — attribution entries (one or more parents), direct ones
// (none) and kPaths chains (a prefix of up to 8 vertices) — encode to the
// nested encoder's bytes, and decode→encode is the identity.
TEST(PayloadTest, FlatFrontierMatchesNestedEncoding) {
  std::mt19937_64 rng(20231);
  auto vid = [&]() -> graph::VertexId {
    switch (rng() % 3) {
      case 0: return rng() % 128;
      case 1: return rng() % 100000;
      default: return rng();
    }
  };
  for (int round = 0; round < 500; round++) {
    NestedEntries nested(rng() % 40);
    const int shape = round % 3;  // 0 attribution, 1 direct, 2 kPaths chains
    for (auto& [v, parents] : nested) {
      v = vid();
      const size_t np = shape == 1 ? 0 : shape == 0 ? 1 + rng() % 4 : rng() % 9;
      for (size_t j = 0; j < np; j++) parents.push_back(vid());
    }
    Frontier flat;
    for (const auto& [v, parents] : nested) flat.Add(v, parents.begin(), parents.end());
    std::string encoded;
    EncodeEntries(&encoded, flat);
    ASSERT_EQ(encoded, EncodeNested(nested)) << "round " << round;

    CheckedReader dec(encoded);
    Frontier decoded;
    ASSERT_TRUE(DecodeEntries(&dec, &decoded));
    EXPECT_TRUE(dec.empty());
    EXPECT_EQ(decoded, flat);
    std::string reencoded;
    EncodeEntries(&reencoded, decoded);
    EXPECT_EQ(reencoded, encoded);
    for (size_t i = 0; i < decoded.size(); i++) {
      EXPECT_EQ(decoded.vids[i], nested[i].first);
      EXPECT_EQ(std::vector<graph::VertexId>(decoded.parents.begin() + decoded.begin(i),
                                             decoded.parents.begin() + decoded.end(i)),
                nested[i].second);
    }
    // Built entry by entry (the senders' Add/AddParent form): same frame.
    Frontier built;
    for (const auto& [v, parents] : nested) {
      built.Add(v);
      for (auto p : parents) built.AddParent(p);
    }
    EXPECT_EQ(built, flat);
  }
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
