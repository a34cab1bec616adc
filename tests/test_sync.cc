// Tests for the annotated synchronization primitives in src/common/sync.h
// (Mutex, SharedMutex, CondVar, CountDownLatch, Notification,
// BlockingCounter), concurrent travel-memo access under the engine-lock
// discipline, and the InProcTransport Send/Unregister race regression.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/engine/travel_cache.h"
#include "src/rpc/inproc_transport.h"

namespace gt {
namespace {

using namespace std::chrono_literals;

// --- Mutex / MutexLock -------------------------------------------------------

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int64_t counter = 0;  // deliberately non-atomic: the lock is the only guard
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; i++) {
        MutexLock lk(&mu);
        counter++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] { EXPECT_FALSE(mu.TryLock()); });
  other.join();
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SharedMutexTest, ManyReadersOneWriter) {
  SharedMutex mu;
  int value = 0;
  std::atomic<int> readers_in{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; i++) {
        ReaderMutexLock lk(&mu);
        readers_in.fetch_add(1);
        EXPECT_GE(value, 0);
        readers_in.fetch_sub(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 2000; i++) {
      WriterMutexLock lk(&mu);
      EXPECT_EQ(readers_in.load(), 0);  // writers exclude all readers
      value++;
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(value, 2000);
}

TEST(SharedMutexTest, ReadersOverlapDeterministically) {
  // Two readers both inside the shared section at once: reader A enters and
  // blocks until reader B has also entered. Only shared (non-exclusive)
  // acquisition can make this handshake complete.
  SharedMutex mu;
  Notification a_in, b_in;

  std::thread a([&] {
    ReaderMutexLock lk(&mu);
    a_in.Notify();
    ASSERT_TRUE(b_in.WaitFor(5s));  // would deadlock if readers excluded
  });
  std::thread b([&] {
    a_in.Wait();
    ReaderMutexLock lk(&mu);
    b_in.Notify();
  });
  a.join();
  b.join();
}

// --- CondVar -----------------------------------------------------------------

TEST(CondVarTest, WaitWakesOnSignal) {
  Mutex mu;
  CondVar cv(&mu);
  bool ready = false;

  std::thread waker([&] {
    std::this_thread::sleep_for(10ms);
    {
      MutexLock lk(&mu);
      ready = true;
    }
    cv.Signal();
  });

  {
    MutexLock lk(&mu);
    while (!ready) cv.Wait();
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu;
  CondVar cv(&mu);
  MutexLock lk(&mu);
  EXPECT_FALSE(cv.WaitFor(5ms));  // nobody signals
}

TEST(CondVarTest, WaitUntilDeadlineLoop) {
  Mutex mu;
  CondVar cv(&mu);
  bool ready = false;
  const auto deadline = std::chrono::steady_clock::now() + 20ms;
  MutexLock lk(&mu);
  while (!ready) {
    if (!cv.WaitUntil(deadline)) break;
  }
  EXPECT_FALSE(ready);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

// --- CountDownLatch ----------------------------------------------------------

TEST(CountDownLatchTest, ReleasesWhenCountReachesZero) {
  CountDownLatch latch(3);
  EXPECT_FALSE(latch.WaitFor(1ms));

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; i++) {
    threads.emplace_back([&] { latch.CountDown(); });
  }
  latch.Wait();  // must not hang
  for (auto& t : threads) t.join();
  EXPECT_TRUE(latch.WaitFor(0ms));  // stays released
}

TEST(CountDownLatchTest, BulkCountDown) {
  CountDownLatch latch(5);
  latch.CountDown(5);
  EXPECT_TRUE(latch.WaitFor(0ms));
}

// --- Notification ------------------------------------------------------------

TEST(NotificationTest, NotifyReleasesWaiters) {
  Notification n;
  EXPECT_FALSE(n.HasBeenNotified());
  EXPECT_FALSE(n.WaitFor(1ms));

  std::thread waiter([&] {
    n.Wait();
    EXPECT_TRUE(n.HasBeenNotified());
  });
  n.Notify();
  waiter.join();
  EXPECT_TRUE(n.WaitFor(0ms));
}

// --- BlockingCounter ---------------------------------------------------------

TEST(BlockingCounterTest, WaitsForAllOutstanding) {
  BlockingCounter bc;
  std::atomic<int> done{0};
  constexpr int kItems = 16;
  bc.Add(kItems);

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&] {
      for (int j = 0; j < kItems / 4; j++) {
        done.fetch_add(1);
        bc.Done();
      }
    });
  }
  bc.Wait();
  EXPECT_EQ(done.load(), kItems);
  for (auto& t : threads) t.join();
}

// --- travel memo under the engine-lock discipline -----------------------------

// TravelMemo is deliberately not internally synchronized: the BackendServer
// serializes every access under its engine mutex. Hammer one travel's memo
// from several threads under one gt::Mutex the way the engine does, and
// check the owner/waiter protocol accounting stays exact.
TEST(TravelCacheConcurrencyTest, OwnerWaiterProtocolUnderSharedLock) {
  Mutex mu;
  engine::TravelMemo memo;
  int64_t owners = 0;
  int64_t waiters_fired = 0;
  constexpr int kThreads = 4;
  constexpr int kVertices = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (uint32_t vid = 0; vid < kVertices; vid++) {
        MutexLock lk(&mu);
        auto r = memo.LookupOrInsertPending(/*step=*/0, vid);
        if (r.state == engine::TravelMemo::State::kMiss) {
          // We are the owner: resolve immediately and take the waiters,
          // exactly like a worker that finished the vertex I/O.
          owners++;
          memo.Resolve(0, vid, /*reach=*/true, [&](const engine::TravelMemo::Waiter& w) {
            EXPECT_EQ(w.vid, vid);
            waiters_fired++;
          });
        } else if (r.state == engine::TravelMemo::State::kPending) {
          memo.AddWaiter(0, vid, /*exec=*/1);
        } else {
          EXPECT_TRUE(r.reach);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every vertex got exactly one owner, and every registered waiter fired.
  EXPECT_EQ(owners, kVertices);
  MutexLock lk(&mu);
  EXPECT_EQ(memo.size(), static_cast<size_t>(kVertices));
  EXPECT_EQ(waiters_fired, 0);  // owners resolve under the same lock hold
}

// --- InProcTransport Send/Unregister race regression -------------------------

// Regression for a use-after-free: Send() used to resolve a raw Endpoint*
// under the transport lock, drop the lock, then enqueue into the endpoint —
// racing UnregisterEndpoint() destroying that Endpoint. The fix pins the
// endpoint via shared_ptr. Without it this test crashes/races under TSan.
TEST(InProcTransportRaceTest, SendDuringUnregisterStress) {
  rpc::InProcTransport transport;
  constexpr rpc::EndpointId kDst = 7;
  constexpr rpc::EndpointId kSrc = 1;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> delivered{0};

  ASSERT_TRUE(transport.RegisterEndpoint(kSrc, [](rpc::Message&&) {}).ok());

  std::vector<std::thread> senders;
  for (int t = 0; t < 3; t++) {
    senders.emplace_back([&] {
      while (!stop.load()) {
        rpc::Message m;
        m.type = rpc::MsgType::kPing;
        m.src = kSrc;
        m.dst = kDst;
        m.payload = "x";
        transport.Send(std::move(m)).ok();  // NotFound while unregistered: fine
      }
    });
  }

  // Churn the destination endpoint: register, let traffic flow, unregister.
  for (int round = 0; round < 50; round++) {
    ASSERT_TRUE(transport
                    .RegisterEndpoint(kDst, [&](rpc::Message&&) { delivered.fetch_add(1); })
                    .ok());
    std::this_thread::sleep_for(1ms);
    transport.UnregisterEndpoint(kDst);
  }

  stop.store(true);
  for (auto& t : senders) t.join();
  transport.Shutdown();
  EXPECT_GT(delivered.load(), 0u);
}

}  // namespace
}  // namespace gt
