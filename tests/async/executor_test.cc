#include "async/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

namespace snapper {
namespace {

/// Polls `done` until it holds or `seconds` pass; returns whether it held.
bool WaitUntil(const std::function<bool()>& done, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

TEST(ExecutorTest, RunsPostedTasks) {
  Executor ex(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ex.Post([&count] { count.fetch_add(1); });
  }
  ex.Stop();
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecutorTest, StopDrainsQueuedTasks) {
  Executor ex(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    ex.Post([&count] { count.fetch_add(1); });
  }
  ex.Stop();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ExecutorTest, PostAfterStopIsDropped) {
  Executor ex(1);
  ex.Stop();
  std::atomic<bool> ran{false};
  ex.Post([&ran] { ran.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
}

TEST(ExecutorTest, InExecutorReflectsWorkerThread) {
  Executor ex(1);
  std::atomic<bool> inside{false};
  std::atomic<bool> done{false};
  ex.Post([&] {
    inside.store(ex.InExecutor());
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ex.InExecutor());
  ex.Stop();
}

TEST(ExecutorTest, MultipleWorkersRunInParallel) {
  Executor ex(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    ex.Post([&] {
      int now = concurrent.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 8) std::this_thread::yield();
  ex.Stop();
  // On a 1-core host the OS still timeslices blocked threads, so >= 2.
  EXPECT_GE(peak.load(), 2);
}

TEST(StrandTest, TasksRunInFifoOrder) {
  Executor ex(4);
  auto strand = std::make_shared<Strand>(&ex);
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    strand->Post([&order, &done, i] {
      order.push_back(i);  // safe: strand serializes
      done.fetch_add(1);
    });
  }
  while (done.load() < 500) std::this_thread::yield();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
  ex.Stop();
}

TEST(StrandTest, NeverRunsConcurrently) {
  Executor ex(4);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<int> in_task{0};
  std::atomic<bool> overlap{false};
  std::atomic<int> done{0};
  for (int i = 0; i < 2000; ++i) {
    strand->Post([&] {
      if (in_task.fetch_add(1) != 0) overlap.store(true);
      in_task.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 2000) std::this_thread::yield();
  EXPECT_FALSE(overlap.load());
  ex.Stop();
}

TEST(StrandTest, TwoStrandsShareExecutor) {
  Executor ex(2);
  auto s1 = std::make_shared<Strand>(&ex);
  auto s2 = std::make_shared<Strand>(&ex);
  std::atomic<int> c1{0}, c2{0};
  for (int i = 0; i < 100; ++i) {
    s1->Post([&c1] { c1.fetch_add(1); });
    s2->Post([&c2] { c2.fetch_add(1); });
  }
  while (c1.load() < 100 || c2.load() < 100) std::this_thread::yield();
  EXPECT_EQ(c1.load(), 100);
  EXPECT_EQ(c2.load(), 100);
  ex.Stop();
}

TEST(StrandTest, CurrentIsSetDuringExecution) {
  Executor ex(1);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<bool> done{false};
  Strand* observed = nullptr;
  strand->Post([&] {
    observed = Strand::Current();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(observed, strand.get());
  EXPECT_EQ(Strand::Current(), nullptr);
  ex.Stop();
}

TEST(StrandTest, PostFromWithinStrand) {
  Executor ex(2);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<int> count{0};
  std::atomic<bool> done{false};
  strand->Post([&, strand] {
    count.fetch_add(1);
    strand->Post([&] {
      count.fetch_add(1);
      done.store(true);
    });
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(count.load(), 2);
  ex.Stop();
}

// Drain-budget fairness: a strand with a long queue must not starve another
// strand on a single-worker executor.
TEST(StrandTest, LongQueueYieldsWorker) {
  Executor ex(1);
  auto busy = std::make_shared<Strand>(&ex);
  auto other = std::make_shared<Strand>(&ex);
  std::atomic<int> busy_done{0};
  std::atomic<int> other_position{-1};
  // Hold the single worker hostage until both strands have queued work, so
  // the interleaving below is deterministic.
  std::atomic<bool> release{false};
  ex.Post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 1000; ++i) {
    busy->Post([&busy_done] { busy_done.fetch_add(1); });
  }
  other->Post([&] { other_position.store(busy_done.load()); });
  release.store(true);
  while (busy_done.load() < 1000 || other_position.load() < 0) {
    std::this_thread::yield();
  }
  // The other strand's task ran before the busy strand finished all 1000:
  // the busy strand must yield the worker after each drain budget.
  EXPECT_LT(other_position.load(), 1000);
  ex.Stop();
}

// ---------------------------------------------------------------------------
// Scheduler stress: run-queue, injection-queue and park/wake protocols.
// scripts/check.sh reruns this suite under ThreadSanitizer with
// --gtest_repeat, since a race in lock-free code shows only rarely per run.
// ---------------------------------------------------------------------------

// Bursts from outside threads and from the workers themselves, with pauses
// between rounds long enough for every worker to park. A lost wake-up leaves
// a job queued while all workers sleep, and the round never completes.
TEST(SchedulerTest, NoLostWakeupAcrossParkingRounds) {
  Executor ex(3);
  constexpr int kRounds = 300;
  constexpr int kOutsideThreads = 2;
  constexpr int kPerThread = 8;
  constexpr int kFanOut = 3;  // jobs each outside job posts from its worker
  std::atomic<int> ran{0};
  int expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> posters;
    for (int t = 0; t < kOutsideThreads; ++t) {
      posters.emplace_back([&ex, &ran] {
        for (int i = 0; i < kPerThread; ++i) {
          ex.Post([&ex, &ran] {
            for (int k = 0; k < kFanOut; ++k) {
              ex.Post([&ran] { ran.fetch_add(1); });
            }
            ran.fetch_add(1);
          });
        }
      });
    }
    for (auto& t : posters) t.join();
    expected += kOutsideThreads * kPerThread * (1 + kFanOut);
    ASSERT_TRUE(WaitUntil([&] { return ran.load() == expected; }))
        << "round " << round << ": " << ran.load() << " of " << expected
        << " jobs ran";
    // Vary the pause so that posts meet workers mid-park as well as parked.
    std::this_thread::sleep_for(std::chrono::microseconds((round % 4) * 100));
  }
  ex.Stop();
  EXPECT_EQ(ran.load(), expected);
}

// A drain queued on a worker's own run queue must not wait for that worker:
// while it is stuck in a long job, another worker steals the drain.
TEST(SchedulerTest, BlockedWorkerDoesNotStrandItsQueue) {
  Executor ex(2);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<int> turns{0};
  std::atomic<bool> stolen{false};
  std::atomic<bool> blocked_done{false};
  ex.Post([&] {
    // Queued on this worker's run queue, since this is a worker thread.
    for (int i = 0; i < 3; ++i) {
      strand->Post([&turns] { turns.fetch_add(1); });
    }
    stolen.store(WaitUntil([&] { return turns.load() == 3; }));
    blocked_done.store(true);
  });
  ASSERT_TRUE(WaitUntil([&] { return blocked_done.load(); }, 20.0));
  EXPECT_TRUE(stolen.load())
      << "the queued drain waited for the blocked worker";
  ex.Stop();
  EXPECT_EQ(turns.load(), 3);
}

// Turns posted to one strand keep each producer's order, whether the
// producer is a worker (run-queue path) or an outside thread (injection).
TEST(SchedulerTest, PerProducerFifoOnOneStrand) {
  Executor ex(3);
  auto strand = std::make_shared<Strand>(&ex);
  constexpr int kWorkerProducers = 3;
  constexpr int kOutsideProducers = 2;
  constexpr int kProducers = kWorkerProducers + kOutsideProducers;
  constexpr int kPerProducer = 2000;
  std::vector<int> next(kProducers, 0);  // strand-confined
  std::atomic<int> out_of_order{0};
  std::atomic<int> ran{0};
  auto produce = [&](int producer) {
    for (int seq = 0; seq < kPerProducer; ++seq) {
      strand->Post([&, producer, seq] {
        if (next[producer] != seq) out_of_order.fetch_add(1);
        next[producer] = seq + 1;
        ran.fetch_add(1);
      });
    }
  };
  for (int p = 0; p < kWorkerProducers; ++p) {
    ex.Post([&produce, p] { produce(p); });
  }
  std::vector<std::thread> outside;
  for (int p = kWorkerProducers; p < kProducers; ++p) {
    outside.emplace_back([&produce, p] { produce(p); });
  }
  for (auto& t : outside) t.join();
  ASSERT_TRUE(
      WaitUntil([&] { return ran.load() == kProducers * kPerProducer; }));
  ex.Stop();
  EXPECT_EQ(out_of_order.load(), 0);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

// QueueDepth counts turns posted and not yet taken by a drain; MaxQueueDepth
// is the largest depth right after any post.
TEST(SchedulerTest, QueueDepthIsExact) {
  Executor ex(1);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<bool> release{false};
  std::atomic<bool> holding{false};
  std::atomic<int> ran{0};
  // Holds the only worker so the posts below stay queued.
  auto hold_worker = [&] {
    release.store(false);
    holding.store(false);
    ex.Post([&] {
      holding.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    ASSERT_TRUE(WaitUntil([&] { return holding.load(); }));
  };
  EXPECT_EQ(strand->QueueDepth(), 0u);
  EXPECT_EQ(strand->MaxQueueDepth(), 0u);

  hold_worker();
  for (int i = 0; i < 5; ++i) strand->Post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(strand->QueueDepth(), 5u);
  EXPECT_EQ(strand->MaxQueueDepth(), 5u);
  release.store(true);
  ASSERT_TRUE(WaitUntil([&] { return ran.load() == 5; }));
  EXPECT_EQ(strand->QueueDepth(), 0u);
  EXPECT_EQ(strand->MaxQueueDepth(), 5u);

  // A running turn is no longer queued: while the 2nd of 4 turns blocks,
  // two remain.
  hold_worker();
  std::atomic<bool> in_second{false};
  std::atomic<bool> release_second{false};
  strand->Post([&ran] { ran.fetch_add(1); });
  strand->Post([&] {
    in_second.store(true);
    while (!release_second.load()) std::this_thread::yield();
    ran.fetch_add(1);
  });
  strand->Post([&ran] { ran.fetch_add(1); });
  strand->Post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(strand->QueueDepth(), 4u);
  EXPECT_EQ(strand->MaxQueueDepth(), 5u);
  release.store(true);
  ASSERT_TRUE(WaitUntil([&] { return in_second.load(); }));
  EXPECT_EQ(strand->QueueDepth(), 2u);
  // Posted from outside while a drain runs: depth 3, the max stays 5.
  strand->Post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(strand->QueueDepth(), 3u);
  EXPECT_EQ(strand->MaxQueueDepth(), 5u);
  release_second.store(true);
  ASSERT_TRUE(WaitUntil([&] { return ran.load() == 10; }));
  EXPECT_EQ(strand->QueueDepth(), 0u);

  hold_worker();
  for (int i = 0; i < 7; ++i) strand->Post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(strand->QueueDepth(), 7u);
  EXPECT_EQ(strand->MaxQueueDepth(), 7u);
  release.store(true);
  ASSERT_TRUE(WaitUntil([&] { return ran.load() == 17; }));
  EXPECT_EQ(strand->QueueDepth(), 0u);
  EXPECT_EQ(strand->MaxQueueDepth(), 7u);
  ex.Stop();
}

// Stop() runs what is already queued, on every worker's run queue and on
// the injection queue, and drops what is posted after it.
TEST(SchedulerTest, StopRunsEveryQueuedJob) {
  constexpr int kWorkers = 3;
  constexpr int kPerWorker = 200;  // queued from each held worker
  constexpr int kOutside = 300;    // queued on the injection queue
  Executor ex(kWorkers);
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  for (int w = 0; w < kWorkers; ++w) {
    ex.Post([&] {
      // A worker holds at most one of these, so each lands on its own
      // worker, and every job it posts goes to that worker's run queue.
      for (int i = 0; i < kPerWorker; ++i) {
        ex.Post([&ran] { ran.fetch_add(1); });
      }
      holding.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  ASSERT_TRUE(WaitUntil([&] { return holding.load() == kWorkers; }));
  for (int i = 0; i < kOutside; ++i) ex.Post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  std::thread stopper([&ex] { ex.Stop(); });
  // Let Stop() mark the executor stopping before the workers are let go.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  stopper.join();
  EXPECT_EQ(ran.load(), kWorkers * kPerWorker + kOutside);
  ex.Post([&ran] { ran.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), kWorkers * kPerWorker + kOutside);
}

}  // namespace
}  // namespace snapper
