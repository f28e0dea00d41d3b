#include "async/future.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "async/executor.h"
#include "async/task.h"

namespace snapper {
namespace {

TEST(FutureTest, SetThenGet) {
  Promise<int> p;
  auto f = p.GetFuture();
  EXPECT_FALSE(f.ready());
  p.Set(42);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.Get(), 42);
  EXPECT_EQ(f.Peek(), 42);
}

TEST(FutureTest, GetBlocksUntilSet) {
  Promise<int> p;
  auto f = p.GetFuture();
  std::thread setter([&p] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    p.Set(7);
  });
  EXPECT_EQ(f.Get(), 7);
  setter.join();
}

TEST(FutureTest, ExceptionPropagates) {
  Promise<int> p;
  auto f = p.GetFuture();
  p.SetException(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(f.ready());
  EXPECT_THROW(f.Get(), std::runtime_error);
}

TEST(FutureTest, VoidFuture) {
  Promise<void> p;
  auto f = p.GetFuture();
  p.Set(Unit{});
  EXPECT_TRUE(f.ready());
  f.Get();
}

TEST(FutureTest, OnReadyAfterResolutionFiresInline) {
  Promise<int> p;
  p.Set(1);
  bool fired = false;
  p.GetFuture().OnReady([&fired] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(FutureTest, OnReadyBeforeResolutionFiresOnSet) {
  Promise<int> p;
  auto f = p.GetFuture();
  std::atomic<bool> fired{false};
  f.OnReady([&fired] { fired.store(true); });
  EXPECT_FALSE(fired.load());
  p.Set(5);
  EXPECT_TRUE(fired.load());
}

TEST(FutureTest, MultipleContinuationsAllFire) {
  Promise<int> p;
  auto f = p.GetFuture();
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    f.OnReady([&count] { count.fetch_add(1); });
  }
  p.Set(1);
  EXPECT_EQ(count.load(), 10);
}

// Appends `i` to `log` once `f` resolves; `log` is only touched on the
// strand the coroutine runs on.
Task<void> AppendWhenReady(Future<int> f, std::vector<int>* log, int i) {
  co_await f;
  log->push_back(i);
}

// Waits until every turn queued on `strand` so far has run.
void DrainStrand(Strand& strand) {
  Promise<void> done;
  strand.Post([done] { done.Set(Unit{}); });
  done.GetFuture().Get();
}

TEST(FutureTest, CallbacksAndAwaitersRunInRegistrationOrder) {
  Executor ex(1);
  auto strand = std::make_shared<Strand>(&ex);
  Promise<int> p;
  Future<int> f = p.GetFuture();
  std::vector<int> log;
  // Both kinds land in `log` through `strand`, in the order the
  // continuations ran: a callback posts its append, a resume record posts
  // the coroutine's resume.
  auto add_callback = [&](int i) {
    f.OnReady([&log, &strand, i] {
      strand->Post([&log, i] { log.push_back(i); });
    });
  };
  auto add_awaiter = [&](int i) {
    AppendWhenReady(f, &log, i).Start(*strand);
    DrainStrand(*strand);  // the coroutine has reached its co_await
  };
  add_awaiter(0);
  add_callback(1);
  add_callback(2);
  add_awaiter(3);
  add_callback(4);
  add_awaiter(5);
  p.Set(7);
  DrainStrand(*strand);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  ex.Stop();
}

TEST(FutureTest, WaitersRaceTrySetFromWorkers) {
  constexpr int kFutures = 3000;
  constexpr int kWaiters = 3;
  Executor ex(2);
  std::vector<Future<int>> futures;
  std::vector<Promise<int>> promises(kFutures);
  for (auto& p : promises) futures.push_back(p.GetFuture());
  std::atomic<bool> go{false};
  std::vector<std::thread> waiters;
  std::vector<std::vector<int>> seen(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      while (!go.load()) std::this_thread::yield();
      for (const auto& f : futures) seen[w].push_back(f.Get());
    });
  }
  go.store(true);
  // Two workers race to resolve each future with different values; the
  // waiters block on whichever futures are not resolved yet.
  for (int i = 0; i < kFutures; ++i) {
    ex.Post([p = promises[i], i] { p.TrySet(2 * i); });
    ex.Post([p = promises[i], i] { p.TrySet(2 * i + 1); });
  }
  promises.clear();
  for (auto& t : waiters) t.join();
  ex.Stop();
  for (int i = 0; i < kFutures; ++i) {
    const int v = seen[0][i];
    EXPECT_TRUE(v == 2 * i || v == 2 * i + 1) << "future " << i;
    for (int w = 1; w < kWaiters; ++w) EXPECT_EQ(seen[w][i], v);
  }
}

TEST(FutureTest, TrySetFirstWins) {
  Promise<int> p;
  EXPECT_TRUE(p.TrySet(1));
  EXPECT_FALSE(p.TrySet(2));
  EXPECT_FALSE(p.TrySetException(
      std::make_exception_ptr(std::runtime_error("late"))));
  EXPECT_EQ(p.GetFuture().Get(), 1);
}

TEST(FutureTest, TrySetExceptionFirstWins) {
  Promise<int> p;
  EXPECT_TRUE(p.TrySetException(
      std::make_exception_ptr(std::runtime_error("first"))));
  EXPECT_FALSE(p.TrySet(2));
  EXPECT_THROW(p.GetFuture().Get(), std::runtime_error);
}

TEST(FutureTest, CopiesObserveSameState) {
  Promise<std::string> p;
  Future<std::string> f1 = p.GetFuture();
  Future<std::string> f2 = f1;
  p.Set("shared");
  EXPECT_EQ(f1.Get(), "shared");
  EXPECT_EQ(f2.Get(), "shared");
}

TEST(FutureTest, ConcurrentSettersExactlyOneWins) {
  for (int round = 0; round < 50; ++round) {
    Promise<int> p;
    std::atomic<int> wins{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&p, &wins, t] {
        if (p.TrySet(t)) wins.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_TRUE(p.GetFuture().ready());
  }
}

TEST(WhenAllTest, EmptyResolvesImmediately) {
  std::vector<Future<int>> futures;
  auto all = WhenAll(futures);
  EXPECT_TRUE(all.ready());
}

TEST(WhenAllTest, ResolvesAfterLast) {
  std::vector<Promise<int>> promises(3);
  std::vector<Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.GetFuture());
  auto all = WhenAll(futures);
  promises[0].Set(1);
  EXPECT_FALSE(all.ready());
  promises[2].Set(3);
  EXPECT_FALSE(all.ready());
  promises[1].Set(2);
  EXPECT_TRUE(all.ready());
}

TEST(WhenAllTest, ToleratesExceptions) {
  std::vector<Promise<int>> promises(2);
  std::vector<Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.GetFuture());
  auto all = WhenAll(futures);
  promises[0].SetException(std::make_exception_ptr(std::runtime_error("x")));
  promises[1].Set(2);
  EXPECT_TRUE(all.ready());
}

}  // namespace
}  // namespace snapper
