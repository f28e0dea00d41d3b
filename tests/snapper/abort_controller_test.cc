// Regression tests for GlobalAbortController's round-start locking
// discipline. StartOrJoinRound once read the lazily-created round strand_
// outside mu_ while a racing first round could still be assigning it — a
// data race on the shared_ptr that only bit under real thread interleaving.
// The fix copies the shared_ptr out under the lock; these tests hammer the
// exact window (many threads racing the FIRST round's strand creation) so
// TSan (scripts/check.sh) re-catches any regression.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "snapper/snapper_context.h"
#include "tests/common/watchdog.h"

namespace snapper {
namespace {

struct ControllerFixture {
  ControllerFixture() {
    runtime = std::make_unique<ActorRuntime>(
        ActorRuntime::Options{.num_workers = 4});
    ctx.runtime = runtime.get();
    ctx.abort_controller = std::make_unique<GlobalAbortController>(&ctx);
  }
  std::unique_ptr<ActorRuntime> runtime;
  SnapperContext ctx;
};

TEST(GlobalAbortControllerTest, ConcurrentFirstRoundStart) {
  // The hazardous interleaving needs the strand to not exist yet, so every
  // iteration uses a fresh controller and races the creation.
  for (int round = 0; round < 20; ++round) {
    ControllerFixture f;
    constexpr int kThreads = 8;
    std::vector<Future<Unit>> futures(kThreads);
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i]() {
        ready.fetch_add(1);
        // Burst together into StartOrJoinRound; yield so the barrier does
        // not starve unrelated tests sharing the ctest machine.
        while (ready.load() < kThreads) std::this_thread::yield();
        futures[i] = f.ctx.abort_controller->RequestAbortAll(
            Status::TxnAborted(AbortReason::kSystemFailure, "stress"));
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(0u, testing::WaitAllResolved(futures, 30.0))
        << "an abort-round waiter was lost";
    EXPECT_FALSE(f.ctx.abort_controller->paused());
    EXPECT_GE(f.ctx.abort_controller->num_rounds(), 1u);
  }
}

TEST(GlobalAbortControllerTest, JoinersAllResolveAcrossManyRounds) {
  ControllerFixture f;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<Future<Unit>>> futures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      for (int k = 0; k < kPerThread; ++k) {
        futures[i].push_back(f.ctx.abort_controller->RequestAbortAll(
            Status::TxnAborted(AbortReason::kSystemFailure, "again")));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0u, testing::WaitAllResolved(futures[i], 30.0))
        << "thread " << i << " lost a round waiter";
  }
  EXPECT_FALSE(f.ctx.abort_controller->paused());
  // Coalescing may merge requests, but at least one round ran and the epoch
  // moved with every round.
  EXPECT_GE(f.ctx.abort_controller->num_rounds(), 1u);
  EXPECT_EQ(f.ctx.abort_controller->epoch(),
            f.ctx.abort_controller->num_rounds());
}

TEST(GlobalAbortControllerTest, DecidedBidFastPathResolvesImmediately) {
  ControllerFixture f;
  f.ctx.sequencer.RegisterEmitted(/*bid=*/7, /*prev_bid=*/kNoBid,
                                  /*coordinator=*/0);
  bool fired = false;
  f.ctx.sequencer.RequestCommit(7, [&fired](Status s) {
    fired = true;
    ASSERT_TRUE(s.ok());
  });
  ASSERT_TRUE(fired);
  f.ctx.sequencer.MarkCommitted(7);
  auto future =
      f.ctx.abort_controller->RequestAbort(7, Status::TxnAborted(
          AbortReason::kSystemFailure, "late"));
  ASSERT_TRUE(testing::WaitResolved(future, 30.0));
  // No round may run for an already-committed bid.
  EXPECT_EQ(0u, f.ctx.abort_controller->num_rounds());
}

}  // namespace
}  // namespace snapper
