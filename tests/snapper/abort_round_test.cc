// An ACT writes participant P, then aborts at its root while the link drops
// every droppable message, so P never hears ActAbort. P is not prepared.
// With the resolution watchdog off, P keeps its lock and its write until the
// next global abort round, requested directly or started by a kill, which
// must not wait for the lost message: it must still quiesce P and roll the
// write back. With the watchdog on, P ends the ACT itself, with no round.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "snapper/snapper_runtime.h"
#include "tests/common/watchdog.h"
#include "wal/env.h"

namespace snapper {
namespace {

/// An integer account: 100 to start.
class PayActor : public TransactionalActor {
 public:
  PayActor() {
    RegisterMethod("Add", [this](TxnContext& ctx, Value in) {
      return Add(ctx, std::move(in));
    });
    RegisterMethod("PayThenAbort", [this](TxnContext& ctx, Value in) {
      return PayThenAbort(ctx, std::move(in));
    });
  }

  Value InitialState() const override { return Value(int64_t{100}); }

 private:
  Task<Value> Add(TxnContext& ctx, Value amount) {
    Value* state = co_await GetState(ctx, AccessMode::kReadWrite);
    *state = Value(state->AsInt() + amount.AsInt());
    co_return Value();
  }

  // Pays 10 to `target`, then aborts at the root.
  Task<Value> PayThenAbort(TxnContext& ctx, Value target) {
    Value* state = co_await GetState(ctx, AccessMode::kReadWrite);
    *state = Value(state->AsInt() - 10);
    FuncCall pay{"Add", Value(int64_t{10})};
    co_await CallActor(
        ctx, ActorId{id().type, static_cast<uint64_t>(target.AsInt())},
        std::move(pay));
    throw TxnAbort(Status::TxnAborted(AbortReason::kUserAbort, "test"));
  }
};

/// `id`'s live and committed balances, read on its strand.
std::pair<int64_t, int64_t> Balances(SnapperRuntime& rt, const ActorId& id) {
  return rt.runtime()
      .Call<TransactionalActor>(
          id,
          [](TransactionalActor& a) -> Task<std::pair<int64_t, int64_t>> {
            co_return std::make_pair(a.state_for_test().AsInt(),
                                     a.committed_state_for_test().AsInt());
          })
      .Get();
}

/// The param says how the round starts: by a kill of the root (true) or by
/// RequestAbortAll (false).
class AbortRoundTest : public ::testing::TestWithParam<bool> {};

TEST_P(AbortRoundTest, UnpreparedActWhoseAbortWasLostDoesNotStallTheRound) {
  auto env = std::make_unique<MemEnv>();
  auto rt = std::make_unique<SnapperRuntime>(SnapperConfig{}, env.get());
  const uint32_t type = rt->RegisterActorType(
      "Pay", [](uint64_t) { return std::make_shared<PayActor>(); });
  rt->Start();
  const ActorId root{type, 0};
  const ActorId p{type, 1};

  // The ACT's call to P is reliable; only its ActAbort fan-out is droppable.
  rt->runtime().msg_faults().SetLinkDown(true);
  const TxnResult result =
      rt->SubmitAct(root, "PayThenAbort", Value(int64_t{1})).Get();
  rt->runtime().msg_faults().SetLinkDown(false);
  ASSERT_TRUE(result.status.IsTxnAborted()) << result.status.ToString();
  EXPECT_EQ(result.status.abort_reason(), AbortReason::kUserAbort);
  EXPECT_EQ(rt->runtime().msg_faults().dropped(), 1u);
  // P still holds the dead ACT's write.
  EXPECT_EQ(Balances(*rt, p), std::make_pair(int64_t{110}, int64_t{100}));

  const Future<Unit> round =
      GetParam() ? rt->KillActor(root)
                 : rt->context().abort_controller->RequestAbortAll(
                       Status::TxnAborted(AbortReason::kUserAbort, "test"));
  if (!testing::WaitResolved(round, 10.0)) {
    // The runtime's destructor would wait on the stuck round too.
    (void)rt.release();
    (void)env.release();
    FAIL() << "the abort round did not quiesce P within 10 s";
  }
  EXPECT_EQ(Balances(*rt, p), std::make_pair(int64_t{100}, int64_t{100}));
  EXPECT_EQ(Balances(*rt, root), std::make_pair(int64_t{100}, int64_t{100}));
}

INSTANTIATE_TEST_SUITE_P(StartedBy, AbortRoundTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Kill" : "AbortAll";
                         });

TEST(UnpreparedActWatchdogTest, LostActAbortIsResolvedWithoutAnAbortRound) {
  auto env = std::make_unique<MemEnv>();
  SnapperConfig config;
  config.act_resolution_deadline = std::chrono::milliseconds(20);
  auto rt = std::make_unique<SnapperRuntime>(config, env.get());
  const uint32_t type = rt->RegisterActorType(
      "Pay", [](uint64_t) { return std::make_shared<PayActor>(); });
  rt->Start();
  const ActorId root{type, 0};
  const ActorId p{type, 1};
  const uint64_t epoch = rt->context().abort_controller->epoch();

  rt->runtime().msg_faults().SetLinkDown(true);
  const TxnResult result =
      rt->SubmitAct(root, "PayThenAbort", Value(int64_t{1})).Get();
  rt->runtime().msg_faults().SetLinkDown(false);
  ASSERT_TRUE(result.status.IsTxnAborted()) << result.status.ToString();
  EXPECT_EQ(rt->runtime().msg_faults().dropped(), 1u);

  // P's watchdog reads the root's recorded abort and rolls P back.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Balances(*rt, p) != std::make_pair(int64_t{100}, int64_t{100})) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "P still holds the dead ACT's write";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rt->context().counters.watchdog_act_resolutions.load(), 1u);
  EXPECT_EQ(rt->context().abort_controller->epoch(), epoch);

  // P's lock is free again: the next ACT on P commits.
  const TxnResult next = rt->SubmitAct(p, "Add", Value(int64_t{5})).Get();
  EXPECT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_EQ(Balances(*rt, p), std::make_pair(int64_t{105}, int64_t{105}));
  EXPECT_EQ(Balances(*rt, root), std::make_pair(int64_t{100}, int64_t{100}));
}

}  // namespace
}  // namespace snapper
