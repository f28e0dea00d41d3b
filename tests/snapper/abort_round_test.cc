// An abort round must not wait for a message that may be lost. An ACT
// writes participant P, then aborts at its root while the link drops every
// droppable message, so P never hears ActAbort. P is not prepared, so no
// watchdog resolves the ACT there, and P keeps its lock and its write. The
// next global abort round, requested directly or started by a kill, must
// still quiesce P and roll the write back.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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

}  // namespace
}  // namespace snapper
