// Fig. 9's PACT-ACT deadlock, end to end. An ACT rooted at A holds A's write
// lock while a PACT over {A, B} rooted at B is batched: behind the ACT on A,
// ahead of it on B. When the ACT moves on to B, each waits for the other:
// the ACT for the batch to complete on B (rule 1 of §4.4.1), the batch for
// the ACT to finish on A (rule 2). The deadlock rule (SharedTxnInfo) must
// abort the ACT as the cycle forms, not at act_wait_timeout, which is set to
// 60 s here; ctest's TIMEOUT (30 s) fails a build that waits for it.
#include <gtest/gtest.h>

#include <chrono>

#include "snapper/snapper_runtime.h"

namespace snapper {
namespace {

/// Rendezvous points between the test thread and the actor methods.
struct Fig9Gates {
  Promise<Unit> act_holds_a;  ///< the ACT holds A's write lock
  Promise<Unit> release_act;  ///< opened by the test: the ACT calls B
  Promise<Unit> pact_on_b;    ///< the PACT ran on B; its call to A is next
};

/// An integer account: 100 to start.
class CounterActor : public TransactionalActor {
 public:
  explicit CounterActor(Fig9Gates* gates) : gates_(gates) {
    RegisterMethod("Add", [this](TxnContext& ctx, Value in) {
      return Add(ctx, std::move(in));
    });
    RegisterMethod("HoldThenPay", [this](TxnContext& ctx, Value in) {
      return HoldThenPay(ctx, std::move(in));
    });
    RegisterMethod("PayAcross", [this](TxnContext& ctx, Value in) {
      return PayAcross(ctx, std::move(in));
    });
    RegisterMethod("Read", [this](TxnContext& ctx, Value in) {
      return Read(ctx, std::move(in));
    });
  }

  Value InitialState() const override { return Value(int64_t{100}); }

 private:
  Task<Value> Add(TxnContext& ctx, Value amount) {
    Value* state = co_await GetState(ctx, AccessMode::kReadWrite);
    *state = Value(state->AsInt() + amount.AsInt());
    co_return Value();
  }

  // The ACT: pays 10 from this actor to `target`, parking in between.
  Task<Value> HoldThenPay(TxnContext& ctx, Value target) {
    Value* state = co_await GetState(ctx, AccessMode::kReadWrite);
    *state = Value(state->AsInt() - 10);
    gates_->act_holds_a.Set(Unit{});
    Future<Unit> released = gates_->release_act.GetFuture();
    co_await released;
    FuncCall pay{"Add", Value(int64_t{10})};
    co_await CallActor(ctx, ActorId{id().type, static_cast<uint64_t>(
                                                   target.AsInt())},
                       std::move(pay));
    co_return Value();
  }

  // The PACT: pays 5 from this actor to `target`.
  Task<Value> PayAcross(TxnContext& ctx, Value target) {
    Value* state = co_await GetState(ctx, AccessMode::kReadWrite);
    *state = Value(state->AsInt() - 5);
    gates_->pact_on_b.Set(Unit{});
    FuncCall pay{"Add", Value(int64_t{5})};
    co_await CallActor(ctx, ActorId{id().type, static_cast<uint64_t>(
                                                   target.AsInt())},
                       std::move(pay));
    co_return Value();
  }

  Task<Value> Read(TxnContext& ctx, Value) {
    Value* state = co_await GetState(ctx, AccessMode::kRead);
    co_return *state;
  }

  Fig9Gates* gates_;
};

TEST(HybridDeadlockTest, Fig9DeadlockAbortsTheActAsItForms) {
  Fig9Gates gates;
  SnapperConfig config;
  config.act_wait_timeout = std::chrono::seconds(60);
  SnapperRuntime runtime(config);
  const uint32_t type = runtime.RegisterActorType("Counter", [&gates](uint64_t) {
    return std::make_shared<CounterActor>(&gates);
  });
  runtime.Start();
  const ActorId a{type, 0};
  const ActorId b{type, 1};

  Future<TxnResult> act =
      runtime.SubmitAct(a, "HoldThenPay", Value(int64_t{1}));
  gates.act_holds_a.GetFuture().Get();
  Future<TxnResult> pact =
      runtime.SubmitPact(b, "PayAcross", Value(int64_t{0}), {{a, 1}, {b, 1}});
  gates.pact_on_b.GetFuture().Get();

  const auto opened = std::chrono::steady_clock::now();
  gates.release_act.Set(Unit{});
  const TxnResult act_result = act.Get();
  const auto elapsed = std::chrono::steady_clock::now() - opened;
  ASSERT_TRUE(act_result.status.IsTxnAborted())
      << act_result.status.ToString();
  EXPECT_EQ(act_result.status.abort_reason(), AbortReason::kPactActDeadlock)
      << act_result.status.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));

  const TxnResult pact_result = pact.Get();
  EXPECT_TRUE(pact_result.ok()) << pact_result.status.ToString();
  const MessageCounters& counters = runtime.context().counters;
  EXPECT_EQ(counters.act_deadlocks_detected.load(), 1u);
  EXPECT_EQ(counters.act_wait_timeouts.load(), 0u);

  // The ACT rolled back; the PACT moved 5 from B to A.
  const TxnResult a_state = runtime.RunPact(a, "Read", Value(), {{a, 1}});
  const TxnResult b_state = runtime.RunPact(b, "Read", Value(), {{b, 1}});
  ASSERT_TRUE(a_state.ok() && b_state.ok());
  EXPECT_EQ(a_state.value.AsInt(), 105);
  EXPECT_EQ(b_state.value.AsInt(), 95);
}

}  // namespace
}  // namespace snapper
