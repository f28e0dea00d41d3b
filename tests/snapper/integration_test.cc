// End-to-end tests of Snapper over the SmallBank workload: PACT, ACT, NT and
// hybrid execution, user aborts with cascading rollback, message-cost
// accounting, determinism, and crash recovery.
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <thread>

#include "snapper/snapper_runtime.h"
#include "workloads/smallbank.h"

namespace snapper {
namespace {

using smallbank::SmallBankActor;

class SnapperIntegrationTest : public ::testing::Test {
 protected:
  void Init(SnapperConfig config = {}) {
    runtime_ = std::make_unique<SnapperRuntime>(config, &env_);
    type_ = smallbank::RegisterSmallBank(*runtime_);
    runtime_->Start();
  }

  void Reopen(SnapperConfig config = {}) {
    runtime_.reset();
    runtime_ = std::make_unique<SnapperRuntime>(config, &env_);
    type_ = smallbank::RegisterSmallBank(*runtime_);
    ASSERT_TRUE(runtime_->Recover().ok());
    runtime_->Start();
  }

  ActorId Acc(uint64_t k) const { return ActorId{type_, k}; }

  TxnResult Transfer(TxnMode mode, uint64_t from, std::vector<uint64_t> tos,
                     double amount) {
    Value input = SmallBankActor::MultiTransferInput(amount, tos);
    if (mode == TxnMode::kPact) {
      return runtime_->RunPact(
          Acc(from), "MultiTransfer", std::move(input),
          SmallBankActor::MultiTransferAccessInfo(type_, from, tos));
    }
    if (mode == TxnMode::kAct) {
      return runtime_->RunAct(Acc(from), "MultiTransfer", std::move(input));
    }
    return runtime_->RunNt(Acc(from), "MultiTransfer", std::move(input));
  }

  Future<TxnResult> TransferAsync(TxnMode mode, uint64_t from,
                                  std::vector<uint64_t> tos, double amount) {
    Value input = SmallBankActor::MultiTransferInput(amount, tos);
    if (mode == TxnMode::kPact) {
      return runtime_->SubmitPact(
          Acc(from), "MultiTransfer", std::move(input),
          SmallBankActor::MultiTransferAccessInfo(type_, from, tos));
    }
    return runtime_->SubmitAct(Acc(from), "MultiTransfer", std::move(input));
  }

  double Balance(uint64_t k) {
    TxnResult r = runtime_->RunPact(Acc(k), "Balance", Value(),
                                    {{Acc(k), 1}});
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return r.value.AsDouble();
  }

  double TotalBalance(uint64_t num_accounts) {
    double total = 0;
    for (uint64_t k = 0; k < num_accounts; ++k) total += Balance(k);
    return total;
  }

  MemEnv env_;
  std::unique_ptr<SnapperRuntime> runtime_;
  uint32_t type_ = 0;
};

constexpr double kPer = smallbank::kInitialChecking +
                        smallbank::kInitialSavings;

TEST_F(SnapperIntegrationTest, PactSingleTransferCommits) {
  Init();
  TxnResult r = Transfer(TxnMode::kPact, 1, {2, 3}, 50.0);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_DOUBLE_EQ(r.value.AsDouble(), smallbank::kInitialChecking - 100.0);
  EXPECT_DOUBLE_EQ(Balance(1), kPer - 100.0);
  EXPECT_DOUBLE_EQ(Balance(2), kPer + 50.0);
  EXPECT_DOUBLE_EQ(Balance(3), kPer + 50.0);
}

TEST_F(SnapperIntegrationTest, ActSingleTransferCommits) {
  Init();
  TxnResult r = Transfer(TxnMode::kAct, 1, {2, 3}, 50.0);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_DOUBLE_EQ(Balance(1), kPer - 100.0);
  EXPECT_DOUBLE_EQ(Balance(2), kPer + 50.0);
}

TEST_F(SnapperIntegrationTest, NtTransferRuns) {
  Init();
  TxnResult r = Transfer(TxnMode::kNt, 1, {2}, 25.0);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
}

TEST_F(SnapperIntegrationTest, PactsNeverAbortUnderContention) {
  Init();
  constexpr int kTxns = 300;
  constexpr uint64_t kAccounts = 4;  // extreme contention
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < kTxns; ++i) {
    uint64_t from = i % kAccounts;
    uint64_t to = (i + 1) % kAccounts;
    futures.push_back(TransferAsync(TxnMode::kPact, from, {to}, 1.0));
  }
  int committed = 0;
  for (auto& f : futures) {
    TxnResult r = f.Get();
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    committed += r.ok();
  }
  // The paper's headline property: PACTs never abort due to conflicts.
  EXPECT_EQ(committed, kTxns);
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
}

TEST_F(SnapperIntegrationTest, ConcurrentPactsConserveMoney) {
  Init();
  constexpr int kTxns = 200;
  constexpr uint64_t kAccounts = 20;
  std::vector<Future<TxnResult>> futures;
  Rng rng(7);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t from = rng.Uniform(kAccounts);
    std::vector<uint64_t> tos;
    while (tos.size() < 3) {
      uint64_t to = rng.Uniform(kAccounts);
      if (to != from && std::find(tos.begin(), tos.end(), to) == tos.end()) {
        tos.push_back(to);
      }
    }
    futures.push_back(TransferAsync(TxnMode::kPact, from, tos, 2.0));
  }
  for (auto& f : futures) EXPECT_TRUE(f.Get().ok());
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
}

TEST_F(SnapperIntegrationTest, ConcurrentActsConserveMoney) {
  Init();
  // Bounded pipeline (like the paper's clients, §5.1.2): 8 in flight. Under
  // wait-die, the oldest in-flight ACT always makes progress, so a bounded
  // pipeline guarantees a healthy commit count even at high contention.
  constexpr int kTxns = 200;
  constexpr int kPipeline = 8;
  constexpr uint64_t kAccounts = 20;
  Rng rng(11);
  std::deque<Future<TxnResult>> inflight;
  int committed = 0, aborted = 0;
  auto drain_one = [&] {
    TxnResult r = inflight.front().Get();
    inflight.pop_front();
    r.ok() ? committed++ : aborted++;
    if (!r.ok()) EXPECT_TRUE(r.status.IsTxnAborted()) << r.status.ToString();
  };
  for (int i = 0; i < kTxns; ++i) {
    uint64_t from = rng.Uniform(kAccounts);
    std::vector<uint64_t> tos;
    while (tos.size() < 3) {
      uint64_t to = rng.Uniform(kAccounts);
      if (to != from && std::find(tos.begin(), tos.end(), to) == tos.end()) {
        tos.push_back(to);
      }
    }
    inflight.push_back(TransferAsync(TxnMode::kAct, from, tos, 2.0));
    if (inflight.size() >= kPipeline) drain_one();
  }
  while (!inflight.empty()) drain_one();
  EXPECT_GT(committed, 20) << "aborted=" << aborted;
  // Aborted transfers must leave no trace: total is conserved regardless.
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
}

TEST_F(SnapperIntegrationTest, HybridMixConservesMoney) {
  Init();
  constexpr int kTxns = 200;
  constexpr uint64_t kAccounts = 16;
  std::vector<Future<TxnResult>> futures;
  Rng rng(13);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t from = rng.Uniform(kAccounts);
    uint64_t to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
    TxnMode mode = (i % 4 == 0) ? TxnMode::kAct : TxnMode::kPact;
    futures.push_back(TransferAsync(mode, from, {to}, 1.0));
  }
  int pact_aborts = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    TxnResult r = futures[i].Get();
    if (!r.ok() && i % 4 != 0) pact_aborts++;
  }
  EXPECT_EQ(pact_aborts, 0);  // PACTs still never conflict-abort in hybrid
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
}

TEST_F(SnapperIntegrationTest, ActUserAbortRollsBack) {
  Init();
  // Withdraw far more than the checking balance: user abort.
  TxnResult r = Transfer(TxnMode::kAct, 1, {2}, smallbank::kInitialChecking * 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.abort_reason(), AbortReason::kUserAbort);
  EXPECT_DOUBLE_EQ(Balance(1), kPer);
  EXPECT_DOUBLE_EQ(Balance(2), kPer);
}

TEST_F(SnapperIntegrationTest, PactUserAbortRollsBackWholeBatch) {
  Init();
  TxnResult r =
      Transfer(TxnMode::kPact, 1, {2}, smallbank::kInitialChecking * 2);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status.IsTxnAborted()) << r.status.ToString();
  // The system recovers: later transactions run and state is intact.
  EXPECT_DOUBLE_EQ(Balance(1), kPer);
  EXPECT_DOUBLE_EQ(Balance(2), kPer);
  TxnResult ok = Transfer(TxnMode::kPact, 1, {2}, 10.0);
  EXPECT_TRUE(ok.ok()) << ok.status.ToString();
  EXPECT_DOUBLE_EQ(Balance(2), kPer + 10.0);
}

TEST_F(SnapperIntegrationTest, PactUserAbortCascadesButConserves) {
  Init();
  constexpr uint64_t kAccounts = 8;
  std::vector<Future<TxnResult>> futures;
  // A first wave of good PACTs, fully committed...
  for (int i = 0; i < 25; ++i) {
    futures.push_back(
        TransferAsync(TxnMode::kPact, i % kAccounts, {(i + 1) % kAccounts}, 1.0));
  }
  int committed = 0, aborted = 0;
  for (auto& f : futures) f.Get().ok() ? committed++ : aborted++;
  EXPECT_EQ(committed, 25);
  futures.clear();
  // ...then a burst with one poisoned transaction: whatever batches it lands
  // in are rolled back (possibly all of the burst).
  for (int i = 0; i < 25; ++i) {
    uint64_t from = i % kAccounts;
    uint64_t to = (i + 1) % kAccounts;
    double amount = (i == 12) ? smallbank::kInitialChecking * 100 : 1.0;
    futures.push_back(TransferAsync(TxnMode::kPact, from, {to}, amount));
  }
  for (auto& f : futures) f.Get().ok() ? committed++ : aborted++;
  EXPECT_GE(aborted, 1);         // at least the poisoned one
  EXPECT_GE(committed, 25);      // the first wave survives
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
  // And the system still works afterwards.
  EXPECT_TRUE(Transfer(TxnMode::kPact, 0, {1}, 5.0).ok());
  EXPECT_TRUE(Transfer(TxnMode::kAct, 1, {2}, 5.0).ok());
}

TEST_F(SnapperIntegrationTest, PactMessageCostIsThreeOneWayPerActorPerBatch) {
  Init();
  auto& counters = runtime_->context().counters;
  counters.Reset();
  // One PACT over 2 actors, submitted alone => its own batch.
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, {2}, 1.0).ok());
  // The client result resolves on the commit decision; the coordinator may
  // still be fanning out BatchCommit messages — give it a moment.
  for (int spin = 0; spin < 200 && counters.batch_commits.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // §4.1.2: per batch per actor: BatchMsg + BatchComplete + BatchCommit.
  EXPECT_EQ(counters.batch_msgs.load(), 2u);
  EXPECT_EQ(counters.batch_completes.load(), 2u);
  EXPECT_EQ(counters.batch_commits.load(), 2u);
  EXPECT_EQ(counters.act_prepares.load(), 0u);
}

TEST_F(SnapperIntegrationTest, ActMessageCostIsTwoRoundTripsPerParticipant) {
  Init();
  auto& counters = runtime_->context().counters;
  counters.Reset();
  ASSERT_TRUE(Transfer(TxnMode::kAct, 1, {2, 3}, 1.0).ok());
  // §4.1.2: Prepare + Commit round trips to each non-root participant; the
  // root self-coordinates without messages (§5.2.3).
  EXPECT_EQ(counters.act_prepares.load(), 2u);
  EXPECT_EQ(counters.act_commits.load(), 2u);
  EXPECT_EQ(counters.batch_msgs.load(), 0u);
}

TEST_F(SnapperIntegrationTest, BatchingAmortizesMessages) {
  Init();
  auto& counters = runtime_->context().counters;
  // Submit many PACTs against the same 2 actors concurrently: batching must
  // produce far fewer BatchMsgs than 2 * txns.
  constexpr int kTxns = 100;
  counters.Reset();
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < kTxns; ++i) {
    futures.push_back(TransferAsync(TxnMode::kPact, 1, {2}, 1.0));
  }
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  EXPECT_LT(counters.batch_msgs.load(), 2u * kTxns);
}

TEST_F(SnapperIntegrationTest, DeterministicExecutionAcrossRuns) {
  // The same PACT submission sequence must yield identical final states,
  // whatever the thread/message timing — run twice with every message
  // delayed, under different fault seeds.
  auto run_once = [&](uint64_t fault_seed) -> std::vector<double> {
    MemEnv env;
    SnapperConfig config;
    SnapperRuntime rt(config, &env);
    rt.runtime().msg_faults().InjectProbabilistically(
        {.delay_probability = 1, .max_delay_ms = 2}, fault_seed);
    uint32_t type = smallbank::RegisterSmallBank(rt);
    rt.Start();
    std::vector<Future<TxnResult>> futures;
    Rng rng(99);  // workload identical across runs
    for (int i = 0; i < 120; ++i) {
      uint64_t from = rng.Uniform(10);
      uint64_t to = (from + 1 + rng.Uniform(9)) % 10;
      double amount = 1.0 + static_cast<double>(rng.Uniform(5));
      futures.push_back(rt.SubmitPact(
          ActorId{type, from}, "MultiTransfer",
          SmallBankActor::MultiTransferInput(amount, {to}),
          SmallBankActor::MultiTransferAccessInfo(type, from, {to})));
    }
    for (auto& f : futures) EXPECT_TRUE(f.Get().ok());
    std::vector<double> balances;
    for (uint64_t k = 0; k < 10; ++k) {
      balances.push_back(rt.RunPact(ActorId{type, k}, "Balance", Value(),
                                    {{ActorId{type, k}, 1}})
                             .value.AsDouble());
    }
    // A disarmed injector would pass the comparison below trivially.
    EXPECT_GT(rt.runtime().msg_faults().delayed(), 0u);
    return balances;
  };
  // NOTE: with concurrent client submission the arrival order at the
  // coordinator is what fixes the serial order; submitting from one thread
  // sequentially pins it, so both runs see the same order.
  EXPECT_EQ(run_once(1), run_once(2));
}

TEST_F(SnapperIntegrationTest, CrashRecoveryRestoresCommittedState) {
  Init();
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, {2}, 100.0).ok());
  ASSERT_TRUE(Transfer(TxnMode::kAct, 2, {3}, 40.0).ok());
  const double b1 = Balance(1), b2 = Balance(2), b3 = Balance(3);

  // Crash: all actor memory lost; only synced WAL survives.
  env_.CrashAll();
  Reopen();

  EXPECT_DOUBLE_EQ(Balance(1), b1);
  EXPECT_DOUBLE_EQ(Balance(2), b2);
  EXPECT_DOUBLE_EQ(Balance(3), b3);
  // And the recovered system accepts new transactions.
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, {3}, 1.0).ok());
  EXPECT_DOUBLE_EQ(Balance(3), b3 + 1.0);
}

TEST_F(SnapperIntegrationTest, RecoveryConservesMoneyAfterMidFlightCrash) {
  Init();
  constexpr uint64_t kAccounts = 10;
  // Fire transfers and crash without waiting for them.
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < 60; ++i) {
    uint64_t from = i % kAccounts;
    uint64_t to = (i + 3) % kAccounts;
    futures.push_back(
        TransferAsync(i % 2 ? TxnMode::kPact : TxnMode::kAct, from, {to}, 7.0));
  }
  for (auto& f : futures) f.Get();  // quiesce (all decided)
  env_.CrashAll();
  Reopen();
  EXPECT_DOUBLE_EQ(TotalBalance(kAccounts), kPer * kAccounts);
}

TEST_F(SnapperIntegrationTest, ClassicSmallBankOperations) {
  Init();
  ASSERT_TRUE(runtime_
                  ->RunPact(Acc(1), "DepositChecking",
                            Value(ValueMap{{"amount", Value(10.0)}}),
                            {{Acc(1), 1}})
                  .ok());
  ASSERT_TRUE(runtime_
                  ->RunAct(Acc(1), "TransactSaving",
                           Value(ValueMap{{"amount", Value(-100.0)}}))
                  .ok());
  TxnResult wc = runtime_->RunAct(
      Acc(1), "WriteCheck", Value(ValueMap{{"amount", Value(50.0)}}));
  ASSERT_TRUE(wc.ok());
  // Amalgamate moves everything from 1 to 4's checking.
  TxnResult am = runtime_->RunAct(Acc(1), "Amalgamate",
                                  Value(ValueMap{{"to", Value(uint64_t{4})}}));
  ASSERT_TRUE(am.ok()) << am.status.ToString();
  EXPECT_DOUBLE_EQ(Balance(1), 0.0);
  EXPECT_DOUBLE_EQ(Balance(4), 2 * kPer + 10.0 - 100.0 - 50.0);
  // Over-drafting savings aborts.
  TxnResult bad = runtime_->RunAct(
      Acc(2), "TransactSaving",
      Value(ValueMap{{"amount", Value(-2 * smallbank::kInitialSavings)}}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.abort_reason(), AbortReason::kUserAbort);
}

TEST_F(SnapperIntegrationTest, UnknownMethodFailsCleanly) {
  Init();
  TxnResult r = runtime_->RunAct(Acc(1), "NoSuchMethod", Value());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapperIntegrationTest, PactRequiresRootInAccessInfo) {
  Init();
  TxnResult r = runtime_->RunPact(Acc(1), "Balance", Value(), {{Acc(2), 1}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapperIntegrationTest, CcOnlyModeWorksWithoutLogging) {
  SnapperConfig config;
  config.enable_logging = false;
  Init(config);
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, {2}, 5.0).ok());
  ASSERT_TRUE(Transfer(TxnMode::kAct, 2, {3}, 5.0).ok());
  EXPECT_EQ(runtime_->context().log_manager->TotalRecords(), 0u);
}

}  // namespace
}  // namespace snapper
