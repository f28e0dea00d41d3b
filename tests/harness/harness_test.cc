// Tests of the bench harness: queue semantics, metrics accounting, workload
// generators, and short end-to-end bench runs on both engines.
#include "harness/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "harness/paper_config.h"
#include "harness/workload.h"
#include "workloads/smallbank.h"

namespace snapper::harness {
namespace {

TEST(PushPullQueueTest, FifoOrder) {
  PushPullQueue q(10);
  for (int i = 0; i < 5; ++i) {
    TxnRequest r;
    r.root = ActorId{0, static_cast<uint64_t>(i)};
    ASSERT_TRUE(q.Push(std::move(r)));
  }
  for (int i = 0; i < 5; ++i) {
    TxnRequest r;
    ASSERT_TRUE(q.Pop(&r));
    EXPECT_EQ(r.root.key, static_cast<uint64_t>(i));
  }
}

TEST(PushPullQueueTest, BlocksWhenFullUntilPop) {
  PushPullQueue q(1);
  ASSERT_TRUE(q.Push(TxnRequest{}));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.Push(TxnRequest{});
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  TxnRequest r;
  ASSERT_TRUE(q.Pop(&r));
  t.join();
  EXPECT_TRUE(pushed.load());
}

TEST(PushPullQueueTest, CloseUnblocksBothSides) {
  PushPullQueue q(1);
  q.Push(TxnRequest{});
  std::thread pusher([&] { EXPECT_FALSE(q.Push(TxnRequest{})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  pusher.join();
  TxnRequest r;
  EXPECT_TRUE(q.Pop(&r));   // drains the remaining element
  EXPECT_FALSE(q.Pop(&r));  // then reports closed
}

TEST(EpochMetricsTest, RecordsCommitsAndAborts) {
  EpochMetrics m;
  TxnResult ok{Status::OK(), Value(), TxnTimings{10, 20, 30}};
  TxnResult bad{
      Status::TxnAborted(AbortReason::kActActConflict, "x"), Value(), {}};
  m.Record(/*is_pact=*/true, ok, 1000);
  m.Record(/*is_pact=*/false, ok, 2000);
  m.Record(/*is_pact=*/false, bad, 3000);
  EXPECT_EQ(m.committed, 2u);
  EXPECT_EQ(m.committed_pact, 1u);
  EXPECT_EQ(m.committed_act, 1u);
  EXPECT_EQ(m.aborted, 1u);
  EXPECT_EQ(m.abort_reasons[static_cast<int>(AbortReason::kActActConflict)],
            1u);
  EXPECT_EQ(m.latency.count(), 2u);  // committed only
  EXPECT_EQ(m.exec_us.count(), 2u);
}

TEST(EpochMetricsTest, MergeAggregates) {
  EpochMetrics a, b;
  TxnResult ok{Status::OK(), Value(), {}};
  a.Record(true, ok, 100);
  b.Record(true, ok, 200);
  a.Merge(b);
  EXPECT_EQ(a.committed, 2u);
  EXPECT_EQ(a.latency.count(), 2u);
}

TEST(BenchResultTest, Rates) {
  BenchResult r;
  r.seconds_measured = 2.0;
  TxnResult ok{Status::OK(), Value(), {}};
  TxnResult bad{Status::TxnAborted(AbortReason::kUserAbort, "x"), Value(), {}};
  for (int i = 0; i < 10; ++i) r.totals.Record(true, ok, 100);
  for (int i = 0; i < 10; ++i) r.totals.Record(true, bad, 100);
  EXPECT_DOUBLE_EQ(r.Throughput(), 5.0);
  EXPECT_DOUBLE_EQ(r.AbortRate(), 0.5);
  EXPECT_DOUBLE_EQ(r.AbortRate(AbortReason::kUserAbort), 0.5);
  EXPECT_NE(r.Summary().find("tps=5"), std::string::npos);
}

TEST(BenchResultTest, FaultToleranceJsonCarriesCounters) {
  MessageCounters counters;
  counters.actor_kills.store(3);
  counters.reactivations.store(2);
  counters.reactivation_us.store(1500);
  counters.watchdog_batch_aborts.store(4);
  counters.watchdog_act_aborts.store(5);
  counters.watchdog_act_resolutions.store(6);
  const std::string json = FaultToleranceJson(counters);
  EXPECT_NE(json.find("\"actor_kills\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reactivations\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reactivation_us\":1500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"watchdog_batch_aborts\":4"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_act_aborts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_act_resolutions\":6"), std::string::npos);
}

TEST(SmallBankGeneratorTest, ProducesDistinctActorsAndValidInfo) {
  SmallBankWorkloadConfig config;
  config.actor_type = 7;
  config.num_actors = 100;
  config.txn_size = 4;
  auto gen = MakeSmallBankGenerator(config);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    TxnRequest r = gen(rng);
    EXPECT_EQ(r.method, "MultiTransfer");
    EXPECT_EQ(r.info.size(), 4u);  // 4 distinct actors
    EXPECT_TRUE(r.info.count(r.root));
    EXPECT_EQ(r.input["to"].size(), 3u);
  }
}

TEST(SmallBankGeneratorTest, PactFractionRespected) {
  SmallBankWorkloadConfig config;
  config.num_actors = 100;
  config.pact_fraction = 0.75;
  auto gen = MakeSmallBankGenerator(config);
  Rng rng(5);
  int pacts = 0;
  for (int i = 0; i < 2000; ++i) {
    pacts += gen(rng).mode == TxnMode::kPact;
  }
  EXPECT_NEAR(pacts / 2000.0, 0.75, 0.05);
}

TEST(SmallBankGeneratorTest, HotspotPutsThreeAccessesInHotSet) {
  SmallBankWorkloadConfig config;
  config.num_actors = 10000;
  config.distribution = Distribution::kHotspot;
  config.hot_fraction = 0.01;
  config.hot_accesses = 3;
  auto gen = MakeSmallBankGenerator(config);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    TxnRequest r = gen(rng);
    int hot = 0;
    for (const auto& [actor, _] : r.info) {
      if (actor.key < 100) hot++;  // hot set = first 1%
    }
    EXPECT_EQ(hot, 3);
  }
}

TEST(SmallBankGeneratorTest, DeadlockFreeOrdersActors) {
  SmallBankWorkloadConfig config;
  config.num_actors = 100;
  config.deadlock_free = true;
  auto gen = MakeSmallBankGenerator(config);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    TxnRequest r = gen(rng);
    EXPECT_EQ(r.method, "MultiTransferOrdered");
    for (const Value& to : r.input["to"].AsList()) {
      EXPECT_LT(r.root.key, static_cast<uint64_t>(to.AsInt()));
    }
  }
}

TEST(SmallBankGeneratorTest, NoopVariantSplitsTargets) {
  SmallBankWorkloadConfig config;
  config.num_actors = 100;
  config.txn_size = 4;
  config.noop_accesses = 3;  // 0W+... shape: root RW + 3 no-ops? root writes
  auto gen = MakeSmallBankGenerator(config);
  Rng rng(11);
  TxnRequest r = gen(rng);
  EXPECT_EQ(r.method, "MultiTransferMixed");
  EXPECT_EQ(r.input["to"].size(), 0u);
  EXPECT_EQ(r.input["noop"].size(), 3u);
  EXPECT_EQ(r.info.size(), 4u);
}

TEST(HarnessEndToEnd, ShortSnapperBenchCommitsTransactions) {
  SnapperRuntime runtime{SnapperConfig{}};
  uint32_t type = smallbank::RegisterSmallBank(runtime);
  runtime.Start();

  SmallBankWorkloadConfig workload;
  workload.actor_type = type;
  workload.num_actors = 500;
  workload.pact_fraction = 0.9;

  ClientConfig config;
  config.num_clients = 2;
  config.pipeline = 16;
  config.epoch_seconds = 0.3;
  config.num_epochs = 3;
  config.warmup_epochs = 1;

  BenchResult result = RunBench(config, MakeSmallBankGenerator(workload),
                                SnapperSubmit(runtime));
  EXPECT_GT(result.totals.committed, 5u);
  EXPECT_GT(result.totals.committed_pact, result.totals.committed_act);
  EXPECT_GT(result.Throughput(), 0.0);
  EXPECT_GT(result.totals.latency.Quantile(0.5), 0.0);
}

TEST(HarnessEndToEnd, ShortOtxnBenchCommitsTransactions) {
  otxn::OtxnRuntime runtime{otxn::OtxnConfig{}};
  uint32_t type = runtime.RegisterActorType("SmallBank", [](uint64_t) {
    return std::make_shared<smallbank::SmallBankLogic<otxn::OtxnActor>>();
  });

  SmallBankWorkloadConfig workload;
  workload.actor_type = type;
  workload.num_actors = 500;

  ClientConfig config;
  config.num_clients = 1;
  config.pipeline = 8;
  config.epoch_seconds = 0.3;
  config.num_epochs = 2;
  config.warmup_epochs = 1;

  BenchResult result = RunBench(config, MakeSmallBankGenerator(workload),
                                OtxnSubmit(runtime));
  EXPECT_GT(result.totals.committed, 5u);
}

TEST(HarnessEndToEnd, ActRetriesRecoverConflictAborts) {
  ClientConfig config;
  config.num_clients = 1;
  config.pipeline = 4;
  config.epoch_seconds = 0.2;
  config.num_epochs = 2;
  config.warmup_epochs = 0;
  config.max_act_retries = 3;
  config.act_retry_backoff = std::chrono::microseconds(200);
  config.act_retry_backoff_cap = std::chrono::microseconds(1000);

  std::atomic<uint64_t> next_key{0};
  GeneratorFn generate = [&](Rng&) {
    TxnRequest request;
    request.root = ActorId{1, next_key.fetch_add(1)};
    request.method = "M";
    request.mode = TxnMode::kAct;
    return request;
  };

  // Synthetic engine: every transaction is a wait-die victim on its first
  // two attempts and commits on the third.
  std::mutex mu;
  std::map<uint64_t, int> attempts;
  SubmitFn submit = [&](TxnRequest request) {
    int n;
    {
      std::lock_guard<std::mutex> lock(mu);
      n = ++attempts[request.root.key];
    }
    Promise<TxnResult> promise;
    auto future = promise.GetFuture();
    TxnResult result;
    if (n < 3) {
      result.status =
          Status::TxnAborted(AbortReason::kActActConflict, "synthetic");
    }
    promise.Set(std::move(result));
    return future;
  };

  BenchResult result = RunBench(config, generate, submit);
  EXPECT_GT(result.totals.committed, 0u);
  EXPECT_GT(result.totals.act_retries, 0u);
  EXPECT_GT(result.totals.aborted, 0u);
  // Per-attempt accounting: every recorded abort is a conflict abort here.
  EXPECT_EQ(result.totals.abort_reasons[static_cast<int>(
                AbortReason::kActActConflict)],
            result.totals.aborted);
  // The retry budget (3) bounds attempts; with commit-on-third no
  // transaction should ever be submitted a fourth time.
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& [key, n] : attempts) {
    EXPECT_LE(n, 3) << "key " << key;
  }
}

TEST(SaturatingBackoffTest, DoublesUntilCapThenSaturates) {
  using std::chrono::microseconds;
  const microseconds base{100}, cap{1000};
  EXPECT_EQ(SaturatingBackoff(base, 0, cap), microseconds(100));
  EXPECT_EQ(SaturatingBackoff(base, 1, cap), microseconds(200));
  EXPECT_EQ(SaturatingBackoff(base, 3, cap), microseconds(800));
  EXPECT_EQ(SaturatingBackoff(base, 4, cap), cap);  // 1600 > cap
  EXPECT_EQ(SaturatingBackoff(base, 10, cap), cap);
}

// The satellite bug: `base << k` at k >= 32 used to overflow (UB for the
// 64-bit rep at k >= 63, and garbage backoffs long before). The saturating
// form must return exactly `cap` for every large attempt count.
TEST(SaturatingBackoffTest, LargeAttemptCountsSaturateInsteadOfOverflowing) {
  using std::chrono::microseconds;
  const microseconds base{500}, cap{64000};
  for (int k : {32, 40, 62, 63, 64, 1000, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(SaturatingBackoff(base, k, cap), cap) << "k=" << k;
  }
}

TEST(SaturatingBackoffTest, EdgeCases) {
  using std::chrono::microseconds;
  // Non-positive base: no backoff.
  EXPECT_EQ(SaturatingBackoff(microseconds(0), 5, microseconds(1000)),
            microseconds(0));
  EXPECT_EQ(SaturatingBackoff(microseconds(-10), 5, microseconds(1000)),
            microseconds(0));
  // Negative attempt clamps to 0.
  EXPECT_EQ(SaturatingBackoff(microseconds(100), -3, microseconds(1000)),
            microseconds(100));
  // base >= cap: pinned at cap from the first attempt.
  EXPECT_EQ(SaturatingBackoff(microseconds(2000), 0, microseconds(1000)),
            microseconds(1000));
}

// Overload retries: a kOverloaded ack is resubmitted (after backoff) while
// the per-client budget lasts, and the retried request eventually commits.
TEST(HarnessEndToEnd, OverloadRetriesRecoverShedRequests) {
  ClientConfig config;
  config.num_clients = 1;
  config.pipeline = 4;
  config.epoch_seconds = 0.2;
  config.num_epochs = 2;
  config.warmup_epochs = 0;
  config.overload_retry_budget = 10000;
  config.overload_retry_backoff = std::chrono::microseconds(100);
  config.overload_retry_backoff_cap = std::chrono::microseconds(500);

  std::atomic<uint64_t> next_key{0};
  GeneratorFn generate = [&](Rng&) {
    TxnRequest request;
    request.root = ActorId{1, next_key.fetch_add(1)};
    request.method = "M";
    request.mode = TxnMode::kPact;
    return request;
  };

  // Synthetic engine: every request is shed twice, commits on the third
  // attempt — admission control easing off as load drains.
  std::mutex mu;
  std::map<uint64_t, int> attempts;
  SubmitFn submit = [&](TxnRequest request) {
    int n;
    {
      std::lock_guard<std::mutex> lock(mu);
      n = ++attempts[request.root.key];
    }
    Promise<TxnResult> promise;
    auto future = promise.GetFuture();
    TxnResult result;
    if (n < 3) result.status = Status::Overloaded("synthetic shed");
    promise.Set(std::move(result));
    return future;
  };

  BenchResult result = RunBench(config, generate, submit);
  EXPECT_GT(result.totals.committed, 0u);
  EXPECT_GT(result.totals.overloaded, 0u);
  EXPECT_GT(result.totals.overload_retries, 0u);
  // Typed sheds are not aborts (Fig. 16c abort-rate semantics preserved).
  EXPECT_EQ(result.totals.aborted, 0u);
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& [key, n] : attempts) {
    EXPECT_LE(n, 3) << "key " << key;
  }
}

// Sustained saturation drains the shared budget: once it is gone the client
// stops retrying and abandons shed requests (back-pressure), counted in
// retry_budget_exhausted.
TEST(HarnessEndToEnd, OverloadRetryBudgetDrainsUnderSustainedShedding) {
  ClientConfig config;
  config.num_clients = 1;
  config.pipeline = 4;
  config.epoch_seconds = 0.15;
  config.num_epochs = 2;
  config.warmup_epochs = 0;
  config.overload_retry_budget = 5;
  config.overload_retry_backoff = std::chrono::microseconds(50);
  config.overload_retry_backoff_cap = std::chrono::microseconds(200);

  std::atomic<uint64_t> next_key{0};
  GeneratorFn generate = [&](Rng&) {
    TxnRequest request;
    request.root = ActorId{1, next_key.fetch_add(1)};
    request.mode = TxnMode::kPact;
    return request;
  };
  // Permanently saturated engine: everything is shed.
  SubmitFn submit = [](TxnRequest) {
    Promise<TxnResult> promise;
    TxnResult shed;
    shed.status = Status::Overloaded("synthetic saturation");
    promise.Set(std::move(shed));
    return promise.GetFuture();
  };

  BenchResult result = RunBench(config, generate, submit);
  EXPECT_EQ(result.totals.committed, 0u);
  EXPECT_GT(result.totals.overloaded, 0u);
  // The budget bounds total retries; after it drains, abandonment is typed.
  EXPECT_LE(result.totals.overload_retries, 5u);
  EXPECT_GT(result.totals.retry_budget_exhausted, 0u);
}

// Deadline propagation: the deadline covers the request's whole lifetime
// from first submission, so a shed request whose retry would land past it is
// abandoned even with budget left.
TEST(HarnessEndToEnd, OverloadDeadlineAbandonsOldRequests) {
  ClientConfig config;
  config.num_clients = 1;
  config.pipeline = 2;
  config.epoch_seconds = 0.15;
  config.num_epochs = 2;
  config.warmup_epochs = 0;
  config.overload_retry_budget = 1000000;  // never the binding constraint
  config.overload_retry_backoff = std::chrono::microseconds(2000);
  config.overload_retry_backoff_cap = std::chrono::microseconds(2000);
  config.request_deadline = std::chrono::milliseconds(1);

  std::atomic<uint64_t> next_key{0};
  GeneratorFn generate = [&](Rng&) {
    TxnRequest request;
    request.root = ActorId{1, next_key.fetch_add(1)};
    request.mode = TxnMode::kPact;
    return request;
  };
  SubmitFn submit = [](TxnRequest) {
    Promise<TxnResult> promise;
    TxnResult shed;
    shed.status = Status::Overloaded("synthetic saturation");
    promise.Set(std::move(shed));
    return promise.GetFuture();
  };

  BenchResult result = RunBench(config, generate, submit);
  EXPECT_EQ(result.totals.committed, 0u);
  EXPECT_GT(result.totals.deadline_abandoned, 0u);
  // Budget never exhausted: the deadline, not the budget, stops retries.
  EXPECT_EQ(result.totals.retry_budget_exhausted, 0u);
}

TEST(PaperConfigTest, ScaleTableFollowsBaseUnit) {
  auto s4 = ScaleForCores(4);
  EXPECT_EQ(s4.smallbank_actors, 10000u);
  EXPECT_EQ(s4.coordinators, 4u);
  auto s32 = ScaleForCores(32);
  EXPECT_EQ(s32.smallbank_actors, 80000u);
  EXPECT_EQ(s32.coordinators, 32u);
  EXPECT_EQ(s32.loggers, 32u);
}

TEST(PaperConfigTest, SkewLevelsAreMonotone) {
  double prev = -1;
  for (const auto& level : kSkewLevels) {
    EXPECT_GT(level.zipf_s, prev - 1e-9);
    prev = level.zipf_s;
  }
}

}  // namespace
}  // namespace snapper::harness
