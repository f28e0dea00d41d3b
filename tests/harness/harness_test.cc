// Tests of the bench harness: metrics accounting, workload generators, the
// client loop, and short end-to-end bench runs on both engines.
#include "harness/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "harness/paper_config.h"
#include "harness/workload.h"
#include "workloads/smallbank.h"

namespace snapper::harness {
namespace {

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
  counters.act_deadlocks_detected.store(7);
  counters.act_wait_timeouts.store(8);
  const std::string json = FaultToleranceJson(counters);
  EXPECT_NE(json.find("\"actor_kills\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reactivations\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reactivation_us\":1500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"watchdog_batch_aborts\":4"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_act_aborts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_act_resolutions\":6"), std::string::npos);
  EXPECT_NE(json.find("\"act_deadlocks_detected\":7"), std::string::npos);
  EXPECT_NE(json.find("\"act_wait_timeouts\":8"), std::string::npos);
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

// Each client generates its own requests and keeps its own pipeline full.
// The synthetic engine resolves futures from a helper thread, oldest first,
// only once every pipeline is full (or after 20 ms, so the run can drain).
TEST(HarnessEndToEnd, EachClientGeneratesAndKeepsItsPipelineFull) {
  ClientConfig config;
  config.num_clients = 3;
  config.pipeline = 4;
  config.epoch_seconds = 0.1;
  config.num_epochs = 2;
  config.warmup_epochs = 1;
  const size_t full = config.num_clients * config.pipeline;

  std::mutex mu;
  std::set<std::thread::id> generator_threads;
  GeneratorFn generate = [&](Rng& rng) {
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_threads.insert(std::this_thread::get_id());
    }
    TxnRequest request;
    request.root = ActorId{1, rng.Uniform(100)};
    request.mode = TxnMode::kPact;
    return request;
  };

  using Clock = std::chrono::steady_clock;
  std::deque<std::pair<Clock::time_point, Promise<TxnResult>>> pending;
  std::vector<Future<TxnResult>> submitted;
  std::atomic<size_t> in_flight{0};
  size_t max_in_flight = 0;
  SubmitFn submit = [&](TxnRequest) {
    Promise<TxnResult> promise;
    Future<TxnResult> future = promise.GetFuture();
    std::lock_guard<std::mutex> lock(mu);
    max_in_flight = std::max(max_in_flight, in_flight.fetch_add(1) + 1);
    pending.emplace_back(Clock::now(), std::move(promise));
    submitted.push_back(future);
    return future;
  };
  std::atomic<bool> done{false};
  std::thread resolver([&] {
    while (!done.load()) {
      std::optional<Promise<TxnResult>> next;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (pending.size() == full ||
            (!pending.empty() && Clock::now() - pending.front().first >
                                     std::chrono::milliseconds(20))) {
          next = std::move(pending.front().second);
          pending.pop_front();
        }
      }
      if (!next.has_value()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      in_flight.fetch_sub(1);  // before Set: the client resubmits from it
      next->Set(TxnResult{});
    }
  });

  BenchResult result = RunBench(config, generate, submit);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& future : submitted) EXPECT_TRUE(future.ready());
    EXPECT_EQ(generator_threads.size(), config.num_clients);
    EXPECT_EQ(generator_threads.count(std::this_thread::get_id()), 0u);
    EXPECT_EQ(max_in_flight, full);
  }
  done.store(true);
  resolver.join();
  EXPECT_GT(result.totals.committed, 0u);
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
