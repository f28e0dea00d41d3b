// Tests of the benchmark's own helpers and output checks. Run with
// `python3 snapbench/run.py --self-test`; exits non-zero on any failure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "harness/workload.h"
#include "wal/env.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace snapbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                      \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void TestQuantile() {
  EXPECT(Quantile({}, 0.5) == 0);
  EXPECT(Quantile({7}, 0.99) == 7);
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(Median({5, 1, 3}), 3));
  EXPECT(Quantile({3, 1, 2}, 0) == 1);
  EXPECT(Quantile({3, 1, 2}, 1) == 3);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Near(Quantile(hundred, 0.99), 99.01));
  EXPECT(Near(Quantile(hundred, 0.25), 25.75));
}

Span S(int64_t start, int64_t end) { return Span{0, 0, 0, "s", start, end}; }

void TestSelfTime() {
  const Span parent = S(100, 200);
  EXPECT(SelfTimeNs(parent, {}) == 100);
  EXPECT(SelfTimeNs(parent, {S(110, 120), S(150, 170)}) == 70);
  // Overlapping children count once.
  EXPECT(SelfTimeNs(parent, {S(110, 150), S(140, 160)}) == 50);
  // Children are clipped to the parent; self time never goes negative.
  EXPECT(SelfTimeNs(parent, {S(50, 150)}) == 50);
  EXPECT(SelfTimeNs(parent, {S(0, 500)}) == 0);
  EXPECT(SelfTimeNs(parent, {S(300, 400)}) == 100);
}

void TestTxnSpans() {
  // Self time of the txn span is exactly latency - (start + exec + commit).
  uint64_t next_id = 10;
  snapper::TxnTimings t{.start_us = 120, .exec_us = 300, .commit_us = 4000};
  const int64_t submit = 1'000'000, done = submit + 5'000'500;
  std::vector<Span> spans = TxnSpans(7, submit, done, t, &next_id);
  EXPECT(spans.size() == 4);
  EXPECT(next_id == 14);
  EXPECT(spans[0].parent == 0 && spans[0].txn == 7);
  for (int i = 1; i < 4; ++i) {
    EXPECT(spans[i].parent == spans[0].id && spans[i].txn == 7);
  }
  EXPECT(spans[3].end_ns == done);
  EXPECT(spans[1].end_ns == spans[2].start_ns);
  EXPECT(spans[2].end_ns == spans[3].start_ns);
  const int64_t self = SelfTimeNs(spans[0], {spans[1], spans[2], spans[3]});
  EXPECT(self == (done - submit) - (120 + 300 + 4000) * 1000);

  // Timings covering more than the latency leave zero, never negative.
  snapper::TxnTimings over{.start_us = 10, .exec_us = 10, .commit_us = 10};
  spans = TxnSpans(8, 0, 20'000, over, &next_id);
  EXPECT(SelfTimeNs(spans[0], {spans[1], spans[2], spans[3]}) == 0);
}

void TestProcStat() {
  const std::string text =
      "cpu  100 5 50 800 20 1 2 22 0 0\n"
      "cpu0 50 2 25 400 10 1 1 11 0 0\n"
      "intr 12345\n";
  HostCpu a;
  EXPECT(ParseProcStat(text, &a));
  EXPECT(a.total == 1000);
  EXPECT(a.steal == 22);
  HostCpu b;
  EXPECT(ParseProcStat("cpu  200 5 50 1600 20 1 2 122 7 0\n", &b));
  EXPECT(b.total == 2000);  // guest and guest_nice are not added again
  EXPECT(Near(StealPct(a, b), 100.0 * 100 / 1000));
  EXPECT(StealPct(b, a) == 0);  // counters never run backwards
  HostCpu c;
  EXPECT(!ParseProcStat("cpu0 1 2 3 4 5 6 7 8\n", &c));  // no aggregate line
  EXPECT(!ParseProcStat("cpu  1 2 3 4 5 6 7\n", &c));    // steal missing
  EXPECT(!ParseProcStat("", &c));
}

snapper::SnapperConfig SmallConfig() {
  snapper::SnapperConfig config;
  config.num_workers = 2;
  config.num_coordinators = 2;
  config.num_loggers = 2;
  return config;
}

void TestSmallBankCheck() {
  snapper::MemEnv env;
  snapper::SnapperRuntime rt(SmallConfig(), &env);
  const uint32_t type = snapper::smallbank::RegisterSmallBank(rt);
  rt.Start();
  constexpr uint64_t kAccounts = 40;
  snapper::harness::SmallBankWorkloadConfig w;
  w.actor_type = type;
  w.num_actors = kAccounts;
  w.pact_fraction = 0.5;
  auto generate = snapper::harness::MakeSmallBankGenerator(w);
  snapper::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    auto r = generate(rng);
    snapper::TxnResult result =
        r.mode == snapper::TxnMode::kPact
            ? rt.RunPact(r.root, r.method, r.input, r.info)
            : rt.RunAct(r.root, r.method, r.input);
    EXPECT(result.ok());
  }
  EXPECT(CheckSmallBankTotal(rt, type, kAccounts).ok());

  // Planted violation: one balance altered outside a MultiTransfer.
  const snapper::ActorId victim{type, 3};
  snapper::TxnResult deposit = rt.RunPact(
      victim, "DepositChecking",
      snapper::Value(snapper::ValueMap{{"amount", snapper::Value(5.0)}}),
      snapper::ActorAccessInfo{{victim, 1}});
  EXPECT(deposit.ok());
  snapper::Status s = CheckSmallBankTotal(rt, type, kAccounts);
  EXPECT(s.code() == snapper::StatusCode::kCorruption);
}

void TestTpccCheck() {
  snapper::MemEnv env;
  snapper::SnapperRuntime rt(SmallConfig(), &env);
  snapper::harness::TpccWorkloadConfig w;
  w.types = snapper::tpcc::RegisterTpcc(rt);
  rt.Start();
  auto generate = snapper::harness::MakeTpccGenerator(w);
  snapper::Rng rng(9);
  auto run_one = [&]() {
    auto r = generate(rng);
    return rt.RunPact(r.root, r.method, r.input, r.info).ok();
  };
  uint64_t committed = 0;
  for (int i = 0; i < 12; ++i) committed += run_one();
  EXPECT(committed == 12);
  EXPECT(CheckTpccOrderCount(rt, w.types, w.layout, committed).ok());
  EXPECT(CheckTpccOrderCount(rt, w.types, w.layout, committed - 1).code() ==
         snapper::StatusCode::kCorruption);

  // Planted violation: a NewOrder the client never counted.
  EXPECT(run_one());
  EXPECT(CheckTpccOrderCount(rt, w.types, w.layout, committed).code() ==
         snapper::StatusCode::kCorruption);
}

}  // namespace
}  // namespace snapbench

int main() {
  using namespace snapbench;
  TestQuantile();
  TestSelfTime();
  TestTxnSpans();
  TestProcStat();
  TestSmallBankCheck();
  TestTpccCheck();
  if (g_failures != 0) {
    std::fprintf(stderr, "snapbench_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("snapbench_test: all checks passed\n");
  return 0;
}
