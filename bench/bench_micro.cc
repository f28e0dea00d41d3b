// Component microbenchmarks (google-benchmark): the building blocks under
// the figure benches — Value codec, CRC, zipf sampling, histogram, lock
// table, local schedule, WAL append, actor RPC round trip, actor-to-actor
// hop.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "actor/actor.h"
#include "async/task.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/value.h"
#include "snapper/local_schedule.h"
#include "snapper/lock_table.h"
#include "wal/logger.h"

namespace snapper {
namespace {

Value MakeBankState() {
  return Value(ValueMap{{"checking", Value(10000.0)},
                        {"savings", Value(10000.0)}});
}

void BM_ValueEncode(benchmark::State& state) {
  Value v = MakeBankState();
  for (auto _ : state) {
    std::string out = v.Encode();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ValueEncode);

void BM_ValueDecode(benchmark::State& state) {
  std::string encoded = MakeBankState().Encode();
  for (auto _ : state) {
    Value v = Value::Decode(encoded);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ValueDecode);

void BM_ValueCopy(benchmark::State& state) {
  Value v = MakeBankState();
  for (auto _ : state) {
    Value copy = v;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ValueCopy);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(0.9, static_cast<uint64_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(10000)->Arg(100000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(2);
  for (auto _ : state) {
    h.Record(rng.Uniform(1000000));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_LockAcquireRelease(benchmark::State& state) {
  ActorLock lock;
  uint64_t tid = 1;
  for (auto _ : state) {
    auto f = lock.Acquire(tid, AccessMode::kReadWrite);
    benchmark::DoNotOptimize(f.ready());
    lock.Release(tid);
    tid++;
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_ScheduleBatchLifecycle(benchmark::State& state) {
  LocalSchedule sched;
  uint64_t bid = 1;
  uint64_t prev = kNoBid;
  for (auto _ : state) {
    BatchMsg msg;
    msg.bid = bid;
    msg.prev_bid = prev;
    msg.entries.push_back(SubBatchEntry{bid, 1});
    sched.AddBatch(std::move(msg));
    auto gate = sched.WaitPactTurn(bid, bid);
    benchmark::DoNotOptimize(gate.ready());
    sched.CompletePactAccess(bid, bid);
    sched.MarkBatchCommitted(bid);
    prev = bid;
    bid++;
  }
}
BENCHMARK(BM_ScheduleBatchLifecycle);

void BM_WalAppend(benchmark::State& state) {
  Executor executor(2);
  MemEnv env;
  Logger logger(0, 1, &env, std::make_shared<Strand>(&executor), nullptr,
                nullptr, 0);
  LogRecord record;
  record.type = LogRecordType::kBatchComplete;
  record.actor = ActorId{1, 1};
  record.state = std::string(static_cast<size_t>(state.range(0)), 's');
  for (auto _ : state) {
    record.id++;
    logger.Append(record).Get();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  executor.Stop();
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024);

class PingActor : public ActorBase {
 public:
  Task<int64_t> Ping(int64_t v) { co_return v + 1; }
};

void BM_ActorRpcRoundTrip(benchmark::State& state) {
  ActorRuntime runtime(ActorRuntime::Options{.num_workers = 2});
  uint32_t type = runtime.RegisterType(
      "Ping", [](uint64_t) { return std::make_shared<PingActor>(); });
  ActorId id{type, 1};
  int64_t v = 0;
  for (auto _ : state) {
    v = runtime.Call<PingActor>(id, [v](PingActor& a) { return a.Ping(v); })
            .Get();
  }
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_ActorRpcRoundTrip);

class HopActor : public ActorBase {
 public:
  /// Awaits `hops` sequential Pings on `peer`, each from this actor's strand.
  Task<int64_t> Chain(ActorId peer, int hops) {
    int64_t v = 0;
    for (int i = 0; i < hops; ++i) {
      v = co_await runtime().Call<PingActor>(
          peer, [v](PingActor& a) { return a.Ping(v); });
    }
    co_return v;
  }
};

// Actor-to-actor message hops with no client thread in the loop: one
// actor's coroutine awaits 1000 sequential Calls on another, on 2 workers.
// Each hop is a Call (task frame, future state, strand post) plus the
// awaiter's resume on the caller's strand. Reports time per hop.
void BM_ActorHop(benchmark::State& state) {
  constexpr int kHops = 1000;
  ActorRuntime runtime(ActorRuntime::Options{.num_workers = 2});
  uint32_t ping = runtime.RegisterType(
      "Ping", [](uint64_t) { return std::make_shared<PingActor>(); });
  uint32_t hop = runtime.RegisterType(
      "Hop", [](uint64_t) { return std::make_shared<HopActor>(); });
  const ActorId peer{ping, 1};
  const ActorId caller{hop, 1};
  int64_t v = 0;
  for (auto _ : state) {
    v = runtime
            .Call<HopActor>(caller,
                            [peer](HopActor& a) { return a.Chain(peer, kHops); })
            .Get();
  }
  benchmark::DoNotOptimize(v);
  // Inverted rate over real time: seconds per (hop / 1e9), i.e. ns per hop.
  state.counters["ns_per_hop"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kHops / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ActorHop)->UseRealTime();

}  // namespace
}  // namespace snapper

// Like BENCHMARK_MAIN(), but defaults to writing a committed JSON snapshot
// (bench_results/BENCH_micro.json) unless the caller already passed
// --benchmark_out. Run from the repo root so the relative path resolves.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
      break;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=bench_results/BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
