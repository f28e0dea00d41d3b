// snapbench: fixed-work closed-loop benchmark of the Snapper runtime.
//
//   snapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--span-dir <dir>]
//
// One repetition runs in its own forked process and builds a fresh silo
// (SnapperRuntime with 2 workers, 4 coordinators, 4 loggers over a MemEnv
// with a 100 us Sync), activates the working set, runs a fixed number of
// transactions from the seeded generator with one client thread keeping a
// fixed pipeline in flight, and finally checks the workload's invariants
// (untimed). Repetitions repeat until --seconds have passed; every
// end-to-end metric is the median over repetitions. With --trace 1,
// untraced and traced repetitions alternate: the traced ones time the
// benchmark's own calls into each layer, and the first of them writes its
// spans to a CSV file in --span-dir. The last stdout line is the JSON result.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "common/crc32c.h"
#include "common/mutex.h"
#include "harness/workload.h"
#include "wal/env.h"
#include "workloads/smallbank.h"
#include "workloads/smallbank_logic.h"
#include "workloads/tpcc.h"

namespace snapbench {
namespace {

using snapper::AbortReason;
using snapper::ActorId;
using snapper::Env;
using snapper::Executor;
using snapper::Future;
using snapper::MemEnv;
using snapper::Rng;
using snapper::SnapperConfig;
using snapper::SnapperRuntime;
using snapper::Status;
using snapper::StatusCode;
using snapper::TxnMode;
using snapper::TxnResult;
using snapper::TxnTimings;
using snapper::Value;
using snapper::ValueList;
using snapper::ValueMap;
using snapper::WritableFile;
namespace harness = snapper::harness;
namespace tpcc = snapper::tpcc;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kSmallBank, kTpcc };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double pact_fraction;
  harness::Distribution distribution;
  size_t pipeline;
  uint64_t window_txns;  ///< the fixed work of one repetition
};

// Repetitions last about a second, except sb_hybrid_hotspot's: a 150 ms
// act_wait_timeout stall (§4.4.2) costs a one-second repetition over 10% of
// its throughput, so its repetitions run three times longer and the stalls
// average out within each one instead of splitting repetitions in two modes.
constexpr WorkloadSpec kWorkloads[] = {
    {"sb_pact_uniform", Kind::kSmallBank, 1.0, harness::Distribution::kUniform,
     64, 8000},
    {"sb_act_uniform", Kind::kSmallBank, 0.0, harness::Distribution::kUniform,
     16, 4000},
    {"sb_hybrid_hotspot", Kind::kSmallBank, 0.9,
     harness::Distribution::kHotspot, 64, 18000},
    {"tpcc_neworder", Kind::kTpcc, 1.0, harness::Distribution::kUniform, 16,
     2000},
};

constexpr uint64_t kSmallBankAccounts = 10000;
constexpr int kSyncLatencyUs = 100;
constexpr size_t kWorkers = 2;
/// One executor probe per this many submissions in traced repetitions.
constexpr uint64_t kProbeEvery = 8;
/// No completion for this long means a stalled run: fail loudly.
constexpr int kStallSeconds = 60;

/// The abort reasons reported as snapper.abort_pct.<name>; every other
/// non-commit lands in "other".
constexpr AbortReason kReportedAborts[] = {
    AbortReason::kActActConflict, AbortReason::kPactActDeadlock,
    AbortReason::kIncompleteAfterSet, AbortReason::kSerializabilityCheck};

// ---------------------------------------------------------------------------
// WAL env decorator (traced repetitions only)

/// Times every Append and Sync the loggers make, records wal.append /
/// wal.sync spans, and sums Sync time spent on executor worker threads.
class TimingEnv : public Env {
 public:
  TimingEnv(Env* base, SpanStore* spans) : base_(base), spans_(spans) {}

  void set_executor(Executor* executor) { executor_.store(executor); }

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    Status s = base_->NewWritableFile(name, &inner);
    if (s.ok()) *file = std::make_unique<File>(std::move(inner), this);
    return s;
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    return base_->ReadFile(name, out);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return base_->ListFiles(); }

  std::vector<double> TakeSyncUs() {
    snapper::MutexLock lock(&mu_);
    return std::move(sync_us_);
  }
  int64_t worker_sync_ns() const { return worker_sync_ns_.load(); }

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> inner, TimingEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Append(std::string_view data) override {
      const int64_t t0 = NowNs();
      Status s = inner_->Append(data);
      env_->spans_->Record("wal.append", t0, NowNs());
      return s;
    }
    Status Sync() override {
      const int64_t t0 = NowNs();
      Status s = inner_->Sync();
      env_->OnSync(t0, NowNs());
      return s;
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    TimingEnv* env_;
  };

  void OnSync(int64_t t0, int64_t t1) {
    spans_->Record("wal.sync", t0, t1);
    Executor* executor = executor_.load();
    if (executor != nullptr && executor->InExecutor()) {
      worker_sync_ns_.fetch_add(t1 - t0);
    }
    snapper::MutexLock lock(&mu_);
    sync_us_.push_back(static_cast<double>(t1 - t0) / 1000.0);
  }

  Env* base_;
  SpanStore* spans_;
  std::atomic<Executor*> executor_{nullptr};
  std::atomic<int64_t> worker_sync_ns_{0};
  snapper::Mutex mu_;
  std::vector<double> sync_us_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Silo: one runtime with the workload registered and its working set active.

class Silo {
 public:
  Silo(const WorkloadSpec& spec, uint64_t seed, SpanStore* spans)
      : spec_(spec) {
    mem_env_.set_sync_latency(std::chrono::microseconds(kSyncLatencyUs));
    Env* env = &mem_env_;
    if (spans != nullptr) {
      timing_env_ = std::make_unique<TimingEnv>(&mem_env_, spans);
      env = timing_env_.get();
    }
    SnapperConfig config;
    config.num_workers = kWorkers;
    config.num_coordinators = 4;
    config.num_loggers = 4;
    config.enable_logging = true;
    config.seed = seed;
    runtime_ = std::make_unique<SnapperRuntime>(config, env);
    if (timing_env_) timing_env_->set_executor(&runtime_->runtime().executor());

    if (spec.kind == Kind::kSmallBank) {
      account_type_ = snapper::smallbank::RegisterSmallBank(*runtime_);
      runtime_->Start();
      for (uint64_t k = 0; k < kSmallBankAccounts; ++k) {
        runtime_->runtime().GetOrActivate(ActorId{account_type_, k});
      }
      harness::SmallBankWorkloadConfig w;
      w.actor_type = account_type_;
      w.num_actors = kSmallBankAccounts;
      w.txn_size = 4;
      w.pact_fraction = spec.pact_fraction;
      w.distribution = spec.distribution;
      w.hot_fraction = 0.01;
      w.hot_accesses = 3;
      generator_ = harness::MakeSmallBankGenerator(w);
    } else {
      types_ = tpcc::RegisterTpcc(*runtime_);
      runtime_->Start();
      ActivateTpcc();
      harness::TpccWorkloadConfig w;
      w.types = types_;
      w.layout = layout_;
      w.pact_fraction = spec.pact_fraction;
      w.distribution = spec.distribution;
      generator_ = harness::MakeTpccGenerator(w);
    }
    // Activation posts each actor's OnActivate turn; wait until the
    // executor has worked through them so the window starts quiet.
    snapper::Promise<snapper::Unit> drained;
    runtime_->runtime().executor().Post(
        [drained]() { drained.Set(snapper::Unit{}); });
    drained.GetFuture().Get();
  }

  ~Silo() { runtime_.reset(); }  // drain the runtime before its env dies

  Silo(const Silo&) = delete;
  Silo& operator=(const Silo&) = delete;

  SnapperRuntime& rt() { return *runtime_; }
  const harness::GeneratorFn& generator() const { return generator_; }
  TimingEnv* timing_env() { return timing_env_.get(); }

  /// The workload's output check; `committed` counts every commit since the
  /// silo started.
  Status Check(uint64_t committed) {
    if (spec_.kind == Kind::kSmallBank) {
      return CheckSmallBankTotal(*runtime_, account_type_, kSmallBankAccounts);
    }
    return CheckTpccOrderCount(*runtime_, types_, layout_, committed);
  }

 private:
  void ActivateTpcc() {
    auto& actors = runtime_->runtime();
    for (uint64_t w = 0; w < layout_.num_warehouses; ++w) {
      actors.GetOrActivate(ActorId{types_.warehouse, layout_.WarehouseKey(w)});
      for (int d = 0; d < layout_.districts_per_warehouse; ++d) {
        actors.GetOrActivate(ActorId{types_.district, layout_.PartKey(w, d)});
      }
      for (int p = 0; p < layout_.stock_partitions_per_warehouse; ++p) {
        actors.GetOrActivate(ActorId{types_.stock, layout_.PartKey(w, p)});
      }
      for (int p = 0; p < layout_.item_partitions_per_warehouse; ++p) {
        actors.GetOrActivate(ActorId{types_.item, layout_.PartKey(w, p)});
      }
      for (int p = 0; p < layout_.customer_partitions_per_warehouse; ++p) {
        actors.GetOrActivate(ActorId{types_.customer, layout_.PartKey(w, p)});
      }
      for (int p = 0; p < layout_.order_partitions_per_warehouse; ++p) {
        actors.GetOrActivate(ActorId{types_.order, layout_.PartKey(w, p)});
      }
    }
  }

  const WorkloadSpec& spec_;
  MemEnv mem_env_;
  std::unique_ptr<TimingEnv> timing_env_;
  std::unique_ptr<SnapperRuntime> runtime_;
  harness::GeneratorFn generator_;
  uint32_t account_type_ = 0;
  tpcc::TpccTypes types_;
  tpcc::TpccLayout layout_;  // Fig. 18 low skew: 2 warehouses, 10 order parts
};

// ---------------------------------------------------------------------------
// Closed-loop client

struct TxnSample {
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  int64_t submit_call_ns = 0;  ///< time inside Submit{Pact,Act} (traced)
  TxnTimings timings;
  StatusCode code = StatusCode::kOk;
  AbortReason reason = AbortReason::kNone;
  bool pact = true;

  bool committed() const { return code == StatusCode::kOk; }
  double latency_us() const {
    return static_cast<double>(done_ns - submit_ns) / 1000.0;
  }
  double unattributed_us() const {
    return latency_us() - (static_cast<double>(timings.start_us) +
                           timings.exec_us + timings.commit_us);
  }
};

struct LoopResult {
  std::vector<TxnSample> txns;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t client_blocked_ns = 0;
  std::vector<double> probe_wait_us;
  std::vector<Span> probe_spans;
};

/// Completions handed from resolving threads to the client thread.
class CompletionQueue {
 public:
  void Push(size_t slot, int64_t done_ns) {
    snapper::MutexLock lock(&mu_);
    ready_.emplace_back(slot, done_ns);
    // Notify under the lock: once the client sees this entry it may return
    // and destroy the queue, so nothing may touch it after the unlock.
    cv_.NotifyOne();
  }

  /// Blocks until at least one completion is ready and takes them all.
  /// Exits the process loudly if nothing completes for kStallSeconds.
  void TakeAll(std::vector<std::pair<size_t, int64_t>>* out,
               size_t in_flight) {
    snapper::MutexLock lock(&mu_);
    const auto stall_at = std::chrono::steady_clock::now() +
                          std::chrono::seconds(kStallSeconds);
    while (ready_.empty()) {
      if (!cv_.WaitUntil(mu_, stall_at,
                         [this]() REQUIRES(mu_) { return !ready_.empty(); })) {
        std::fprintf(stderr,
                     "snapbench: STALL: %zu submitted transactions did not "
                     "resolve within %d s\n",
                     in_flight, kStallSeconds);
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
    out->swap(ready_);
    ready_.clear();
  }

 private:
  snapper::Mutex mu_;
  snapper::CondVar cv_;
  std::vector<std::pair<size_t, int64_t>> ready_ GUARDED_BY(mu_);
};

/// Executor probes: no-op tasks posted from the client thread; their
/// post-to-run delay is the executor's queue wait.
class Probes {
 public:
  explicit Probes(size_t capacity)
      : post_ns_(capacity), run_ns_(new std::atomic<int64_t>[capacity]) {
    for (size_t i = 0; i < capacity; ++i) run_ns_[i].store(0);
  }

  void Post(Executor& executor) {
    if (posted_ == post_ns_.size()) return;
    const size_t i = posted_++;
    post_ns_[i] = NowNs();
    executor.Post([this, i]() {
      run_ns_[i].store(NowNs());
      ran_.fetch_add(1);
    });
  }

  /// Waits for every posted probe to run, then reports them.
  void Collect(LoopResult* out, SpanStore* spans) {
    while (ran_.load() < posted_) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    uint64_t id = spans->ReserveIds(posted_);
    for (size_t i = 0; i < posted_; ++i) {
      const int64_t run = run_ns_[i].load();
      out->probe_wait_us.push_back(static_cast<double>(run - post_ns_[i]) /
                                   1000.0);
      out->probe_spans.push_back(
          Span{id++, 0, 0, "async.probe", post_ns_[i], run});
    }
  }

 private:
  std::vector<int64_t> post_ns_;
  std::unique_ptr<std::atomic<int64_t>[]> run_ns_;
  size_t posted_ = 0;
  std::atomic<size_t> ran_{0};
};

/// Runs `count` transactions from `generate` with `pipeline` in flight on
/// the calling thread and waits until every one has resolved. With `spans`
/// set it also times Submit calls and posts executor probes.
LoopResult RunClosedLoop(Silo& silo, Rng& rng, uint64_t count,
                         size_t pipeline, SpanStore* spans) {
  SnapperRuntime& rt = silo.rt();
  const harness::GeneratorFn& generate = silo.generator();
  LoopResult out;
  out.txns.resize(count);
  CompletionQueue completions;
  std::optional<Probes> probes;
  if (spans != nullptr) probes.emplace(count / kProbeEvery + 1);

  std::vector<Future<TxnResult>> slot_future(pipeline);
  std::vector<uint64_t> slot_txn(pipeline);
  std::vector<size_t> free_slots;
  for (size_t s = pipeline; s-- > 0;) free_slots.push_back(s);
  std::vector<std::pair<size_t, int64_t>> ready;

  uint64_t next = 0;
  size_t in_flight = 0;
  out.start_ns = NowNs();
  while (next < count || in_flight > 0) {
    while (next < count && !free_slots.empty()) {
      const size_t slot = free_slots.back();
      free_slots.pop_back();
      harness::TxnRequest request = generate(rng);
      TxnSample& sample = out.txns[next];
      sample.pact = request.mode == TxnMode::kPact;
      sample.submit_ns = NowNs();
      Future<TxnResult> f =
          sample.pact
              ? rt.SubmitPact(request.root, std::move(request.method),
                              std::move(request.input),
                              std::move(request.info))
              : rt.SubmitAct(request.root, std::move(request.method),
                             std::move(request.input));
      if (spans != nullptr) {
        sample.submit_call_ns = NowNs() - sample.submit_ns;
        if (next % kProbeEvery == 0) probes->Post(rt.runtime().executor());
      }
      slot_future[slot] = f;
      slot_txn[slot] = next;
      ++next;
      ++in_flight;
      f.OnReady([&completions, slot]() { completions.Push(slot, NowNs()); });
    }
    const int64_t wait_start = NowNs();
    completions.TakeAll(&ready, in_flight);
    out.client_blocked_ns += NowNs() - wait_start;
    for (const auto& [slot, done_ns] : ready) {
      TxnSample& sample = out.txns[slot_txn[slot]];
      const TxnResult result = slot_future[slot].Get();
      sample.done_ns = done_ns;
      sample.timings = result.timings;
      sample.code = result.status.code();
      sample.reason = result.status.abort_reason();
      slot_future[slot] = Future<TxnResult>();
      free_slots.push_back(slot);
      --in_flight;
    }
  }
  out.end_ns = NowNs();
  if (probes) probes->Collect(&out, spans);
  return out;
}

// ---------------------------------------------------------------------------
// Common-layer cost on payloads shaped like the workload's logged state

/// A Value shaped like the workload's logged actor state whose encoding is
/// at least `bytes` long: SmallBank account maps, or a TPC-C stock map.
Value StateShapedPayload(Kind kind, double bytes) {
  if (kind == Kind::kSmallBank) {
    ValueList accounts;
    Value v(ValueList{});
    while (static_cast<double>(v.Encode().size()) < bytes) {
      accounts.push_back(Value(
          ValueMap{{"checking", Value(snapper::smallbank::kInitialChecking)},
                   {"savings", Value(snapper::smallbank::kInitialSavings)}}));
      v = Value(accounts);
    }
    return v;
  }
  ValueMap stock;
  uint64_t item = 7;
  Value v(ValueMap{{"stock", Value(stock)}});
  while (static_cast<double>(v.Encode().size()) < bytes) {
    for (int i = 0; i < 16; ++i) {
      item = (item * 2654435761u + 12345) % 100000;
      stock[std::to_string(item)] = Value(tpcc::InitialStockQuantity(item));
    }
    v = Value(ValueMap{{"stock", Value(stock)}});
  }
  return v;
}

struct CommonCost {
  double crc32c_ns_per_kib = 0;
  double codec_ns_per_kib = 0;
};

/// Keeps the measured results observable so the loops are not elided.
volatile uint64_t g_common_sink = 0;

/// Median over 5 trials of crc32c::Value and Value::Encode+Decode cost.
CommonCost MeasureCommon(Kind kind, double mean_record_bytes) {
  const Value payload = StateShapedPayload(kind, mean_record_bytes);
  const std::string encoded = payload.Encode();
  const double kib = static_cast<double>(encoded.size()) / 1024.0;
  // About 2 MiB of CRC input and 256 KiB of codec input per trial.
  const int crc_iters = std::max(1, static_cast<int>(2048 / kib));
  const int codec_iters = std::max(1, crc_iters / 8);
  std::vector<double> crc, codec;
  uint64_t sink = 0;
  for (int trial = 0; trial < 5; ++trial) {
    int64_t t0 = NowNs();
    for (int i = 0; i < crc_iters; ++i) {
      sink += snapper::crc32c::Value(encoded);
    }
    int64_t t1 = NowNs();
    crc.push_back(static_cast<double>(t1 - t0) / crc_iters / kib);
    t0 = NowNs();
    for (int i = 0; i < codec_iters; ++i) {
      sink += Value::Decode(payload.Encode()).size();
    }
    t1 = NowNs();
    codec.push_back(static_cast<double>(t1 - t0) / codec_iters / kib);
  }
  g_common_sink = sink;
  return CommonCost{Median(crc), Median(codec)};
}

// ---------------------------------------------------------------------------
// One repetition

struct Rep {
  bool traced = false;
  bool correct = true;
  std::string check_error;
  double setup_s = 0;
  double wall_s = 0;
  double check_s = 0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t committed_pacts = 0;
  uint64_t errors = 0;  ///< resolved with an error, not a CC abort
  std::map<AbortReason, uint64_t> aborts;
  std::vector<double> latency_us;  ///< committed only
  int64_t cpu_user_us = 0;
  int64_t cpu_sys_us = 0;
  int64_t ctx_switches = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_syncs = 0;
  uint64_t token_passes = 0;
  uint64_t batch_msgs = 0;
  uint64_t act_prepares = 0;
  uint64_t activations = 0;
  uint64_t max_mailbox_depth = 0;
  int64_t peak_rss_kb = 0;  ///< this repetition's peak, silo still alive
  HostCpu host_before;
  HostCpu host_after;
  // Traced repetitions only.
  std::vector<double> start_us, exec_us, commit_us, submit_us, unattributed_us;
  std::vector<double> probe_wait_us, sync_us;
  int64_t client_blocked_ns = 0;
  int64_t worker_sync_ns = 0;
  uint64_t timing_mismatches = 0;
  CommonCost common;

  double tps() const { return committed / std::max(wall_s, 1e-9); }
};

/// One repetition. A traced repetition with a non-empty `span_path`
/// appends its spans there; span and transaction ids are offset by the
/// repetition index so they stay unique within a file.
Rep RunRep(const WorkloadSpec& spec, uint64_t seed, bool traced,
           uint64_t rep_index, const std::string& span_path) {
  Rep rep;
  rep.traced = traced;
  const uint64_t id_base = rep_index << 32;
  std::optional<SpanStore> store;
  if (traced) store.emplace(id_base + 1);
  SpanStore* spans = traced ? &*store : nullptr;
  const int64_t setup_start = NowNs();
  Silo silo(spec, seed, spans);
  SnapperRuntime& rt = silo.rt();
  if (silo.timing_env() != nullptr) silo.timing_env()->TakeSyncUs();

  auto& counters = rt.context().counters;
  auto& wal = rt.log_manager();
  const uint64_t bytes0 = wal.TotalBytes(), records0 = wal.TotalRecords(),
                 syncs0 = wal.TotalSyncs();
  const uint64_t tokens0 = counters.token_passes.load(),
                 batch0 = counters.batch_msgs.load(),
                 prepares0 = counters.act_prepares.load();
  const uint64_t activations0 = rt.runtime().num_activations();
  const int64_t worker_sync0 =
      silo.timing_env() ? silo.timing_env()->worker_sync_ns() : 0;
  rep.host_before = ReadHostCpu();
  const ProcUsage usage0 = ReadProcUsage();

  Rng rng(seed);
  rep.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  LoopResult loop =
      RunClosedLoop(silo, rng, spec.window_txns, spec.pipeline, spans);

  const ProcUsage usage1 = ReadProcUsage();
  rep.host_after = ReadHostCpu();
  rep.wall_s = static_cast<double>(loop.end_ns - loop.start_ns) / 1e9;
  rep.cpu_user_us = usage1.user_us - usage0.user_us;
  rep.cpu_sys_us = usage1.sys_us - usage0.sys_us;
  rep.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;
  rep.wal_bytes = wal.TotalBytes() - bytes0;
  rep.wal_records = wal.TotalRecords() - records0;
  rep.wal_syncs = wal.TotalSyncs() - syncs0;
  rep.token_passes = counters.token_passes.load() - tokens0;
  rep.batch_msgs = counters.batch_msgs.load() - batch0;
  rep.act_prepares = counters.act_prepares.load() - prepares0;
  rep.activations = rt.runtime().num_activations() - activations0;
  rep.max_mailbox_depth = rt.runtime().MaxMailboxDepth();
  rep.peak_rss_kb = PeakRssKb();

  rep.attempted = loop.txns.size();
  uint64_t txn_id = id_base;
  std::vector<Span> txn_spans;
  uint64_t next_span_id = 0;
  if (spans != nullptr) {
    next_span_id = spans->ReserveIds(loop.txns.size() * 4);
    txn_spans.reserve(loop.txns.size() * 4);
  }
  for (const TxnSample& t : loop.txns) {
    ++txn_id;
    if (t.committed()) {
      ++rep.committed;
      rep.committed_pacts += t.pact;
      rep.latency_us.push_back(t.latency_us());
    } else if (t.code == StatusCode::kTxnAborted) {
      ++rep.aborts[t.reason];
    } else {
      ++rep.errors;
    }
    if (spans == nullptr) continue;
    std::vector<Span> s =
        TxnSpans(txn_id, t.submit_ns, t.done_ns, t.timings, &next_span_id);
    txn_spans.insert(txn_spans.end(), s.begin(), s.end());
    if (!t.committed()) continue;
    rep.start_us.push_back(t.timings.start_us);
    rep.exec_us.push_back(t.timings.exec_us);
    rep.commit_us.push_back(t.timings.commit_us);
    rep.submit_us.push_back(static_cast<double>(t.submit_call_ns) / 1000.0);
    const double unattributed = t.unattributed_us();
    const double self_us =
        static_cast<double>(SelfTimeNs(s[0], {s[1], s[2], s[3]})) / 1000.0;
    // The layout guarantees self time == latency - (start+exec+commit)
    // whenever that difference is non-negative; anything else is a bug in
    // the timings or the layout.
    if (unattributed < 0 || std::abs(self_us - unattributed) > 1e-3) {
      ++rep.timing_mismatches;
    }
    rep.unattributed_us.push_back(unattributed);
  }

  if (spans != nullptr) {
    spans->Append(txn_spans);
    spans->Append(loop.probe_spans);
    rep.probe_wait_us = std::move(loop.probe_wait_us);
    rep.client_blocked_ns = loop.client_blocked_ns;
    rep.sync_us = silo.timing_env()->TakeSyncUs();
    rep.worker_sync_ns = silo.timing_env()->worker_sync_ns() - worker_sync0;
    const double mean_record =
        rep.wal_records ? static_cast<double>(rep.wal_bytes) / rep.wal_records
                        : 64.0;
    rep.common = MeasureCommon(spec.kind, mean_record);
  }

  // Output checks: untimed, after the window.
  const int64_t check_start = NowNs();
  Status check = silo.Check(rep.committed);
  rep.check_s = static_cast<double>(NowNs() - check_start) / 1e9;
  if (!check.ok()) {
    rep.correct = false;
    rep.check_error = check.ToString();
  }
  if (rep.timing_mismatches > 0) {
    rep.correct = false;
    rep.check_error = std::to_string(rep.timing_mismatches) +
                      " traced transactions with inconsistent timings";
  }
  if (spans != nullptr && !span_path.empty() &&
      !spans->AppendCsv(span_path)) {
    rep.correct = false;
    rep.check_error = "cannot write " + span_path;
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Repetitions in child processes

/// Applies `f` to every field of `r`, in one fixed order for both directions
/// of the pipe encoding.
template <typename F>
void VisitRep(Rep& r, F& f) {
  f(r.traced), f(r.correct), f(r.check_error), f(r.setup_s), f(r.wall_s);
  f(r.check_s), f(r.attempted), f(r.committed), f(r.committed_pacts);
  f(r.errors), f(r.aborts), f(r.latency_us), f(r.cpu_user_us);
  f(r.cpu_sys_us), f(r.ctx_switches), f(r.wal_bytes), f(r.wal_records);
  f(r.wal_syncs), f(r.token_passes), f(r.batch_msgs), f(r.act_prepares);
  f(r.activations), f(r.max_mailbox_depth), f(r.peak_rss_kb);
  f(r.host_before.total), f(r.host_before.steal), f(r.host_after.total);
  f(r.host_after.steal), f(r.start_us), f(r.exec_us), f(r.commit_us);
  f(r.submit_us), f(r.unattributed_us), f(r.probe_wait_us), f(r.sync_us);
  f(r.client_blocked_ns), f(r.worker_sync_ns), f(r.timing_mismatches);
  f(r.common.crc32c_ns_per_kib), f(r.common.codec_ns_per_kib);
}

struct RepWriter {
  std::string out;
  template <typename T>
    requires std::is_arithmetic_v<T>
  void operator()(const T& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void operator()(const std::string& v) {
    (*this)(uint64_t{v.size()});
    out += v;
  }
  void operator()(const std::vector<double>& v) {
    (*this)(uint64_t{v.size()});
    out.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(double));
  }
  void operator()(const std::map<AbortReason, uint64_t>& v) {
    (*this)(uint64_t{v.size()});
    for (const auto& [reason, n] : v) {
      (*this)(static_cast<int32_t>(reason));
      (*this)(n);
    }
  }
};

struct RepReader {
  std::string_view in;
  bool ok = true;

  void Take(void* dst, size_t n) {
    if (!ok || in.size() < n) {
      ok = false;
      return;
    }
    std::memcpy(dst, in.data(), n);
    in.remove_prefix(n);
  }
  uint64_t Count(size_t element_size) {
    uint64_t n = 0;
    Take(&n, sizeof n);
    if (n > in.size() / element_size) ok = false;
    return ok ? n : 0;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void operator()(T& v) {
    Take(&v, sizeof v);
  }
  void operator()(std::string& v) {
    v.resize(Count(1));
    Take(v.data(), v.size());
  }
  void operator()(std::vector<double>& v) {
    v.resize(Count(sizeof(double)));
    Take(v.data(), v.size() * sizeof(double));
  }
  void operator()(std::map<AbortReason, uint64_t>& v) {
    const uint64_t n = Count(sizeof(int32_t) + sizeof(uint64_t));
    for (uint64_t i = 0; i < n; ++i) {
      int32_t reason = 0;
      uint64_t count = 0;
      (*this)(reason);
      (*this)(count);
      v[static_cast<AbortReason>(reason)] = count;
    }
  }
};

/// Runs one repetition in a forked child, so every repetition starts from
/// the same process state (a fresh heap and peak-RSS mark, no threads left
/// by an earlier silo), and reads its measurements back over a pipe. The
/// parent never creates a runtime, so it is single-threaded at each fork.
/// Returns nullopt if the child failed; a stalled child exits non-zero.
std::optional<Rep> RunRepInChild(const WorkloadSpec& spec, uint64_t seed,
                                 bool traced, uint64_t rep_index,
                                 const std::string& span_path) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    Rep rep = RunRep(spec, seed, traced, rep_index, span_path);
    RepWriter writer;
    VisitRep(rep, writer);
    std::string_view left = writer.out;
    while (!left.empty()) {
      const ssize_t n = write(fds[1], left.data(), left.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(4);
      left.remove_prefix(static_cast<size_t>(n));
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "snapbench: repetition %" PRIu64
                         " failed (wait status %d)\n",
                 rep_index, status);
    return std::nullopt;
  }
  Rep rep;
  RepReader reader{bytes};
  VisitRep(rep, reader);
  if (!reader.ok || !reader.in.empty()) return std::nullopt;
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

template <typename F>
double MedianOf(const std::vector<const Rep*>& reps, F f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(f(*r));
  return Median(v);
}

/// Host steal over the measured windows of `reps`, as a share of all CPU.
double WindowStealPct(const std::vector<const Rep*>& reps) {
  HostCpu before, after;
  for (const Rep* r : reps) {
    before.total += r->host_before.total;
    before.steal += r->host_before.steal;
    after.total += r->host_after.total;
    after.steal += r->host_after.steal;
  }
  return StealPct(before, after);
}

double PerCommit(double total, uint64_t committed) {
  return committed == 0 ? 0 : total / static_cast<double>(committed);
}

std::vector<Metric> EndToEnd(const std::vector<const Rep*>& reps) {
  std::vector<Metric> m;
  m.push_back({"throughput_tps", MedianOf(reps, [](const Rep& r) {
                 return r.tps();
               }), "1/s"});
  m.push_back({"p50_ms", MedianOf(reps, [](const Rep& r) {
                 return Median(r.latency_us) / 1000.0;
               }), "ms"});
  m.push_back({"cpu_us_per_commit", MedianOf(reps, [](const Rep& r) {
                 return PerCommit(static_cast<double>(r.cpu_user_us +
                                                      r.cpu_sys_us),
                                  r.committed);
               }), "us"});
  m.push_back({"commit_pct", MedianOf(reps, [](const Rep& r) {
                 return 100.0 * static_cast<double>(r.committed) /
                        static_cast<double>(r.attempted);
               }), "%"});
  m.push_back({"wal_bytes_per_commit", MedianOf(reps, [](const Rep& r) {
                 return PerCommit(static_cast<double>(r.wal_bytes),
                                  r.committed);
               }), "B"});
  m.push_back({"peak_rss_mb", MedianOf(reps, [](const Rep& r) {
                 return static_cast<double>(r.peak_rss_kb) / 1024.0;
               }), "MB"});
  m.push_back({"setup_s", MedianOf(reps, [](const Rep& r) {
                 return r.setup_s;
               }), "s"});
  return m;
}

std::vector<Metric> PerLayer(const std::vector<const Rep*>& traced,
                             const std::vector<const Rep*>& untraced) {
  uint64_t attempted = 0, committed = 0, pacts = 0, tokens = 0, batch = 0,
           prepares = 0, records = 0, syncs = 0, activations = 0,
           max_depth = 0, errors = 0;
  int64_t user = 0, sys = 0, ctx = 0, blocked = 0, worker_sync = 0;
  double wall = 0;
  std::map<AbortReason, uint64_t> aborts;
  for (const Rep* r : traced) {
    attempted += r->attempted;
    committed += r->committed;
    pacts += r->committed_pacts;
    tokens += r->token_passes;
    batch += r->batch_msgs;
    prepares += r->act_prepares;
    records += r->wal_records;
    syncs += r->wal_syncs;
    activations += r->activations;
    max_depth = std::max(max_depth, r->max_mailbox_depth);
    user += r->cpu_user_us;
    sys += r->cpu_sys_us;
    ctx += r->ctx_switches;
    blocked += r->client_blocked_ns;
    worker_sync += r->worker_sync_ns;
    wall += r->wall_s;
    for (const auto& [reason, n] : r->aborts) aborts[reason] += n;
    errors += r->errors;
  }
  const double nproc = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const double att = std::max<double>(1, static_cast<double>(attempted));
  auto pct = [&](uint64_t n) { return 100.0 * static_cast<double>(n) / att; };
  auto per_commit = [&](double v) { return PerCommit(v, committed); };
  auto pooled = [&](std::vector<double> Rep::*field) {
    std::vector<double> v;
    for (const Rep* r : traced) {
      v.insert(v.end(), (r->*field).begin(), (r->*field).end());
    }
    return v;
  };
  const std::vector<double> latency = pooled(&Rep::latency_us);

  std::vector<Metric> m;
  m.push_back({"harness.submit_us.p50", Median(pooled(&Rep::submit_us)), "us"});
  m.push_back({"harness.client_busy_share",
               1.0 - static_cast<double>(blocked) / 1e9 / std::max(wall, 1e-9),
               "ratio"});
  m.push_back({"harness.unattributed_us.p50",
               Median(pooled(&Rep::unattributed_us)), "us"});
  m.push_back({"harness.latency_p99_ms", Quantile(latency, 0.99) / 1000.0,
               "ms"});
  m.push_back({"harness.latency_p999_ms", Quantile(latency, 0.999) / 1000.0,
               "ms"});
  m.push_back({"harness.samples", static_cast<double>(latency.size()),
               "count"});
  m.push_back({"snapper.start_us.p50", Median(pooled(&Rep::start_us)), "us"});
  m.push_back({"snapper.start_us.p99", Quantile(pooled(&Rep::start_us), 0.99),
               "us"});
  m.push_back({"snapper.exec_us.p50", Median(pooled(&Rep::exec_us)), "us"});
  m.push_back({"snapper.exec_us.p99", Quantile(pooled(&Rep::exec_us), 0.99),
               "us"});
  m.push_back({"snapper.commit_us.p50", Median(pooled(&Rep::commit_us)),
               "us"});
  m.push_back({"snapper.commit_us.p99",
               Quantile(pooled(&Rep::commit_us), 0.99), "us"});
  m.push_back({"snapper.token_passes_per_commit",
               per_commit(static_cast<double>(tokens)), "count"});
  m.push_back({"snapper.subbatches_per_pact",
               PerCommit(static_cast<double>(batch), pacts), "count"});
  m.push_back({"snapper.act_prepares_per_commit",
               per_commit(static_cast<double>(prepares)), "count"});
  uint64_t reported = 0;
  for (AbortReason reason : kReportedAborts) {
    reported += aborts[reason];
    m.push_back({std::string("snapper.abort_pct.") +
                     snapper::AbortReasonName(reason),
                 pct(aborts[reason]), "%"});
  }
  uint64_t all_aborts = 0;
  for (const auto& [reason, n] : aborts) all_aborts += n;
  m.push_back({"snapper.abort_pct.other",
               pct(all_aborts - reported + errors), "%"});
  m.push_back({"wal.records_per_commit",
               per_commit(static_cast<double>(records)), "count"});
  m.push_back({"wal.syncs_per_commit", per_commit(static_cast<double>(syncs)),
               "count"});
  m.push_back({"wal.records_per_sync",
               syncs ? static_cast<double>(records) / syncs : 0.0, "count"});
  m.push_back({"wal.sync_us.p50", Median(pooled(&Rep::sync_us)), "us"});
  m.push_back({"wal.sync_block_share",
               static_cast<double>(worker_sync) / 1e9 /
                   (kWorkers * std::max(wall, 1e-9)),
               "ratio"});
  m.push_back({"async.queue_wait_us.p50", Median(pooled(&Rep::probe_wait_us)),
               "us"});
  m.push_back({"async.queue_wait_us.p99",
               Quantile(pooled(&Rep::probe_wait_us), 0.99), "us"});
  m.push_back({"actor.activations", static_cast<double>(activations),
               "count"});
  m.push_back({"actor.max_mailbox_depth", static_cast<double>(max_depth),
               "count"});
  m.push_back({"common.crc32c_ns_per_kib", MedianOf(traced, [](const Rep& r) {
                 return r.common.crc32c_ns_per_kib;
               }), "ns/KiB"});
  m.push_back({"common.value_codec_ns_per_kib",
               MedianOf(traced, [](const Rep& r) {
                 return r.common.codec_ns_per_kib;
               }), "ns/KiB"});
  m.push_back({"proc.user_cpu_us_per_commit",
               per_commit(static_cast<double>(user)), "us"});
  m.push_back({"proc.sys_cpu_us_per_commit",
               per_commit(static_cast<double>(sys)), "us"});
  m.push_back({"proc.ctx_switches_per_commit",
               per_commit(static_cast<double>(ctx)), "count"});
  m.push_back({"proc.cpu_util",
               static_cast<double>(user + sys) / 1e6 /
                   (std::max(wall, 1e-9) * nproc),
               "ratio"});
  m.push_back({"host.steal_pct", WindowStealPct(traced), "%"});
  const double tps_untraced =
      MedianOf(untraced, [](const Rep& r) { return r.tps(); });
  const double tps_traced =
      MedianOf(traced, [](const Rep& r) { return r.tps(); });
  m.push_back({"trace.overhead_pct",
               tps_untraced > 0
                   ? 100.0 * (tps_untraced - tps_traced) / tps_untraced
                   : 0.0,
               "%"});
  return m;
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string span_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || args->seconds <= 0) return false;
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
      if (args->trace != 0 && args->trace != 1) return false;
    } else if (key == "--span-dir") {
      args->span_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && argc % 2 == 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: snapbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "snapbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const std::string span_path = args.span_dir + "/spans-" + spec->name +
                                "-seed" + std::to_string(args.seed) + ".csv";
  if (args.trace == 1 && !SpanStore::StartCsv(span_path)) {
    std::fprintf(stderr, "snapbench: cannot write %s\n", span_path.c_str());
    return 1;
  }

  // Untraced and traced repetitions alternate under --trace 1; at least
  // three untraced (and two traced) repetitions feed the medians.
  std::vector<Rep> reps;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  auto count = [&](bool traced) {
    return std::count_if(reps.begin(), reps.end(),
                         [traced](const Rep& r) { return r.traced == traced; });
  };
  while (NowNs() < deadline || count(false) < 3 ||
         (args.trace == 1 && count(true) < 2)) {
    const bool traced = args.trace == 1 && count(false) > count(true);
    // Only the first traced repetition writes spans, which bounds the file
    // to one repetition's worth (a few MB) however long the run is.
    std::optional<Rep> rep = RunRepInChild(
        *spec, args.seed, traced, reps.size() + 1,
        traced && count(true) == 0 ? span_path : std::string());
    if (!rep) return 1;
    reps.push_back(std::move(*rep));
    const Rep& r = reps.back();
    std::printf("rep %zu%s: tps=%.1f p50_ms=%.3f cpu_us=%.1f setup_s=%.3f "
                "wall_s=%.3f check_s=%.3f rss_mb=%.1f steal_pct=%.2f "
                "commit_pct=%.2f%s%s\n",
                reps.size(), r.traced ? " (traced)" : "", r.tps(),
                Median(r.latency_us) / 1000.0,
                PerCommit(static_cast<double>(r.cpu_user_us + r.cpu_sys_us),
                          r.committed),
                r.setup_s, r.wall_s, r.check_s, r.peak_rss_kb / 1024.0,
                StealPct(r.host_before, r.host_after),
                100.0 * r.committed / std::max<uint64_t>(1, r.attempted),
                r.correct ? "" : " CHECK FAILED: ", r.check_error.c_str());
    std::fflush(stdout);
  }

  std::vector<const Rep*> all, untraced, traced;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    all.push_back(&r);
    (r.traced ? traced : untraced).push_back(&r);
    correct = correct && r.correct;
  }
  for (const Rep* r : args.trace == 1 ? traced : untraced) {
    attempted += r->attempted;
    failed += r->errors;
  }
  std::printf("# host.steal_pct %.4f\n", WindowStealPct(all));

  std::vector<Metric> metrics;
  if (args.trace == 1) {
    metrics = PerLayer(traced, untraced);
    std::printf("# spans -> %s\n", span_path.c_str());
  } else {
    metrics = EndToEnd(untraced);
  }
  std::printf("%s\n", FormatResult(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace snapbench

int main(int argc, char** argv) { return snapbench::Main(argc, argv); }
