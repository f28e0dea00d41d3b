#include "harness/smallbank_stack.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "snapper/snapper_runtime.h"
#include "workloads/smallbank.h"

namespace snapper::harness {
namespace {

/// An acked abort whose reason implies the transaction never entered the
/// durable commit path — invisible after recovery, no matter when the crash
/// hit. kActorFailed belongs here: the failed access keeps its batch from
/// completing / its 2PC from preparing. Everything else (kCascading,
/// kSystemFailure, plain IOError from the degraded-WAL fast path or a failed
/// log write) races the crash: the decision that produced the ack may or may
/// not match what recovery derives from the surviving log prefix.
bool IsDeterministicAbort(const Status& status) {
  if (!status.IsTxnAborted()) return false;
  switch (status.abort_reason()) {
    case AbortReason::kUserAbort:
    case AbortReason::kActActConflict:
    case AbortReason::kPactActDeadlock:
    case AbortReason::kIncompleteAfterSet:
    case AbortReason::kSerializabilityCheck:
    case AbortReason::kActorFailed:
      return true;
    default:
      return false;
  }
}

class SnapperStack : public SmallBankStack {
 public:
  SnapperStack(const SnapperConfig& config, Env* env, FaultInjectionEnv* device)
      : config_(config), env_(env), device_(device) {
    Open();
    rt_->Start();
  }

  bool has_pact() const override { return true; }

  Future<TxnResult> Submit(TxnRequest r) override {
    if (r.mode == TxnMode::kAct) {
      return rt_->SubmitAct(r.root, std::move(r.method), std::move(r.input));
    }
    return rt_->SubmitPact(r.root, std::move(r.method), std::move(r.input),
                           std::move(r.info));
  }

  Future<Unit> Kill(uint64_t account) override {
    return rt_->KillActor(ActorId{type_, account});
  }

  Result<double> Balance(uint64_t account) override {
    // NT reads bypass admission and never log, so an audit cannot be shed.
    TxnResult r =
        rt_->RunNt(ActorId{type_, account}, "Balance", Value(ValueMap{}));
    if (!r.ok()) return r.status;
    return r.value.AsDouble();
  }

  bool InDoubt(const Status& acked) const override {
    return !acked.ok() && !IsDeterministicAbort(acked);
  }

  std::string Rebuild(int /*num_accounts*/, size_t tear_bytes) override {
    rt_.reset();  // silo dies: loggers close, in-memory state vanishes
    if (device_ != nullptr) {
      Status crashed = device_->Crash(tear_bytes);
      device_->ClearFaults();  // device replaced
      if (!crashed.ok()) return "Crash(): " + crashed.ToString();
    }
    Open();
    auto recovery = rt_->Recover();
    if (!recovery.ok()) return "Recover(): " + recovery.status().ToString();
    rt_->Start();
    return "";  // the fresh runtime's counters count from zero
  }

  MessageCounters& Counters() override {
    rt_->SyncWalCounters();
    return rt_->context().counters;
  }
  ActorRuntime& runtime() override { return rt_->runtime(); }
  LogManager& log_manager() override { return rt_->log_manager(); }
  const AdmissionController& admission() const override {
    return rt_->admission();
  }

 private:
  void Open() {
    rt_ = std::make_unique<SnapperRuntime>(config_, env_);
    type_ = smallbank::RegisterSmallBank(*rt_);
  }

  const SnapperConfig config_;
  Env* const env_;
  FaultInjectionEnv* const device_;
  std::unique_ptr<SnapperRuntime> rt_;
};

class OtxnStack : public SmallBankStack {
 public:
  OtxnStack(const otxn::OtxnConfig& config, Env* env)
      : rt_(std::make_unique<otxn::OtxnRuntime>(config, env)) {
    type_ = rt_->RegisterActorType("SmallBankAccount", [](uint64_t) {
      return std::make_shared<smallbank::SmallBankLogic<otxn::OtxnActor>>();
    });
  }

  bool has_pact() const override { return false; }

  Future<TxnResult> Submit(TxnRequest r) override {
    return rt_->Submit(r.root, std::move(r.method), std::move(r.input));
  }

  Future<Unit> Kill(uint64_t account) override {
    // SNAPPER-ANALYZE-ALLOW(discarded-task): OtxnRuntime::KillActor is void.
    rt_->KillActor(ActorId{type_, account});
    return {};
  }

  Result<double> Balance(uint64_t account) override {
    TxnResult r;
    for (int attempt = 0; attempt < 500; ++attempt) {
      r = rt_->Run(ActorId{type_, account}, "Balance", Value(ValueMap{}));
      if (r.ok()) return r.value.AsDouble();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return r.status;
  }

  bool InDoubt(const Status&) const override { return false; }

  std::string Rebuild(int num_accounts, size_t /*tear_bytes*/) override {
    const MessageCounters& c = Counters();
    rebuild_records_ = c.recovery_replay_records.load();
    rebuild_us_ = c.recovery_time_us.load();
    // Also clears any residue of dropped Commit/Abort messages (stale
    // dirty-write stacks, stuck locks).
    for (int a = 0; a < num_accounts; ++a) {
      // SNAPPER-ANALYZE-ALLOW(discarded-task): an otxn kill has no future.
      Kill(a);
    }
    return "";
  }

  MessageCounters& Counters() override {
    rt_->SyncWalCounters();
    return rt_->counters();
  }
  ActorRuntime& runtime() override { return rt_->runtime(); }
  LogManager& log_manager() override { return rt_->log_manager(); }
  const AdmissionController& admission() const override {
    return rt_->admission();
  }
  size_t max_ta_queue_depth() const override {
    return rt_->max_ta_queue_depth();
  }

 private:
  std::unique_ptr<otxn::OtxnRuntime> rt_;
};

}  // namespace

TxnRequest SmallBankStack::Transfer(uint64_t from, uint64_t to, double amount,
                                    bool act) const {
  TxnRequest request;
  request.root = ActorId{type_, from};
  request.method = "MultiTransfer";
  request.input = smallbank::MultiTransferInput(amount, {to});
  request.mode = act ? TxnMode::kAct : TxnMode::kPact;
  if (!act) {
    request.info = smallbank::MultiTransferAccessInfo(type_, from, {to});
  }
  return request;
}

std::unique_ptr<SmallBankStack> MakeSnapperStack(const SnapperConfig& config,
                                                 Env* env,
                                                 FaultInjectionEnv* device) {
  return std::make_unique<SnapperStack>(config, env, device);
}

std::unique_ptr<SmallBankStack> MakeOtxnStack(const otxn::OtxnConfig& config,
                                              Env* env) {
  return std::make_unique<OtxnStack>(config, env);
}

double AuditBalances(SmallBankStack& stack, int num_accounts,
                     std::vector<double>* balances,
                     std::ostringstream& violations) {
  violations.precision(15);  // balances are ~2e7-scale; show unit deltas
  double total = 0;
  if (balances != nullptr) balances->assign(num_accounts, 0);
  for (int a = 0; a < num_accounts; ++a) {
    Result<double> balance = stack.Balance(a);
    if (!balance.ok()) {
      violations << "Balance(" << a << ") failed: "
                 << balance.status().ToString() << "; ";
      continue;
    }
    if (balances != nullptr) (*balances)[a] = balance.value();
    total += balance.value();
  }
  const double expected = kPerAccount * num_accounts;
  if (std::abs(total - expected) > kEps) {
    violations << "conservation: total " << total << " != expected "
               << expected << "; ";
  }
  return total;
}

void LeakHungStack(std::unique_ptr<SmallBankStack> stack,
                   std::unique_ptr<trace::TraceSession> session) {
  if (session != nullptr) session->Detach();
  (void)session.release();
  (void)stack.release();
}

}  // namespace snapper::harness
