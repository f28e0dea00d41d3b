// SnapperRuntime: the library facade. Owns the actor runtime, the shared
// loggers, the coordinator ring, the commit sequencer and the global-abort
// controller; exposes the client API of paper Table 1 (StartTxn in PACT /
// ACT / NT flavours) plus recovery.
//
// Typical use:
//   SnapperRuntime rt(config);                     // or rt(config, &my_env)
//   auto type = rt.RegisterActorType("Account", ...factory...);
//   rt.Start();
//   auto f = rt.SubmitPact({type, 42}, "Transfer", input, accessInfo);
//   TxnResult r = f.Get();
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "actor/actor.h"
#include "common/admission.h"
#include "snapper/config.h"
#include "snapper/recovery.h"
#include "snapper/snapper_context.h"
#include "snapper/transactional_actor.h"
#include "wal/env.h"

namespace snapper {

class SnapperRuntime {
 public:
  /// `env` is the WAL storage backend; nullptr selects an internal MemEnv
  /// (still exercising the full logging path; see EXPERIMENTS.md).
  explicit SnapperRuntime(SnapperConfig config, Env* env = nullptr);
  ~SnapperRuntime();

  SnapperRuntime(const SnapperRuntime&) = delete;
  SnapperRuntime& operator=(const SnapperRuntime&) = delete;

  /// Registers a user-defined transactional actor type. Must be called
  /// before Start().
  uint32_t RegisterActorType(
      std::string name,
      std::function<std::shared_ptr<TransactionalActor>(uint64_t key)>
          factory);

  /// Replays the WAL in `env` and stages recovered actor states; actors
  /// pick them up on (re-)activation. Call before Start() when reopening
  /// after a crash.
  Result<RecoveryResult> Recover();

  /// Spawns the coordinator ring and starts the token.
  void Start();

  /// Submits a PACT (deterministic execution; `info` pre-declares the actor
  /// accesses, paper §3.1). Fails fast with IOError while the WAL device is
  /// degraded (see LogManager::health()), and with kOverloaded when
  /// admission control (config.max_inflight_pacts) sheds the submission.
  Future<TxnResult> SubmitPact(const ActorId& first, std::string method,
                               Value input, ActorAccessInfo info);

  /// Submits an ACT (S2PL + 2PC). Fails fast with IOError while the WAL
  /// device is degraded, and with kOverloaded when admission control sheds
  /// it — ACTs shed before PACTs under combined saturation (graceful
  /// degradation; see AdmissionController).
  Future<TxnResult> SubmitAct(const ActorId& first, std::string method,
                              Value input);

  /// Non-transactional execution (the NT upper bound of Fig. 12). Never
  /// logs, so it keeps working while the WAL device is out.
  Future<TxnResult> SubmitNt(const ActorId& first, std::string method,
                             Value input);

  /// Aggregate WAL device health (degraded after a failed flush, recovered
  /// after the next successful one).
  const WalHealth& wal_health() const { return log_manager_->health(); }

  /// Blocking conveniences for tests and examples.
  TxnResult RunPact(const ActorId& first, const std::string& method,
                    Value input, ActorAccessInfo info) {
    return SubmitPact(first, method, std::move(input), std::move(info)).Get();
  }
  TxnResult RunAct(const ActorId& first, const std::string& method,
                   Value input) {
    return SubmitAct(first, method, std::move(input)).Get();
  }
  TxnResult RunNt(const ActorId& first, const std::string& method,
                  Value input) {
    return SubmitNt(first, method, std::move(input)).Get();
  }

  /// Fail-stop kills one transactional actor and transparently reactivates
  /// it (paper §2: virtual actors re-activate on demand after failure):
  ///   1. mark the actor killed (its fresh activation serves nothing yet),
  ///   2. evict the activation (ActorRuntime::KillActor),
  ///   3. tell every coordinator to abort in-flight batches with the dead
  ///      participant (durable BatchAbort),
  ///   4. run a global abort round, after which every transaction that
  ///      touched the dead activation has a stable durable verdict,
  ///   5. re-read the actor's last committed state from the WAL and install
  ///      it into the fresh activation.
  /// The future resolves when the fresh activation is serving again.
  Future<Unit> KillActor(const ActorId& id);

  /// Simulates a silo crash: all in-memory actor state vanishes (the WAL
  /// survives in `env`). Quiesce first; then Recover() + fresh activations
  /// resume from committed state.
  void CrashActors() { runtime_->CrashAllActors(); }

  SnapperContext& context() { return context_; }
  ActorRuntime& runtime() { return *runtime_; }
  LogManager& log_manager() { return *log_manager_; }
  /// Admission counters (admitted / shed / in-flight high-watermarks) for
  /// the harness metrics JSON.
  const AdmissionController& admission() const { return admission_; }
  Env& env() { return *env_; }
  const SnapperConfig& config() const { return context_.config; }

  /// Copies the CheckpointManager's counters (checkpoints taken, current
  /// lag, truncated segments/bytes) into context().counters so harness
  /// metrics see one coherent snapshot. Cheap; call before reading counters.
  void SyncWalCounters();

  /// Test hook: runs one checkpoint-then-deactivate sweep over the coldest
  /// actors, as the admission shed path does when degraded.
  void ShedColdActorsForTest() { MaybeShedColdActors(); }

  /// Drains workers and timers. Called by the destructor.
  void Shutdown();

 private:
  /// Graceful degradation under overload: checkpoint-then-deactivate up to
  /// a handful of the coldest actors (oldest durable activity), freeing
  /// their memory while their next activation resumes from the staged
  /// checkpoint without any WAL replay. One sweep in flight at a time;
  /// no-op unless checkpointing is enabled.
  void MaybeShedColdActors();
  Future<TxnResult> FailFastDegraded();
  /// A future pre-resolved with `status` — the typed fail-fast path shared
  /// by WAL-degraded and admission-shed submissions.
  static Future<TxnResult> FailFastStatus(Status status);
  /// Takes an admission token for `cls` and returns the gated submission, or
  /// sheds with a pre-resolved kOverloaded future. The token is released
  /// when the client-visible future resolves.
  Future<TxnResult> WithAdmission(AdmissionController::TxnClass cls,
                                  std::function<Future<TxnResult>()> submit);
  bool WalDegraded() const;
  /// Step 5 of KillActor: runs after the abort round; rescans the WAL and
  /// installs the actor's recovered state into the fresh activation.
  void ReactivateFromWal(const ActorId& id, uint64_t generation,
                         std::shared_ptr<Promise<Unit>> done);

  std::unique_ptr<Env> owned_env_;
  Env* env_;
  std::unique_ptr<ActorRuntime> runtime_;
  std::unique_ptr<LogManager> log_manager_;
  AdmissionController admission_;
  /// Pre-resolved kOverloaded futures returned (by copy) on admission shed.
  /// The reject path runs at full offered load precisely when the system is
  /// saturated, so it must not allocate; per-cause detail (e.g. degraded
  /// ACT shedding) lives in the admission stats, not the result status.
  Future<TxnResult> shed_pact_future_;
  Future<TxnResult> shed_act_future_;
  SnapperContext context_;
  uint64_t tid_base_ = 1;
  bool started_ = false;
  std::atomic<bool> cold_shed_inflight_{false};
};

}  // namespace snapper
