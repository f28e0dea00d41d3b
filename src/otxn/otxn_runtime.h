// OrleansTxn-style baseline: the comparator the paper benchmarks Snapper's
// ACT mode against (§5.2.2-§5.2.3). It reproduces the protocol stack of
// Orleans Transactions as the paper characterizes it:
//   * a TransactionAgent (TA) — an in-memory singleton — assigns tids and
//     acts as the 2PC coordinator, so even the first accessed actor pays a
//     Prepare message (Fig. 15's I8 discussion);
//   * per-actor 2PL with lock-wait *timeouts* for deadlocks (no wait-die);
//   * early lock release: locks drop when Prepare arrives, *before* the
//     commit decision is durable; readers of dirty data acquire commit
//     dependencies, and an aborting writer cascades into its dependents;
//   * participants persist Prepare (with state) and Commit records, the TA
//     persists CoordPrepare/CoordCommit — same logger substrate as Snapper.
//
// Workload code written against Snapper's TransactionalActor API runs
// unchanged on OtxnActor (same method registry, GetState, CallActor).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/admission.h"
#include "common/mutex.h"

#include "actor/actor.h"
#include "async/task.h"
#include "common/value.h"
#include "snapper/lock_table.h"
#include "snapper/txn_types.h"
#include "wal/logger.h"

namespace snapper::otxn {

struct OtxnConfig {
  size_t num_workers = 4;
  size_t num_loggers = 4;
  bool enable_logging = true;
  /// WAL segment roll size (0 = one growing file, no truncation); see
  /// SnapperConfig::wal_segment_bytes.
  size_t wal_segment_bytes = 0;
  /// Per-actor asynchronous checkpoint threshold (0 = off); see
  /// SnapperConfig::checkpoint_threshold_bytes.
  size_t checkpoint_threshold_bytes = 0;
  /// Lock-wait timeout: the baseline's deadlock mechanism (§5.2.2). Short
  /// enough that a deadlock costs one stall, not a whole bench epoch.
  std::chrono::milliseconds lock_wait_timeout{150};
  /// Admission control (0 = unlimited): in-flight transaction budget.
  /// Submits past the budget are shed with a typed kOverloaded status —
  /// the same gate SnapperRuntime applies, for baseline fairness.
  size_t max_inflight_txns = 0;
  /// Bounded actor mailboxes (0 = unbounded); see SnapperConfig.
  size_t mailbox_capacity = 0;
};

/// The TA: tid assignment plus the commit-status table that early lock
/// release depends on.
class TransactionAgent {
 public:
  uint64_t Begin();

  /// Resolves OK once `tid` committed, or TxnAborted(kEarlyLockRelease) if
  /// it aborted — used by dependents before their own commit.
  Future<Status> WaitDecided(uint64_t tid);

  void NotifyCommitted(uint64_t tid);
  void NotifyAborted(uint64_t tid);

  uint64_t num_started() const;

 private:
  mutable Mutex mu_;
  uint64_t next_tid_ GUARDED_BY(mu_) = 1;
  enum class State { kCommitted, kAborted };
  std::unordered_map<uint64_t, State> decided_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::vector<Promise<Status>>> waiters_
      GUARDED_BY(mu_);
};

class OtxnRuntime;

/// Base class for user actors under the OrleansTxn baseline. API mirrors
/// snapper::TransactionalActor so workload templates instantiate over both.
class OtxnActor : public ActorBase {
 public:
  using Method = std::function<Task<Value>(TxnContext&, Value)>;

  Task<Value*> GetState(TxnContext& ctx, AccessMode mode);
  Task<Value> CallActor(TxnContext& ctx, const ActorId& target, FuncCall call);
  Future<Value> CallActorAsync(TxnContext& ctx, const ActorId& target,
                               FuncCall call);

  Task<Value> InvokeTxn(TxnContext ctx, FuncCall call);

  /// 2PC participant surface, driven by the TA.
  Task<bool> Prepare(uint64_t tid);
  Task<void> Commit(uint64_t tid);
  Task<void> Abort(uint64_t tid);

  void OnActivate() override;

  /// Fail-stop kill: fails every lock waiter parked on this zombie.
  void OnKill() override;

  /// Requested by the CheckpointManager when this actor's durable lag
  /// crosses the threshold: at a quiescent turn boundary (no dirty writes,
  /// no undecided transactions) appends a kCheckpoint record carrying
  /// state_, bounding the prepare suffix Reactivate must replay. Reports a
  /// skip otherwise.
  Task<bool> MaybeCheckpoint();

  /// Replay divergence detection (DESIGN.md §4g): stable hash of state_,
  /// taken at turn boundaries while a trace session is active.
  uint64_t StateDigest() const override {
    const std::string bytes = state_.Encode();
    return trace::HashBytes(bytes.data(), bytes.size(),
                            /*seed=*/bytes.size() + 1);
  }

 protected:
  void RegisterMethod(std::string name, Method method) {
    methods_[std::move(name)] = std::move(method);
  }
  virtual Value InitialState() const { return Value(); }

 private:
  friend class OtxnRuntime;
  OtxnRuntime& ortx() const;

  /// Rebuilds durable state after a fail-stop kill: drains the logger FIFO
  /// (so in-flight prepare appends from the previous activation are on
  /// disk), reads this actor's checkpoint cut from its own logger's stream
  /// (wal/checkpoint.h), keeps the last prepared image after the checkpoint
  /// that the TA decided committed (early lock release makes prepare order
  /// == write order), decodes just that image, then starts serving.
  Task<void> Reactivate();

  Value state_;
  /// Fresh activation after a kill, durable state not reinstalled yet:
  /// reject all work (serving InitialState would fork history).
  bool recovering_ = false;
  // No wait-die: conflicting requests queue; timeouts break deadlocks.
  ActorLock lock_{/*wait_die=*/false};
  std::map<std::string, Method> methods_;

  /// Early-lock-release dirty-write stack: uncommitted writers in write
  /// order. An abort of entry i rolls back to its before-image and discards
  /// all later (dependent) entries.
  struct DirtyWrite {
    uint64_t tid;
    Value before_image;
  };
  std::vector<DirtyWrite> write_stack_;
  std::set<uint64_t> wrote_;  ///< tids that wrote this actor (for Prepare).

  /// Same hazards as Snapper's ACT participants: a late invocation of an
  /// already-aborted tid must not re-acquire locks, and an abort racing a
  /// still-running invocation must defer its rollback.
  struct TxnLocal {
    int active = 0;
    bool abort_pending = false;
  };
  std::map<uint64_t, TxnLocal> txn_local_;
  std::set<uint64_t> aborted_txns_;
  std::deque<uint64_t> aborted_txns_fifo_;
  static constexpr size_t kMaxTombstones = 1 << 16;
  void Tombstone(uint64_t tid);
  bool IsTombstoned(uint64_t tid) const {
    return aborted_txns_.count(tid) > 0;
  }
  void DoAbortLocal(uint64_t tid);
};

/// Facade: owns the actor runtime, loggers, and the TA.
class OtxnRuntime {
 public:
  explicit OtxnRuntime(OtxnConfig config, Env* env = nullptr);
  ~OtxnRuntime();

  OtxnRuntime(const OtxnRuntime&) = delete;
  OtxnRuntime& operator=(const OtxnRuntime&) = delete;

  uint32_t RegisterActorType(
      std::string name,
      std::function<std::shared_ptr<OtxnActor>(uint64_t key)> factory);

  /// Submits a transaction; the TA assigns the tid and coordinates 2PC.
  /// Sheds with a typed kOverloaded result when the admission budget
  /// (config.max_inflight_txns) is exhausted.
  Future<TxnResult> Submit(const ActorId& first, std::string method,
                           Value input);

  TxnResult Run(const ActorId& first, const std::string& method, Value input) {
    return Submit(first, std::move(method), std::move(input)).Get();
  }

  ActorRuntime& runtime() { return *runtime_; }
  TransactionAgent& agent() { return agent_; }
  LogManager& log_manager() { return *log_manager_; }
  const OtxnConfig& config() const { return config_; }
  MessageCounters& counters() { return counters_; }
  Env& env() { return *env_; }
  /// Admission counters for the harness metrics JSON.
  const AdmissionController& admission() const { return admission_; }
  /// High-watermark of the TA strand's queue — the baseline's central
  /// bottleneck, bounded by admission under overload.
  size_t max_ta_queue_depth() const { return ta_strand_->MaxQueueDepth(); }

  /// Fail-stop kill. The TA (in-memory) survives and remains the commit
  /// authority; the next dispatch activates a fresh instance that rebuilds
  /// its state from the WAL + TA decisions (OtxnActor::Reactivate).
  void KillActor(const ActorId& id);
  bool IsActorKilled(const ActorId& id) const;
  bool ClearKillMark(const ActorId& id,
                     std::chrono::steady_clock::time_point* killed_at);

  /// Copies CheckpointManager counters into counters() (one coherent
  /// snapshot for harness metrics); cheap, call before reading them.
  void SyncWalCounters();

  void Shutdown();

 private:
  friend class OtxnActor;
  Task<TxnResult> RunTxn(ActorId first, FuncCall call);

  OtxnConfig config_;
  std::unique_ptr<Env> owned_env_;
  Env* env_;
  std::unique_ptr<ActorRuntime> runtime_;
  std::unique_ptr<LogManager> log_manager_;
  AdmissionController admission_;
  /// Pre-resolved kOverloaded future returned (by copy) on admission shed —
  /// the reject path must stay allocation-free under saturating load.
  Future<TxnResult> shed_future_;
  TransactionAgent agent_;
  MessageCounters counters_;
  std::shared_ptr<Strand> ta_strand_;
  mutable Mutex kill_mu_;
  std::map<ActorId, std::chrono::steady_clock::time_point> kill_marks_
      GUARDED_BY(kill_mu_);
};

}  // namespace snapper::otxn
