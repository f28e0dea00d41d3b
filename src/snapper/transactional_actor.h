// TransactionalActor: the base class of every user-defined actor in Snapper
// (paper §3.1). It implements, per actor:
//   * the transactional API visible to user methods — GetState / CallActor
//     (paper Table 1, Fig. 2);
//   * deterministic PACT scheduling against the LocalSchedule (§4.2.3),
//     including speculative sub-batch execution, the BatchComplete /
//     BatchCommit protocol (§4.2.4), and snapshot-based rollback;
//   * nondeterministic ACT execution: S2PL with wait-die at the actor lock
//     (§4.3.2), before-image rollback, 2PC participant and root-coordinator
//     roles with presumed abort (§4.3.3);
//   * hybrid scheduling (§4.4.1), the PACT-ACT deadlock rule (Fig. 9; see
//     SharedTxnInfo) with the timeout breaker (§4.4.2) as its backstop, and
//     the BeforeSet/AfterSet serializability check (§4.4.3, Theorem 4.2)
//     with the incomplete-AfterSet optimization;
//   * the actor-local part of the global cascading abort (§4.2.4).
//
// Actor state is a `Value` blob (the paper also treats each actor's state as
// a value blob, §5.4.2). Subclasses register named methods in their
// constructor and manipulate the state through GetState.
//
// `state_` is the only decoded copy of that blob. Every saved version — a
// PACT sub-batch snapshot, the committed state, an ACT before-image — is
// held as its encoded image: the exact bytes its WAL record carries, encoded
// once per written actor and promoted by move. Images are decoded only to
// roll `state_` back (global abort, ACT abort) and to stage a state for a
// later activation (CheckpointAndDeactivate).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "actor/actor.h"
#include "async/task.h"
#include "common/value.h"
#include "snapper/local_schedule.h"
#include "snapper/lock_table.h"
#include "snapper/snapper_context.h"
#include "snapper/txn_types.h"
#include "wal/log_format.h"

namespace snapper {

class TransactionalActor : public ActorBase {
 public:
  /// A transactional method: receives the context and the call input,
  /// returns the call result. Must access state only via GetState and call
  /// other actors only via CallActor.
  using Method = std::function<Task<Value>(TxnContext&, Value)>;

  // --- API for user-defined methods (paper Table 1) -----------------------

  /// Returns a pointer to this actor's state. kRead access must not mutate;
  /// kReadWrite marks the transaction as a writer here (deciding WAL
  /// snapshot content and ACT lock mode). May suspend: ACTs block on the
  /// actor lock (aborting on wait-die, the PACT-ACT deadlock rule, or the
  /// deadlock timeout).
  Task<Value*> GetState(TxnContext& ctx, AccessMode mode);

  /// Invokes `call` on `target` within the transaction. The callee executes
  /// under the same tid/mode; results and execution info flow back here.
  Task<Value> CallActor(TxnContext& ctx, const ActorId& target, FuncCall call);

  /// Fire-and-await-later variant of CallActor for fan-out: the call starts
  /// immediately; await the returned future when the result is needed. Used
  /// by multi-actor transactions that touch actors in parallel (e.g.
  /// SmallBank's MultiTransfer, §5.1.1).
  Future<Value> CallActorAsync(TxnContext& ctx, const ActorId& target,
                               FuncCall call);

  // --- Client entry point (used via SnapperRuntime::Submit*) ---------------

  /// Runs a transaction rooted at this actor. `info` is required for kPact
  /// and ignored otherwise. Resolves after commit/abort (paper §3.2.1).
  Task<TxnResult> StartTxn(TxnMode mode, FuncCall call, ActorAccessInfo info);

  // --- Coordinator- and peer-facing protocol surface ----------------------

  Task<Value> InvokeTxn(TxnContext ctx, FuncCall call);
  Task<void> ReceiveBatch(BatchMsg msg);
  Task<void> ReceiveBatchCommit(uint64_t bid);
  Task<bool> ActPrepare(uint64_t tid);
  Task<void> ActCommit(uint64_t tid, uint64_t final_max_bs);
  Task<void> ActAbort(uint64_t tid);

  /// Actor-local phase of the global cascading abort: fails every gate and
  /// waiter, quiesces in-flight work, promotes committed-but-unapplied
  /// snapshots, and rolls the state back to the committed image.
  Task<void> AbortUncommitted(Status status);

  // --- Lifecycle / recovery -------------------------------------------------

  void OnActivate() override;

  /// Fail-stop kill (ActorRuntime::KillActor): fails every waiter parked on
  /// this zombie activation so nothing blocks on it forever.
  void OnKill() override;

  /// Completes a kill/reactivate cycle (SnapperRuntime::KillActor step 5):
  /// installs the WAL-recovered state image into this fresh activation and
  /// starts serving. `generation` guards against a newer kill superseding a
  /// reactivation still in flight.
  Task<void> FinishReactivation(std::optional<std::string> image,
                                uint64_t generation);

  // --- Asynchronous checkpointing (wal/checkpoint.h) -----------------------

  /// Requested by the CheckpointManager once this actor's durable lag
  /// crosses the threshold. If the actor is at a quiescent turn boundary
  /// (no active invocations, no undecided speculative state), durably
  /// appends a kCheckpoint record carrying committed_image_ and returns
  /// true; otherwise reports a skip and returns false — the next durable
  /// state record re-triggers the request. Never blocks other turns: the
  /// append is awaited off-strand like any other WAL write.
  Task<bool> MaybeCheckpoint();

  /// Graceful-degradation step for cold actors under overload: persists a
  /// checkpoint, stages it as this actor's recovered state, and deactivates
  /// the actor (without a kill mark, so the next call transparently
  /// re-activates from the staged state with no WAL replay). Returns false
  /// — leaving the actor untouched — unless fully quiescent before and
  /// after the checkpoint append.
  Task<bool> CheckpointAndDeactivate();

  // --- Introspection (tests, benches) --------------------------------------

  /// Replay divergence detection (DESIGN.md §4g): a stable hash of the
  /// current and committed state images, taken at turn boundaries on this
  /// actor's strand while a trace session is active.
  uint64_t StateDigest() const override {
    const std::string cur = state_.Encode();
    return trace::HashBytes(
        committed_image_.data(), committed_image_.size(),
        trace::HashBytes(cur.data(), cur.size(), /*seed=*/cur.size() + 1));
  }

  const Value& state_for_test() const { return state_; }
  /// The committed image, decoded.
  Value committed_state_for_test() const;

 protected:
  /// Subclass constructors register their methods with this.
  void RegisterMethod(std::string name, Method method) {
    methods_[std::move(name)] = std::move(method);
  }

  /// Initial state of a fresh actor (before any recovery), e.g. an account's
  /// opening balance. Called on activation.
  virtual Value InitialState() const { return Value(); }

  SnapperContext& sctx() const {
    return *static_cast<SnapperContext*>(runtime().app_context());
  }

 private:
  struct PactSnapshot {
    uint64_t seq = 0;
    /// State image at sub-batch completion — the kBatchComplete payload.
    /// Empty when the sub-batch only read this actor.
    std::string image;
  };

  struct ActLocal {
    /// State image before the ACT's first write here; empty while the ACT
    /// has only read this actor.
    std::string before_image;
    /// State image logged by this actor's kActPrepare ("" = none logged);
    /// the commit promotes it instead of re-encoding state_.
    std::string prepared_image;
    /// Invocations of this tid currently executing on this actor. An abort
    /// arriving while > 0 is deferred until they unwind, so a still-running
    /// method never mutates state that was already rolled back.
    int active = 0;
    bool abort_pending = false;
  };

  Task<TxnResult> StartPact(FuncCall call, ActorAccessInfo info);
  Task<TxnResult> StartAct(FuncCall call);
  Task<TxnResult> StartNt(FuncCall call);

  Task<Value> InvokePact(TxnContext ctx, const Method& method, Value input);
  Task<Value> InvokeAct(TxnContext ctx, const Method& method, Value input);

  /// Synchronous part of sub-batch completion: snapshots state, then kicks
  /// off the async log + ack (BatchComplete, §4.2.4).
  void OnSubBatchComplete(uint64_t bid);
  Task<void> LogAndAckSubBatch(uint64_t bid);

  /// Root-side ACT commit: serializability check, commit-wait, then 2PC.
  Task<Status> CommitActAsRoot(uint64_t tid, const TxnExeInfo& info);
  Task<void> AbortActAsRoot(uint64_t tid, const TxnExeInfo& info);

  /// Participant-side bookkeeping shared by local (root) and remote paths.
  Task<bool> PrepareActLocal(uint64_t tid);
  void CommitActLocal(uint64_t tid, uint64_t final_max_bs);
  void AbortActLocal(uint64_t tid);
  void DoAbortActLocal(uint64_t tid);
  void OnActInvocationExit(uint64_t tid);

  Future<Status> WaitBatchOutcome(uint64_t bid);
  void NotifyQuiesce();
  bool QuiescedForAbort() const;
  /// Abort round, once no invocation runs here: aborts locally every ACT
  /// with bookkeeping or the lock here that is not prepared here.
  void AbortUnpreparedActs();
  /// True at a turn boundary where state_ matches committed_image_ and no
  /// in-flight transaction holds undecided state here: safe to checkpoint.
  bool QuiescentForCheckpoint() const;
  /// Builds this actor's kCheckpoint record from committed_image_.
  LogRecord MakeCheckpointRecord() const;

  /// Installs a logged state image: decoded once into state_, then kept as
  /// committed_image_ without re-encoding.
  void InstallImage(std::string image);

  /// Maps an arbitrary in-flight exception to the abort status presented to
  /// clients and the abort machinery.
  static Status StatusFromException(std::exception_ptr e);

  Value state_;
  /// Encoding of the committed state (what a checkpoint record carries).
  std::string committed_image_;
  /// Schedule-seq of the newest promotion applied to committed_image_;
  /// guards against out-of-order commit-message arrival.
  uint64_t last_committed_seq_ = 0;

  LocalSchedule schedule_;
  ActorLock lock_;
  std::map<std::string, Method> methods_;

  std::map<uint64_t, PactSnapshot> pact_snapshots_;  // bid -> snapshot
  std::map<uint64_t, uint64_t> batch_owner_;         // bid -> coordinator

  std::map<uint64_t, ActLocal> act_local_;  // tid -> local ACT bookkeeping
  std::set<uint64_t> prepared_acts_;
  /// Tombstones of ACTs already aborted on this actor: a late invocation of
  /// such a tid (messages are unordered) must be rejected, or it would
  /// re-register the dead transaction and leak its lock/schedule slot.
  /// Bounded FIFO (kMaxActTombstones).
  std::set<uint64_t> aborted_acts_;
  std::deque<uint64_t> aborted_acts_fifo_;
  static constexpr size_t kMaxActTombstones = 1 << 16;
  void TombstoneAct(uint64_t tid);
  bool IsTombstonedAct(uint64_t tid) const {
    return aborted_acts_.count(tid) > 0;
  }
  /// max(BS) of ACTs committed on this actor (§4.4.3: the Tj -> Ti carry).
  uint64_t act_bs_watermark_ = kNoBid;

  /// Re-resolves an ACT whose 2PC outcome message never arrived from the
  /// runtime's decision table, every config.act_resolution_deadline: a
  /// prepared one from its prepare on, an unprepared one from when a
  /// non-root participant first takes its lock.
  void ArmActWatchdog(uint64_t tid, bool prepared, int attempt);
  void ResolveStuckPreparedAct(uint64_t tid, int attempt);
  void ResolveStuckUnpreparedAct(uint64_t tid, int attempt);
  static constexpr int kMaxPreparedActChecks = 8;

  int active_invocations_ = 0;
  bool aborting_ = false;
  /// Fresh activation after a fail-stop kill, durable state not yet
  /// reinstalled: reject all work (serving InitialState would fork history).
  bool recovering_ = false;
  std::vector<Promise<Unit>> quiesce_waiters_;
};

}  // namespace snapper
