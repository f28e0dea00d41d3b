// Coordinator actors (paper §4.1.1, §4.2): assign tids, order PACTs into
// batches via the token ring, emit sub-batches, and drive the bid-ordered
// batch commit protocol.
//
// The token (§4.2.1) circulates around the logical ring of coordinators and
// carries everything they share: the tid allocation cursor, the bid of the
// last emitted batch (the logical-dependency chain of §4.2.4), and the
// per-actor prev_bid map that links each actor's sub-batches (§4.2.2). A
// coordinator accumulates PACT requests between token visits; on receipt it
// forms one batch, updates the token, and passes it on immediately — batch
// logging and emission proceed concurrently with the token's onward journey.
//
// ACT tid assignment (§4.3.1): each token visit refills a local pool of
// pre-allocated contiguous tids so ACT requests are answered without waiting
// for the token.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "actor/actor.h"
#include "async/task.h"
#include "snapper/snapper_context.h"
#include "snapper/txn_types.h"

namespace snapper {

/// The shared state circulated through the coordinator ring.
struct Token {
  /// Global-abort epoch this token's chain state belongs to; reset on bump.
  uint64_t epoch = 0;
  /// Next unassigned transaction id (tids are globally monotone).
  uint64_t next_tid = 1;
  /// bid of the last batch emitted system-wide (kNoBid at chain start).
  uint64_t last_emitted_bid = kNoBid;
  /// Per-actor bid of the last batch emitted to that actor; entries are
  /// removed once the batch commits (keeps the token small).
  std::map<ActorId, uint64_t> prev_bids;
};

class CoordinatorActor : public ActorBase {
 public:
  explicit CoordinatorActor(uint64_t index) : index_(index) {}

  /// Every coordinator writes its BatchCommit records to
  /// `LoggerForCoordinator(kCommitLogger)`, the commit logger, in chain
  /// order (see CommitSequencer::ReleaseSuccessor).
  static constexpr uint64_t kCommitLogger = 0;

  /// Registers a PACT (root actor + actorAccessInfo); the returned context
  /// is resolved once the PACT is placed into a batch and the batch's
  /// BatchInfo record is durable.
  Task<TxnContext> NewPact(ActorId root, ActorAccessInfo info);

  /// Assigns an ACT tid from the pre-allocated pool (immediately when the
  /// pool is non-empty, §4.3.1).
  Task<TxnContext> NewAct(ActorId root);

  /// Token arrival: forms at most one batch from accumulated PACTs, refills
  /// the ACT tid pool, and passes the token onward.
  Task<void> ReceiveToken(Token token);

  /// BatchComplete ack from a participant (the "vote" of §4.2.4).
  Task<void> AckBatchComplete(uint64_t bid, ActorId from);

  /// Fail-stop notification: deterministically aborts every in-flight batch
  /// that names `actor` as a participant (durable BatchAbort; the global
  /// schedule never hangs on a dead actor).
  Task<void> OnActorFailed(ActorId actor);

  uint64_t num_batches_formed() const { return num_batches_formed_; }
  uint64_t num_pacts_assigned() const { return num_pacts_assigned_; }
  uint64_t num_acts_assigned() const { return num_acts_assigned_; }

 private:
  struct PendingPact {
    ActorId root;
    ActorAccessInfo info;
    Promise<TxnContext> ctx_promise;
  };

  struct PendingAct {
    ActorId root;
    Promise<TxnContext> ctx_promise;
  };

  struct BatchState {
    uint64_t bid = 0;
    uint64_t epoch = 0;
    /// Predecessor in the token's emission chain (kNoBid = chain head);
    /// logged in BatchInfo so recovery can honour chain-order commit.
    uint64_t prev_bid = kNoBid;
    std::vector<ActorId> participants;
    std::set<ActorId> pending_acks;
    /// Sub-batches not yet emitted (awaiting the BatchInfo log write).
    std::map<ActorId, BatchMsg> sub_batches;
    std::vector<Promise<TxnContext>> ctx_promises;
    std::vector<TxnContext> ctxs;
    /// Set once all acks arrived and the sequencer was asked to commit;
    /// from then on the batch is off-limits to the abort watchdog (a
    /// BatchAbort record must never follow a possible BatchCommit).
    bool commit_requested = false;
  };

  SnapperContext& sctx() const {
    return *static_cast<SnapperContext*>(runtime().app_context());
  }

  /// Builds a batch from queued PACTs, updating `token`. Returns the bid.
  uint64_t FormBatch(Token& token);

  /// Logs BatchInfo then emits sub-batches and resolves contexts.
  Task<void> LogAndEmitBatch(uint64_t bid);

  /// Commit path once the sequencer releases this batch in bid order:
  /// queues BatchCommit on the commit logger, releases the successor, and
  /// marks the batch committed once its record is durable.
  Task<void> CommitBatch(uint64_t bid);

  /// Deterministic abort of a batch that cannot commit (dead participant,
  /// liveness deadline): logs BatchAbort, resolves still-pending contexts,
  /// and triggers the global abort round. No-op once commit was requested.
  void AbortStuckBatch(uint64_t bid, const Status& cause);

  /// Arms the per-batch liveness watchdog (config.batch_deadline).
  void ArmBatchDeadline(uint64_t bid);

  void ServeActRequests(uint64_t epoch);
  void PassToken(Token token, bool formed_batch);

  // Defined in coordinator.cc (needs TransactionalActor's definition; kept
  // out of this header to avoid a circular include).
  void EmitBatchMsgTo(const ActorId& actor, const BatchMsg& msg);
  void EmitBatchCommitTo(const ActorId& actor, uint64_t bid);

  const uint64_t index_;
  std::deque<PendingPact> pending_pacts_;
  std::deque<PendingAct> pending_acts_;
  /// Pre-allocated ACT tid range [act_pool_next_, act_pool_end_).
  uint64_t act_pool_next_ = 0;
  uint64_t act_pool_end_ = 0;
  uint64_t act_pool_epoch_ = 0;
  std::map<uint64_t, BatchState> batches_;
  /// prev_bids entries to delete from the token on its next visit
  /// (actor, bid) — recorded when the batch commits (§4.2.2).
  std::vector<std::pair<ActorId, uint64_t>> prev_bid_removals_;

  uint64_t num_batches_formed_ = 0;
  uint64_t num_pacts_assigned_ = 0;
  uint64_t num_acts_assigned_ = 0;
  /// Epoch-based batching gate (config.min_batch_interval).
  std::chrono::steady_clock::time_point last_batch_time_{};

  /// How many ACT tids to keep pre-allocated per token visit.
  static constexpr uint64_t kActPoolTarget = 128;
};

}  // namespace snapper
