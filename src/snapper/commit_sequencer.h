// CommitSequencer: enforces the paper's bid-ordered batch commitment
// (§4.2.4). Instead of a dependency graph between batches, Snapper tracks
// the logical chain "every batch depends on the previously emitted batch"
// and commits strictly in emission (== bid) order. This object is the
// shared, thread-safe embodiment of that chain plus the committed/aborted
// bookkeeping the hybrid path queries:
//   * ACT commit-waits block until the batch max(BS) commits (§4.4.4);
//   * the serializability check's incomplete-AfterSet optimization needs
//     "is max(BS) committed?" (§4.4.3);
//   * the global abort marks every undecided batch aborted (§4.2.4) and
//     names each one's forming coordinator, on whose logger the abort
//     round records the durable BatchAbort.
//
// Batch lifecycle: emitted -> (commit-eligible cb fired) committing ->
// committed, or emitted -> aborted. Inside `committing`, ReleaseSuccessor
// marks the point where the batch's BatchCommit record is queued on the
// commit logger: from there its successor may commit too, and its record
// queues behind this one. Per-logger FIFO durability then makes a durable
// BatchCommit imply that every predecessor's is durable, so the chain
// commits in order without one sync per batch, and several batches can be
// committing at once. A batch leaves `committing` at MarkCommitted, once its
// own record is durable. A committing batch is never aborted: BeginAbort
// lets every one finish and reports a drain future instead — this keeps the
// durable commit decision and the in-memory abort decision consistent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "async/future.h"
#include "common/mutex.h"
#include "common/status.h"
#include "snapper/txn_types.h"

namespace snapper {

class CommitSequencer {
 public:
  /// Coordinator `coordinator` formed batch `bid`; `prev_bid` is the batch
  /// emitted immediately before it system-wide (kNoBid for the chain head /
  /// after an epoch reset).
  void RegisterEmitted(uint64_t bid, uint64_t prev_bid, uint64_t coordinator);

  /// All BatchComplete acks arrived for `bid`; `cb` fires (possibly inline,
  /// on an arbitrary thread) with OK once the predecessor is released (see
  /// ReleaseSuccessor) — at which point `bid` enters the protected
  /// `committing` stage — or with an abort status if a global abort claims
  /// it first. On OK the caller queues BatchCommit on the commit logger,
  /// calls ReleaseSuccessor, and calls MarkCommitted once the record is
  /// durable.
  void RequestCommit(uint64_t bid, std::function<void(Status)> cb);

  /// Committing batch `bid`'s BatchCommit record is queued on the commit
  /// logger: releases the successor's pending commit request, so the
  /// successor's record queues behind this one. `bid` stays committing
  /// until MarkCommitted. Idempotent.
  void ReleaseSuccessor(uint64_t bid);

  /// Batch `bid` is durably committed: advances the watermark, resolves any
  /// WaitCommitted futures it covers and releases the successor if
  /// ReleaseSuccessor has not. May run out of bid order: the watermark is a
  /// max, and FIFO durability on the commit logger makes every bid below a
  /// durable one durable too.
  void MarkCommitted(uint64_t bid);

  struct AbortOutcome {
    /// bid -> index of the coordinator that formed it, for every batch this
    /// abort decided.
    std::map<uint64_t, uint64_t> aborted;
    /// Resolves once every batch that was in `committing` when the abort
    /// began has finished committing. Actors may only be rolled back after
    /// this drains (so IsCommitted answers are stable).
    Future<Unit> committing_drained;
  };

  /// Global abort: every emitted-but-undecided batch becomes aborted;
  /// pending commit requests and their waiters resolve with `status` — this
  /// includes waiters on unregistered (orphan) bids, which no later round
  /// could ever decide; batches already committing are spared (see
  /// AbortOutcome). The chain resets (the next RegisterEmitted uses kNoBid).
  AbortOutcome BeginAbort(const Status& status);

  bool IsCommitted(uint64_t bid) const;
  bool IsAborted(uint64_t bid) const;

  /// Resolves OK once `bid` commits, or with TxnAborted(kCascading) if it
  /// aborts.
  Future<Status> WaitCommitted(uint64_t bid);

  /// Largest committed bid, or kNoBid if none yet.
  uint64_t LastCommittedBid() const;

  uint64_t num_committed_batches() const;
  uint64_t num_aborted_batches() const;

 private:
  bool IsCommittedLocked(uint64_t bid) const REQUIRES(mu_);
  bool IsReleasedLocked(uint64_t bid) const REQUIRES(mu_);
  /// Raises `released_` to `bid` and hands back the successor's pending
  /// callback, if any, now in `committing`.
  std::function<void(Status)> ReleaseSuccessorLocked(uint64_t bid)
      REQUIRES(mu_);

  mutable Mutex mu_;
  /// Max committed bid; records become durable in bid order, so bid <=
  /// watermark_ && !aborted means committed.
  uint64_t watermark_ GUARDED_BY(mu_) = kNoBid;
  /// Max released bid (its BatchCommit record is queued, or it committed);
  /// releases happen in chain order, so bid <= released_ && !aborted means
  /// released.
  uint64_t released_ GUARDED_BY(mu_) = kNoBid;
  uint64_t num_committed_ GUARDED_BY(mu_) = 0;
  std::unordered_set<uint64_t> aborted_ GUARDED_BY(mu_);
  struct Emitted {
    uint64_t prev_bid;
    uint64_t coordinator;
  };
  /// bid -> chain predecessor and forming coordinator, for emitted,
  /// undecided batches.
  std::unordered_map<uint64_t, Emitted> emitted_ GUARDED_BY(mu_);
  /// Batches whose commit callback fired but MarkCommitted hasn't run: their
  /// BatchCommit record is not durable yet.
  std::unordered_set<uint64_t> committing_ GUARDED_BY(mu_);
  /// Pending commit requests: bid -> callback.
  std::unordered_map<uint64_t, std::function<void(Status)>> pending_
      GUARDED_BY(mu_);
  /// WaitCommitted futures keyed by bid (ordered: resolved up to watermark).
  std::map<uint64_t, std::vector<Promise<Status>>> waiters_ GUARDED_BY(mu_);
  /// Set while an abort waits for `committing_` to drain.
  std::vector<Promise<Unit>> drain_waiters_ GUARDED_BY(mu_);
};

}  // namespace snapper
