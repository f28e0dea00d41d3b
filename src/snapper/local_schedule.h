// LocalSchedule: the per-actor hybrid execution schedule (paper §4.2.3 and
// §4.4.1, Fig. 8).
//
// The schedule is an ordered list of nodes:
//   * Batch nodes — this actor's sub-batches, linked by prev_bid into a
//     chain. Out-of-order arrivals are parked until their predecessor
//     appears (the "vacancy" of Fig. 4b). Inside a node, PACTs execute in
//     tid order; a PACT completes on this actor after its declared number of
//     accesses.
//   * ACT-set nodes — ACTs dynamically appended at the tail; members of one
//     set run concurrently (arbitrated by the actor lock).
//
// Node readiness encodes the paper's two hybrid rules (§4.4.1):
//   (1) an ACT may start when the previous batch has *completed* (not
//       necessarily committed);
//   (2) a batch may start when all previous ACTs have committed or aborted.
// Both fall out of one definition: a node is eligible when every earlier
// node is "done", where done(batch) = completed (speculative pipelining,
// §4.2.3) and done(ACT set) = all members finished (committed/aborted).
//
// ACT-set members carry their ACT's SharedTxnInfo, which the schedule feeds
// with the two observations of the hybrid deadlock rule (Fig. 9): the
// closest batch ahead of a registering ACT, and a batch appended right
// behind an ACT set's unfinished members. An observation that dooms an ACT
// ends its pending gates and lock waits on every actor (SharedTxnInfo).
//
// Thread-model: all methods run on the owning actor's strand; no internal
// locking.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "async/future.h"
#include "common/status.h"
#include "snapper/txn_types.h"

namespace snapper {

class LocalSchedule {
 public:
  /// Outcome of CompletePactAccess.
  struct AccessOutcome {
    bool txn_completed = false;    ///< the PACT finished its accesses here
    bool batch_completed = false;  ///< the whole sub-batch finished here
  };

  // --- Batch (PACT) side -------------------------------------------------

  /// Registers an arriving sub-batch. Appends to the chain if `prev_bid`
  /// matches the tail, otherwise parks it until connectable. Returns the
  /// number of ACTs the append doomed (SharedTxnInfo::ObserveBatchAfter).
  size_t AddBatch(BatchMsg msg);

  /// Gate for one PACT method invocation: resolves OK when (bid, tid) is at
  /// the front of the deterministic order, with InvalidArgument if the
  /// invocation over- or mis-declares, or with an abort status if the batch
  /// is aborted while waiting.
  Future<Status> WaitPactTurn(uint64_t bid, uint64_t tid);

  /// Records the completion of one invocation of (bid, tid).
  AccessOutcome CompletePactAccess(uint64_t bid, uint64_t tid);

  /// Marks that some PACT of `bid` wrote this actor's state (decides whether
  /// the BatchComplete record carries a snapshot, Fig. 6).
  void SetBatchWrote(uint64_t bid);
  bool BatchWrote(uint64_t bid) const;

  /// Marks `bid` committed and pops every leading node that is finished.
  void MarkBatchCommitted(uint64_t bid);

  /// Monotone per-node sequence number assigned at append time; used by the
  /// actor to order state-snapshot promotions. kNoSeq if unknown.
  static constexpr uint64_t kNoSeq = ~0ull;
  uint64_t BatchSeq(uint64_t bid) const;
  uint64_t ActSeq(uint64_t tid) const;

  // --- ACT side ------------------------------------------------------------

  /// First touch of an ACT on this actor: appends it to the tail (joining
  /// the tail ACT set if there is one) and reports the closest batch ahead
  /// of it to `info` (null: no deadlock rule, for bare unit tests). Returns
  /// true iff that observation doomed the ACT. Idempotent.
  bool RegisterAct(uint64_t tid,
                   std::shared_ptr<SharedTxnInfo> info = nullptr);

  /// Gate for ACT invocations: resolves OK when the ACT's set is eligible
  /// per rule (1). A gate left closed is parked with the ACT's
  /// SharedTxnInfo, so the deadlock rule can end it.
  Future<Status> WaitActTurn(uint64_t tid);

  /// The ACT left the schedule (committed or aborted anywhere up-stack).
  void FinishAct(uint64_t tid);

  /// BeforeSet contribution (§4.4.3): bid of the closest batch before the
  /// ACT in this schedule, or kNoBid.
  uint64_t ClosestBatchBefore(uint64_t tid) const;
  /// AfterSet contribution: bid of the first batch after the ACT, or kNoBid
  /// (the incomplete-AfterSet case).
  uint64_t FirstBatchAfter(uint64_t tid) const;

  // --- Global abort ---------------------------------------------------------

  /// Drops every batch node for which `is_committed(bid)` is false, failing
  /// its gates with `status`; fails all ACT gates and pre-arrival waiters;
  /// clears parked batches. Returns the bids of dropped batches. ACT
  /// registrations are cleared (the abort controller aborts those ACTs).
  std::vector<uint64_t> AbortUncommitted(
      const Status& status, const std::function<bool(uint64_t)>& is_committed);

  // --- Introspection ---------------------------------------------------------

  bool Empty() const { return nodes_.empty() && pending_batches_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_parked_batches() const { return pending_batches_.size(); }
  uint64_t tail_bid() const { return tail_bid_; }

 private:
  struct PactEntry {
    uint64_t tid = 0;
    int declared = 0;
    int started = 0;
    int done = 0;
    std::vector<Promise<Status>> waiters;
  };

  struct ActMember {
    bool finished = false;  ///< committed or aborted
    /// Dropped once finished: the deadlock rule observes unfinished ACTs only.
    std::shared_ptr<SharedTxnInfo> info;
  };

  struct Node {
    enum class Kind { kBatch, kActSet } kind;
    uint64_t seq = 0;

    // kBatch:
    uint64_t bid = kNoBid;
    std::vector<PactEntry> entries;  // tid-ascending
    size_t cursor = 0;               // first not-yet-completed entry
    bool completed = false;
    bool committed = false;
    bool wrote = false;

    // kActSet:
    std::map<uint64_t, ActMember> members;
    std::map<uint64_t, std::vector<Promise<Status>>> act_waiters;

    bool Done() const {
      if (kind == Kind::kBatch) return completed;
      for (const auto& [_, member] : members) {
        if (!member.finished) return false;
      }
      return true;
    }
  };

  using NodeList = std::list<Node>;

  /// Re-evaluates eligibility from the head and resolves newly-open gates.
  void Pump();

  /// Appends a batch msg as a node; returns the number of ACTs it doomed.
  size_t AppendBatchNode(BatchMsg msg);

  NodeList::iterator FindBatch(uint64_t bid);
  NodeList::const_iterator FindBatch(uint64_t bid) const;
  NodeList::iterator FindActSet(uint64_t tid);
  NodeList::const_iterator FindActSet(uint64_t tid) const;

  void PopFinishedHead();

  NodeList nodes_;
  uint64_t next_seq_ = 1;  // 0 is "nothing committed yet" for seq guards
  /// bid of the last batch appended to the chain (survives node removal);
  /// kNoBid before the first batch or after a global-abort reset.
  uint64_t tail_bid_ = kNoBid;
  /// Parked batches keyed by prev_bid.
  std::map<uint64_t, BatchMsg> pending_batches_;
  /// PACT invocations that arrived before their BatchMsg: (bid, tid) -> gates.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<Promise<Status>>>
      pre_arrival_waiters_;
};

}  // namespace snapper
