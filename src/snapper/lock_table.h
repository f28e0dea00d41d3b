// Per-actor S2PL lock with wait-die deadlock avoidance (paper §4.3.2).
//
// The lock protects the whole actor state (the paper's granularity: GetState
// grants logical read/write locks on the actor). Strictness: locks are held
// until the owning ACT finishes 2PC.
//
// Wait-die uses tids as timestamps (Snapper tids are globally monotone, so
// older transaction == smaller tid): a requester older than every current
// holder waits; a younger requester dies (kActActConflict).
//
// Thread-model: all methods must be called on the owning actor's strand —
// the lock table is deliberately unsynchronized, like the rest of per-actor
// state.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "async/future.h"
#include "common/status.h"
#include "snapper/txn_types.h"

namespace snapper {

class ActorLock {
 public:
  /// `wait_die` enables the wait-die policy (Snapper ACTs, §4.3.2). When
  /// false, conflicting requests always queue and deadlocks are broken by
  /// the caller's timeout — the OrleansTxn baseline's policy (§5.2.2).
  explicit ActorLock(bool wait_die = true) : wait_die_(wait_die) {}

  /// Requests the lock in `mode` for transaction `tid`. The future resolves
  /// OK once granted, or with TxnAborted(kActActConflict) if wait-die kills
  /// the request, or with the status passed to FailAllWaiters.
  ///
  /// Re-entrant: a holder may re-request; kRead->kReadWrite upgrades are
  /// granted when the holder is alone, and follow wait-die otherwise.
  Future<Status> Acquire(uint64_t tid, AccessMode mode);

  /// Releases whatever `tid` holds and grants eligible waiters. No-op if
  /// `tid` holds nothing.
  void Release(uint64_t tid);

  /// Aborts every waiter with `status` (global-abort path) and clears the
  /// wait queue. Holders are untouched.
  void FailAllWaiters(Status status);

  bool IsHeldBy(uint64_t tid) const { return holders_.count(tid) > 0; }
  bool IsFree() const { return holders_.empty(); }
  size_t num_holders() const { return holders_.size(); }
  std::vector<uint64_t> holder_tids() const {
    std::vector<uint64_t> tids;
    for (const auto& [tid, mode] : holders_) tids.push_back(tid);
    return tids;
  }
  size_t num_waiters() const { return waiters_.size(); }

  /// Total wait-die aborts issued by this lock (stats).
  uint64_t num_die_aborts() const { return num_die_aborts_; }

 private:
  struct Waiter {
    uint64_t tid;
    AccessMode mode;
    Promise<Status> promise;
  };

  bool CompatibleWithHolders(uint64_t tid, AccessMode mode) const;
  bool OlderThanAllConflictingHolders(uint64_t tid, AccessMode mode) const;
  void GrantEligibleWaiters();

  // tid -> granted mode (the strongest granted so far).
  std::map<uint64_t, AccessMode> holders_;
  std::deque<Waiter> waiters_;
  uint64_t num_die_aborts_ = 0;
  bool wait_die_ = true;
};

}  // namespace snapper
