// Core transaction data types shared across Snapper's components: the
// transaction context handed to user methods (paper §3.2), the data attached
// to cross-actor calls (paper Fig. 5), batch messages (paper Fig. 4), and
// client-visible results.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "actor/actor.h"
#include "async/future.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/value.h"

namespace snapper {

/// Sentinel meaning "no batch" (first batch on an actor, or after a global
/// abort reset).
inline constexpr uint64_t kNoBid = std::numeric_limits<uint64_t>::max();

/// How a transaction executes (paper §3.1).
enum class TxnMode : uint8_t {
  kPact,  ///< Pre-declared ACtor Transaction: deterministic scheduling.
  kAct,   ///< ACtor Transaction: S2PL + 2PC.
  kNt,    ///< Non-transactional (the NT baseline of Fig. 12).
};

/// State access modes for GetState (paper §3.2.2).
enum class AccessMode : uint8_t { kRead, kReadWrite };

/// actorAccessInfo of a PACT: every actor the transaction will touch and how
/// many times (paper §3.1). Ordered map so batch contents are deterministic.
using ActorAccessInfo = std::map<ActorId, int>;

/// A named method invocation on an actor (paper Fig. 5's FuncCall).
struct FuncCall {
  std::string method;
  Value input;
};

/// Thrown inside transactional actor methods to abort the enclosing
/// transaction; also used internally to unwind aborted invocations. User
/// code may throw anything — Snapper wraps foreign exceptions into
/// kUserAbort (paper §3.2.3).
class TxnAbort : public std::exception {
 public:
  explicit TxnAbort(Status status) : status_(std::move(status)) {
    message_ = status_.ToString();
  }
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  Status status_;
  std::string message_;
};

/// Maps an in-flight exception to the abort status presented to clients:
/// TxnAbort and StatusError carry their own status (the latter keeps typed
/// non-abort codes like kOverloaded classifiable); anything else is a user
/// abort (paper §3.2.3: unhandled exceptions abort the transaction).
inline Status StatusFromExceptionPtr(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const TxnAbort& abort) {
    return abort.status();
  } catch (const StatusError& error) {
    return error.status();
  } catch (const std::exception& ex) {
    return Status::TxnAborted(AbortReason::kUserAbort, ex.what());
  } catch (...) {
    return Status::TxnAborted(AbortReason::kUserAbort, "unknown exception");
  }
}

/// Per-participant execution record, accumulated along the call chain and
/// returned to the root (the TxnExeInfo of paper Fig. 5). For ACTs it feeds
/// both 2PC (participants, writes) and the hybrid serializability check
/// (BeforeSet/AfterSet contributions, §4.4.3).
struct ParticipantInfo {
  bool wrote = false;
  /// bid of the closest batch scheduled before this ACT on the actor, merged
  /// with the actor's committed-ACT BeforeSet watermark; kNoBid if none.
  uint64_t before_bid = kNoBid;
  /// bid of the first batch scheduled after this ACT on the actor; kNoBid if
  /// none was present when the (last) invocation finished — the "incomplete
  /// AfterSet" case.
  uint64_t after_bid = kNoBid;
};

struct TxnExeInfo {
  std::map<ActorId, ParticipantInfo> participants;
  /// Set once the hybrid deadlock rule doomed the ACT (SharedTxnInfo).
  bool doomed = false;

  /// Merges callee-side info into the caller's accumulator. Later entries
  /// for the same actor overwrite before/after contributions (they reflect a
  /// later schedule observation) and OR the write flag.
  void Merge(const TxnExeInfo& other) {
    for (const auto& [actor, info] : other.participants) {
      auto [it, inserted] = participants.emplace(actor, info);
      if (!inserted) {
        it->second.wrote |= info.wrote;
        it->second.before_bid = info.before_bid;
        it->second.after_bid = info.after_bid;
      }
    }
  }

  /// max(BS): largest before-contribution, or kNoBid when the BeforeSet is
  /// empty.
  uint64_t MaxBeforeSet() const {
    uint64_t max_bs = kNoBid;
    for (const auto& [_, info] : participants) {
      if (info.before_bid == kNoBid) continue;
      if (max_bs == kNoBid || info.before_bid > max_bs) {
        max_bs = info.before_bid;
      }
    }
    return max_bs;
  }

  /// min(AS) over actors that observed a following batch.
  uint64_t MinAfterSet() const {
    uint64_t min_as = kNoBid;
    for (const auto& [_, info] : participants) {
      if (info.after_bid == kNoBid) continue;
      if (min_as == kNoBid || info.after_bid < min_as) {
        min_as = info.after_bid;
      }
    }
    return min_as;
  }

  /// True if any participant had no batch scheduled after the ACT (§4.4.3's
  /// incomplete-AfterSet condition).
  bool AfterSetIncomplete() const {
    for (const auto& [_, info] : participants) {
      if (info.after_bid == kNoBid) return true;
    }
    return false;
  }
};

/// Thread-safe per-transaction accumulator of execution information.
///
/// The paper propagates TxnExeInfo inside ResultObj along the RPC chain
/// (Fig. 5); this implementation accumulates into one shared object created
/// at the root instead — an in-process shared structure in the same spirit
/// as the paper's shared loggers. The root observes identical information,
/// and crucially the participant set stays complete even when an exception
/// unwinds the call chain (needed to send Abort to every touched actor).
class SharedTxnInfo {
 public:
  /// Records that `actor` executed (part of) the transaction.
  void RegisterParticipant(const ActorId& actor) {
    MutexLock lock(&mu_);
    info_.participants.try_emplace(actor);
  }

  void MarkWrote(const ActorId& actor) {
    MutexLock lock(&mu_);
    info_.participants[actor].wrote = true;
  }

  /// Schedule observation taken when an invocation finishes on `actor`
  /// (§4.4.3): overwrites earlier observations for the same actor.
  void SetScheduleObservation(const ActorId& actor, uint64_t before_bid,
                              uint64_t after_bid) {
    MutexLock lock(&mu_);
    auto& p = info_.participants[actor];
    p.before_bid = before_bid;
    p.after_bid = after_bid;
  }

  /// Root-side copy for the serializability check and 2PC.
  TxnExeInfo Snapshot() const {
    MutexLock lock(&mu_);
    return info_;
  }

  // --- Hybrid deadlock rule (Fig. 9; DESIGN.md §3b item 8) ----------------
  // A batch b' appended behind this ACT's unfinished ACT set on one actor
  // cannot start there before the ACT finishes (rule 2 of §4.4.1), and
  // batches commit in bid order, so no batch b >= b' commits before the ACT
  // finishes either. If the ACT also sits behind such a b on another actor,
  // Theorem 4.2's check can never pass: max(BS) >= b >= b' >= min(AS), or
  // the AfterSet is incomplete while b is uncommitted. Once
  // max(before) >= min(after) the ACT is doomed, and every pending schedule
  // gate or lock wait it has, on any actor, resolves
  // TxnAborted(kPactActDeadlock) at once instead of at act_wait_timeout.

  /// The closest batch ahead of the ACT on some actor
  /// (LocalSchedule::RegisterAct). True iff this observation doomed it.
  bool ObserveBatchBefore(uint64_t bid) { return Observe(bid, kNoBid); }

  /// A batch appended right behind the ACT's unfinished ACT set on some
  /// actor (LocalSchedule::AddBatch). True iff this observation doomed it.
  bool ObserveBatchAfter(uint64_t bid) { return Observe(kNoBid, bid); }

  /// Parks a pending schedule gate or lock wait of this ACT, resolved
  /// TxnAborted(kPactActDeadlock) if the ACT is or becomes doomed.
  void AddPendingWait(Future<Status> wait) {
    {
      MutexLock lock(&mu_);
      if (!info_.doomed) {
        pending_waits_.push_back(std::move(wait));
        return;
      }
    }
    ResolveDoomed({std::move(wait)});
  }

  /// Commit dependency on an uncommitted writer (used by the OrleansTxn
  /// baseline's early lock release; unused by Snapper's own protocols).
  void AddDependency(uint64_t tid) {
    MutexLock lock(&mu_);
    deps_.insert(tid);
  }

  std::set<uint64_t> Dependencies() const {
    MutexLock lock(&mu_);
    return deps_;
  }

 private:
  bool Observe(uint64_t before, uint64_t after) {
    std::vector<Future<Status>> waits;
    {
      MutexLock lock(&mu_);
      if (before != kNoBid && (max_before_ == kNoBid || before > max_before_)) {
        max_before_ = before;
      }
      min_after_ = std::min(min_after_, after);  // kNoBid is the largest
      if (info_.doomed || max_before_ == kNoBid || max_before_ < min_after_) {
        return false;
      }
      info_.doomed = true;
      waits.swap(pending_waits_);
    }
    ResolveDoomed(waits);
    return true;
  }

  /// Runs without mu_: each resolution runs its waiter's continuations.
  static void ResolveDoomed(const std::vector<Future<Status>>& waits) {
    for (const auto& wait : waits) {
      wait.state()->TrySet(Status::TxnAborted(
          AbortReason::kPactActDeadlock,
          "PACT-ACT deadlock: a batch ahead of the ACT waits behind it"));
    }
  }

  mutable Mutex mu_;
  TxnExeInfo info_ GUARDED_BY(mu_);
  std::set<uint64_t> deps_ GUARDED_BY(mu_);
  uint64_t max_before_ GUARDED_BY(mu_) = kNoBid;
  uint64_t min_after_ GUARDED_BY(mu_) = kNoBid;
  std::vector<Future<Status>> pending_waits_ GUARDED_BY(mu_);
};

/// The read-only context generated by Snapper for each transaction and
/// passed through every transactional API call (paper §3.2.2).
///
/// Coroutine methods take `TxnContext&` by design even though clang-tidy's
/// cppcoreguidelines-avoid-reference-coroutine-parameters flags reference
/// coroutine parameters: every call site is structured (`co_await`ed to
/// completion by the frame that owns the context), so the reference always
/// outlives the callee. Those signatures carry a NOLINT referencing this
/// note; a *detached* coroutine must copy the context instead.
struct TxnContext {
  uint64_t tid = 0;
  uint64_t bid = kNoBid;  ///< PACT only: owning batch.
  TxnMode mode = TxnMode::kAct;
  /// Global-abort epoch at creation; invocations from a previous epoch are
  /// rejected (their batches/locks were already discarded).
  uint64_t epoch = 0;
  ActorId root_actor;
  std::shared_ptr<SharedTxnInfo> info;
};

/// Per-transaction latency breakdown (microseconds), the basis of the
/// Fig. 15 microbenchmark: time to obtain a tid/context, to execute the
/// method chain, and to run the commit protocol.
struct TxnTimings {
  uint32_t start_us = 0;   ///< submit -> context/tid assigned (I1-I3).
  uint32_t exec_us = 0;    ///< context -> method chain finished (I4-I7).
  uint32_t commit_us = 0;  ///< execution end -> commit/abort decided (I8-I9).
};

/// What the client receives from StartTxn: the method's return value or an
/// abort/error status, plus the latency breakdown for the harness.
struct TxnResult {
  Status status;
  Value value;
  TxnTimings timings;

  bool ok() const { return status.ok(); }
};

/// One PACT inside a sub-batch: its tid and how many times it accesses the
/// receiving actor (paper Fig. 4b).
struct SubBatchEntry {
  uint64_t tid = 0;
  int num_accesses = 0;
};

/// The BatchMsg a coordinator emits to one actor (paper §4.2.2): this
/// actor's slice of batch `bid`, ordered by tid, linked to the actor's
/// previous batch via `prev_bid`.
struct BatchMsg {
  uint64_t bid = 0;
  uint64_t prev_bid = kNoBid;
  uint64_t coordinator = 0;  ///< Owning coordinator index (for the ack).
  /// Abort epoch at formation; receivers drop stale-epoch batches.
  uint64_t epoch = 0;
  std::vector<SubBatchEntry> entries;
};

/// System-wide message-cost accounting, asserted by tests against the
/// paper's §4.1.2 counts (3 one-way messages per PACT batch, 2 round trips
/// per ACT) and reported by the Fig. 12 bench.
struct MessageCounters {
  std::atomic<uint64_t> batch_msgs{0};
  std::atomic<uint64_t> batch_completes{0};
  std::atomic<uint64_t> batch_commits{0};
  std::atomic<uint64_t> act_prepares{0};
  std::atomic<uint64_t> act_commits{0};
  std::atomic<uint64_t> act_aborts{0};
  std::atomic<uint64_t> token_passes{0};

  // Fault-tolerance counters (kill/reactivate + liveness watchdogs).
  std::atomic<uint64_t> actor_kills{0};
  std::atomic<uint64_t> reactivations{0};
  std::atomic<uint64_t> reactivation_us{0};  ///< summed kill→reinstall time
  std::atomic<uint64_t> watchdog_batch_aborts{0};
  std::atomic<uint64_t> watchdog_act_aborts{0};       ///< vote/ack deadlines
  std::atomic<uint64_t> watchdog_act_resolutions{0};  ///< stuck-2PC re-resolves
  /// ACTs doomed by the hybrid deadlock rule (SharedTxnInfo), each aborted
  /// with kPactActDeadlock without waiting for act_wait_timeout.
  std::atomic<uint64_t> act_deadlocks_detected{0};
  /// ACT schedule-gate, lock and commit waits ended by act_wait_timeout: the
  /// deadlocks the rule does not claim (multi-ACT cycles). Vote deadlines
  /// count in watchdog_act_aborts.
  std::atomic<uint64_t> act_wait_timeouts{0};

  // Checkpoint / bounded-recovery counters (see wal/checkpoint.h).
  std::atomic<uint64_t> recovery_time_us{0};  ///< summed WAL scan+replay time
  std::atomic<uint64_t> recovery_replay_records{0};  ///< post-checkpoint suffix
  std::atomic<uint64_t> checkpoints_taken{0};
  std::atomic<uint64_t> checkpoint_lag_bytes{0};  ///< current gauge, not sum
  std::atomic<uint64_t> wal_segments_truncated{0};
  std::atomic<uint64_t> wal_bytes_truncated{0};
  std::atomic<uint64_t> cold_deactivations{0};  ///< checkpoint-then-deactivate

  void Reset() {
    batch_msgs = 0;
    batch_completes = 0;
    batch_commits = 0;
    act_prepares = 0;
    act_commits = 0;
    act_aborts = 0;
    token_passes = 0;
    actor_kills = 0;
    reactivations = 0;
    reactivation_us = 0;
    watchdog_batch_aborts = 0;
    watchdog_act_aborts = 0;
    watchdog_act_resolutions = 0;
    act_deadlocks_detected = 0;
    act_wait_timeouts = 0;
    recovery_time_us = 0;
    recovery_replay_records = 0;
    checkpoints_taken = 0;
    checkpoint_lag_bytes = 0;
    wal_segments_truncated = 0;
    wal_bytes_truncated = 0;
    cold_deactivations = 0;
  }
};

}  // namespace snapper
