// Asynchronous per-actor checkpointing and WAL truncation.
//
// The CheckpointManager sits beside the logger group and tracks, per actor,
// how many durable state-bearing bytes have accumulated since the actor's
// last durable checkpoint ("checkpoint lag"). When the lag crosses a
// threshold it asks the runtime — via a callback — to take a checkpoint: the
// actor, on its own strand and only at a quiescent turn boundary (no active
// invocations, no undecided speculative snapshots), appends a kCheckpoint
// record carrying its committed state. Nothing ever stops the world: a busy
// actor simply reports "skipped" and is re-asked after its next durable
// write.
//
// Truncation works on log *segments*: each logger rolls its file at flush
// boundaries once a segment exceeds `segment_bytes`, producing files
// `wal-<logger>-<seq>.log`. Every record carries a global LSN allocated at
// append time. A sealed segment may be deleted once its max LSN is below the
// *global checkpoint floor* — the minimum, over all actors that have ever
// written a state-bearing record, of the actor's last durable checkpoint
// LSN ("every actor covered by the segment has a durable checkpoint at a
// later LSN"; since an untracked actor has no records at all, taking the min
// over all tracked actors is exactly the per-segment coverage rule, just
// cheaper). Soundness:
//
//  * State records: any state record in a deleted segment has
//    lsn <= max_lsn < floor <= owner's checkpoint LSN, so it is superseded
//    by a durable checkpoint that recovery will find.
//  * Decision records (kBatchCommit / kActCoordCommit): a decision is
//    appended only after the transaction's state records, so its LSN exceeds
//    theirs. Conversely, any *retained* state record that recovery must
//    re-judge has lsn >= floor, hence its decision record (higher LSN still)
//    lives in a retained segment too.
//  * The all-completes rule cannot resurrect a watchdog-aborted batch:
//    kBatchInfo and kBatchAbort are written by the same coordinator to the
//    same logger (info first). Per-logger LSNs are strictly increasing, so
//    segments' max LSNs are too, and floor-based deletion always removes a
//    per-logger *prefix* — the kBatchInfo is deleted no later than the
//    kBatchAbort. Deleting the metadata of a still-undecided batch only
//    makes recovery more conservative, which is legal for unacked work.
//
// A torn checkpoint needs no special handling: its frame fails the CRC, so
// it is never reported durable, never advances the floor, and recovery's
// torn-tail rule skips it — falling back to the previous checkpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "actor/actor.h"
#include "common/mutex.h"
#include "wal/env.h"
#include "wal/log_format.h"

namespace snapper {

/// Aggregate checkpoint/truncation counters (all monotonic except
/// `lag_bytes`, which is the current total checkpoint lag across actors).
struct CheckpointStats {
  std::atomic<uint64_t> checkpoints_durable{0};
  std::atomic<uint64_t> checkpoint_requests{0};
  std::atomic<uint64_t> checkpoint_skips{0};
  std::atomic<uint64_t> segments_sealed{0};
  std::atomic<uint64_t> segments_truncated{0};
  std::atomic<uint64_t> bytes_truncated{0};
  std::atomic<uint64_t> lag_bytes{0};
};

/// Segment file naming. Seeded-era logs used `wal-<logger>.log`; segmented
/// logs use `wal-<logger>-<seq>.log` with seq >= 1. ParseWalFileName maps a
/// legacy name to seq 0 so (logger, seq) sorts legacy content first. Never
/// sort WAL files lexicographically: "wal-0-000001.log" < "wal-0.log"
/// because '-' < '.'.
std::string WalSegmentFileName(size_t logger, uint64_t seq);
bool ParseWalFileName(std::string_view name, size_t* logger, uint64_t* seq);

struct WalSegment {
  size_t logger = 0;
  uint64_t seq = 0;
  std::string name;
};

/// Every WAL file in `env`, in (logger, seq) order — the order in which one
/// logger's segments concatenate into its stream. Other files are skipped.
std::vector<WalSegment> ListWalSegments(Env& env);

class CheckpointManager {
 public:
  struct Options {
    /// Roll a logger's segment at the first flush boundary past this many
    /// bytes. 0 disables rolling (single segment, never truncated).
    size_t segment_bytes = 0;
    /// Ask an actor to checkpoint once its durable state bytes since the
    /// last checkpoint exceed this. 0 disables checkpoint requests (legacy
    /// reopen checkpoints from Recover() are still tracked).
    size_t checkpoint_threshold_bytes = 0;
  };

  /// Durability metadata for one framed record, reported by the logger after
  /// the enclosing group flush synced.
  struct RecordMeta {
    LogRecordType type = LogRecordType::kBatchInfo;
    ActorId actor;
    uint64_t lsn = 0;
    size_t framed_bytes = 0;
    bool state_bearing = false;  ///< Carries a state snapshot (incl. ckpts).
  };

  CheckpointManager(Options options, Env* env);

  /// Allocates the next global LSN (first LSN is 1; 0 = "no LSN").
  uint64_t AllocLsn() { return next_lsn_.fetch_add(1, std::memory_order_relaxed); }

  /// Installed by the runtime; invoked (without internal locks held, from a
  /// logger strand) when an actor's lag crosses the threshold. The runtime
  /// schedules TransactionalActor::MaybeCheckpoint / OtxnActor equivalent.
  using RequestCheckpointFn = std::function<void(const ActorId&)>;
  void SetRequestCheckpointFn(RequestCheckpointFn fn);

  // --- Logger-side hooks (called on the owning logger's strand) ---
  void OnSegmentOpen(size_t logger, uint64_t seq, const std::string& file);
  void OnSegmentSealed(size_t logger, uint64_t seq);
  /// One durable flush group, in append order.
  void OnBatchDurable(size_t logger, uint64_t seq,
                      const std::vector<RecordMeta>& batch);

  // --- Runtime-side hooks ---
  /// The actor declined (not quiescent) or failed to persist a requested
  /// checkpoint. Clears its pending flag so the next durable state record
  /// re-triggers the request.
  void OnCheckpointSkipped(const ActorId& id);
  /// Re-evaluates the threshold for `id` (e.g. after a commit applied
  /// without a new append) and fires the request callback if due.
  void Poke(const ActorId& id);
  /// Up to `max_n` tracked actors with the oldest last-durable-record LSN —
  /// the overload controller's checkpoint-then-deactivate candidates.
  std::vector<ActorId> ColdActors(size_t max_n) const;

  /// WAL files of the previous incarnation, discovered at LogManager
  /// construction. They are retired (deleted) after Recover() has durably
  /// re-persisted every recovered state as a fresh checkpoint record.
  void RegisterLegacyFiles(std::vector<std::string> names);
  /// Deletes all registered legacy files. Returns how many were deleted.
  size_t RetireLegacyFiles();

  uint64_t LagBytes(const ActorId& id) const;
  uint64_t CheckpointFloorLsn() const;
  bool checkpointing_enabled() const {
    return options_.checkpoint_threshold_bytes > 0;
  }
  const CheckpointStats& stats() const { return stats_; }

 private:
  struct Segment {
    std::string file;
    uint64_t max_lsn = 0;
    uint64_t bytes = 0;
    bool sealed = false;
  };
  struct ActorInfo {
    uint64_t lag_bytes = 0;       ///< Durable state bytes since last ckpt.
    uint64_t checkpoint_lsn = 0;  ///< Last durable checkpoint LSN (0 = none).
    uint64_t last_lsn = 0;        ///< Last durable state-bearing LSN.
    bool request_pending = false;
  };

  /// Deletes every sealed segment whose max LSN is below the checkpoint
  /// floor. Per-logger monotone LSNs make this a per-logger prefix.
  void TruncateCoveredSegmentsLocked() REQUIRES(mu_);
  uint64_t FloorLocked() const REQUIRES(mu_);

  const Options options_;
  Env* const env_;
  std::atomic<uint64_t> next_lsn_{1};
  CheckpointStats stats_;

  mutable Mutex mu_;
  RequestCheckpointFn request_fn_ GUARDED_BY(mu_);
  std::map<std::pair<size_t, uint64_t>, Segment> segments_ GUARDED_BY(mu_);
  std::map<ActorId, ActorInfo> actors_ GUARDED_BY(mu_);
  std::vector<std::string> legacy_files_ GUARDED_BY(mu_);
};

}  // namespace snapper
