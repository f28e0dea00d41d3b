// WAL record schema. One framing for all of Snapper's log writers: PACT
// coordinators and actors (paper Fig. 6), ACT participants and their 2PC
// coordinator (paper Fig. 7), plus the OrleansTxn baseline.
//
// Physical framing per record:   [len u32][masked crc32c u32][payload]
//                                (common/frame.h, shared with traces)
// Payload:                       [type u8][fields ...]
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "actor/actor.h"
#include "common/status.h"

namespace snapper {

/// Record types (wire-stable).
enum class LogRecordType : uint8_t {
  // --- PACT (Fig. 6) ---
  kBatchInfo = 1,      ///< Coordinator, before emitting a batch: bid + actors.
  kBatchComplete = 2,  ///< Actor, before acking: bid + actor + state snapshot.
  kBatchCommit = 3,    ///< Coordinator, before confirming: bid.
  kBatchAbort = 4,     ///< Coordinator: batch (and its successors) aborted.
  // --- ACT (Fig. 7) ---
  kActPrepare = 5,      ///< Participant actor: tid + actor + state snapshot.
  kActCoordPrepare = 6, ///< 2PC coordinator (first actor): tid + participants.
  kActCommit = 7,       ///< Participant actor: tid.
  kActCoordCommit = 8,  ///< 2PC coordinator: tid.
  kActAbort = 9,        ///< Any party: tid (presumed abort: often omitted).
  // --- Checkpoints / recovery ---
  /// A durable copy of an actor's committed state, written either online by
  /// the CheckpointManager (at a quiescent turn boundary) or by Recover()
  /// when it re-persists recovered states on reopen. Recovery replays only
  /// the records after an actor's last checkpoint; WAL truncation retires
  /// segments entirely covered by checkpoints. Torn-checkpoint detection is
  /// the torn-tail rule: a checkpoint whose frame fails the CRC is ignored
  /// and recovery falls back to the previous checkpoint (or raw records).
  kCheckpoint = 10,
};

/// "No predecessor" sentinel for LogRecord::prev_id (same value as the
/// runtime's kNoBid; redeclared here to keep the WAL layer self-contained).
inline constexpr uint64_t kNoLogId = ~0ull;

/// A decoded WAL record. Unused fields are empty/zero depending on type.
struct LogRecord {
  LogRecordType type = LogRecordType::kBatchInfo;
  uint64_t id = 0;           ///< bid for batch records, tid for ACT records.
  ActorId actor;             ///< Writing actor (state-bearing records).
  std::vector<ActorId> participants;  ///< kBatchInfo / kActCoordPrepare.
  std::string state;         ///< Serialized actor state snapshot ("" = none).
  /// kBatchInfo only: bid of the predecessor batch in the token's emission
  /// chain (kNoLogId = chain head). Recovery may commit a batch on the
  /// all-completes rule only if its whole predecessor chain committed —
  /// otherwise a durable successor could resurrect the effects of an aborted
  /// batch that its speculative snapshots embed.
  uint64_t prev_id = kNoLogId;
  /// Global log sequence number, assigned per record at append time (0 when
  /// logging without a CheckpointManager). LSNs are allocated on the owning
  /// logger's strand, so within one log file they are strictly increasing —
  /// the ordering WAL truncation's checkpoint-floor rule relies on.
  uint64_t lsn = 0;

  void EncodeTo(std::string* dst) const;
  /// Decodes a payload (without framing). Returns false on malformed input.
  bool DecodeFrom(std::string_view payload);

  std::string ToString() const;
};

/// Appends a fully framed record (length + CRC + payload) to `*dst`.
void FrameRecord(const LogRecord& record, std::string* dst);

/// Streaming reader over a log file's contents. Stops cleanly at the first
/// torn/corrupt frame (everything after an unsynced tail is ignored, as in
/// ARIES-style recovery).
class LogCursor {
 public:
  explicit LogCursor(std::string_view data) : rest_(data) {}

  /// Reads the next record. Returns OK and fills `*record`, or NotFound at
  /// clean end-of-log, or Corruption for a damaged frame (recovery treats
  /// Corruption as end-of-log too, but the caller can distinguish).
  Status Next(LogRecord* record);

 private:
  std::string_view rest_;
};

}  // namespace snapper
