// RecoveryManager: reconstructs committed actor states from the WAL after a
// crash (paper §4.2.5, §4.3.4).
//
// Commit decisions:
//   * a batch is committed iff a BatchCommit record exists, OR its BatchInfo
//     record exists, every participant wrote BatchComplete, AND its whole
//     predecessor chain (BatchInfo prev_id) committed — the paper's
//     principle that "the batch that has BatchComplete log records written
//     in all participating actors can commit", restricted to chain order
//     because a batch's speculative snapshots embed its predecessors'
//     effects (committing past an aborted predecessor would partially
//     resurrect the aborted batch);
//   * an ACT is committed iff its 2PC coordinator logged CoordCommit
//     (presumed abort otherwise).
//
// State reconstruction: one pass of the WAL reader (wal/checkpoint.h)
// over every logger's stream. Every actor hashes to exactly one logger, so
// its state-bearing records (BatchComplete / ActPrepare / Checkpoint)
// appear in that stream in execution order. Each actor keeps only its
// checkpoint cut — the last checkpoint image and the state records after
// it — since a record's verdict may sit on another logger; the newest
// committed record of the cut carries the state to restore. Records before
// the checkpoint are superseded and their states never decoded, so replay
// covers only the checkpoint-to-tail suffix. States stay the bytes that were
// logged: only the one image returned per actor is decoded, as a check.
// Segment files deleted between ListFiles and ReadFile (a racing
// truncation) are skipped: truncation only deletes segments whose every
// state record is superseded by a durable checkpoint at a higher LSN, and
// that checkpoint's segment predates the deletion, so it is in the listing.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "actor/actor.h"
#include "common/status.h"
#include "wal/env.h"

namespace snapper {

struct RecoveryResult {
  /// Last committed state image per actor, as logged (absent = actor never
  /// wrote, or never committed a write: it restarts from its initial
  /// state).
  std::map<ActorId, std::string> actor_states;
  /// Largest tid/bid observed anywhere in the logs; the new token's tid
  /// allocation resumes above it.
  uint64_t max_seen_id = 0;
  uint64_t committed_batches = 0;
  uint64_t committed_acts = 0;
  uint64_t scanned_records = 0;
  /// Records that actually had to be replayed: scanned minus the state
  /// records skipped because a later durable checkpoint supersedes them.
  /// With checkpointing + truncation on, this stays bounded regardless of
  /// how long the previous incarnation ran.
  uint64_t replay_records = 0;
  /// Checkpoint records encountered during the scan.
  uint64_t checkpoint_records = 0;
  /// Wall-clock duration of the whole scan + reconstruction.
  uint64_t recovery_time_us = 0;
};

class RecoveryManager {
 public:
  /// Scans every WAL segment in `env`. Torn tails (unsynced partial
  /// frames) terminate that segment's scan cleanly, as in ARIES-style
  /// recovery; genuine mid-file corruption is treated the same way. A read
  /// error other than NotFound, or a returned image that does not decode,
  /// fails the scan.
  static Result<RecoveryResult> Run(Env* env);
};

}  // namespace snapper
