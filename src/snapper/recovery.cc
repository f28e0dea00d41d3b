#include "snapper/recovery.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/value.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"

namespace snapper {

Result<RecoveryResult> RecoveryManager::Run(Env* env) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryResult result;

  // One pass over every logger's stream. Decisions are kept whole; state
  // records only as each actor's checkpoint cut, since their verdicts may
  // sit on a coordinator logger that is read later.
  std::set<uint64_t> batch_commit_logged;
  std::set<uint64_t> batch_abort_logged;
  std::map<uint64_t, std::set<ActorId>> batch_participants;
  std::map<uint64_t, uint64_t> batch_prev;
  std::map<uint64_t, std::set<ActorId>> batch_completes;
  std::set<uint64_t> act_committed;
  std::map<ActorId, CheckpointCut> cuts;
  Status read = ForEachWalRecord(*env, std::nullopt, [&](LogRecord& r) {
    ++result.scanned_records;
    result.max_seen_id = std::max(result.max_seen_id, r.id);
    switch (r.type) {
      case LogRecordType::kBatchCommit:
        batch_commit_logged.insert(r.id);
        break;
      case LogRecordType::kBatchAbort:
        batch_abort_logged.insert(r.id);
        break;
      case LogRecordType::kBatchInfo:
        batch_participants[r.id].insert(r.participants.begin(),
                                        r.participants.end());
        batch_prev[r.id] = r.prev_id;
        break;
      case LogRecordType::kBatchComplete:
        batch_completes[r.id].insert(r.actor);
        break;
      case LogRecordType::kActCoordCommit:
        act_committed.insert(r.id);
        break;
      case LogRecordType::kCheckpoint:
        ++result.checkpoint_records;
        break;
      default:
        break;
    }
    if (!r.state.empty()) cuts[r.actor].Add(std::move(r));
  });
  if (!read.ok()) return read;

  // A BatchCommit record is an explicit durable decision. The all-completes
  // rule additionally requires the batch's whole predecessor chain (the
  // BatchInfo prev_id links) to have committed: the sequencer only ever
  // commits in chain order, and a batch's speculative snapshots embed the
  // effects of its predecessors — committing a successor whose predecessor
  // aborted would resurrect those effects partially. bids grow along the
  // chain, so one ascending sweep settles chains of any length.
  // A BatchAbort record excludes the batch from the all-completes
  // inference: its completes may all be on disk even though it never
  // committed. Its writers: the coordinator's liveness watchdog / dead
  // participant path (only the *ack* was lost), and the global abort round,
  // for every batch it aborts — including one whose completes are all
  // durable and that waited behind a predecessor the round let finish
  // committing. An explicit BatchCommit still wins; neither writer ever
  // logs an abort for a committed or committing bid.
  // (WAL truncation preserves these rules: it only deletes per-logger
  // prefixes below the global checkpoint floor, so a batch with any
  // still-relevant state record keeps its decision records, and a
  // kBatchInfo is never deleted later than a same-logger kBatchAbort logged
  // after it. A round may log the abort of a batch whose kBatchInfo append
  // is still in flight, so the abort comes first; such a batch is never
  // emitted and so has no completes — a surviving kBatchInfo alone can
  // never satisfy the rule.)
  std::set<uint64_t> batch_committed = batch_commit_logged;
  for (const auto& [bid, participants] : batch_participants) {
    if (batch_committed.count(bid) > 0) continue;
    if (batch_abort_logged.count(bid) > 0) continue;
    const auto completes = batch_completes.find(bid);
    if (completes == batch_completes.end()) continue;
    bool all = !participants.empty();
    for (const auto& p : participants) {
      if (completes->second.count(p) == 0) {
        all = false;
        break;
      }
    }
    if (!all) continue;
    const uint64_t prev = batch_prev[bid];
    if (prev == kNoLogId || batch_committed.count(prev) > 0) {
      batch_committed.insert(bid);
    }
  }
  result.committed_batches = batch_committed.size();
  result.committed_acts = act_committed.size();

  // Per actor, the newest committed record of its cut wins; the checkpoint
  // itself persists already-committed state. Records before the checkpoint
  // were superseded undecoded — the suffix is what bounds replay time.
  uint64_t skipped_records = 0;
  for (auto& [actor, cut] : cuts) {
    skipped_records += cut.superseded;
    std::string* image = cut.checkpoint.empty() ? nullptr : &cut.checkpoint;
    for (LogRecord& r : cut.after) {
      bool committed = false;
      if (r.type == LogRecordType::kBatchComplete) {
        committed = batch_committed.count(r.id) > 0;
      } else if (r.type == LogRecordType::kActPrepare) {
        committed = act_committed.count(r.id) > 0;
      }
      if (committed) image = &r.state;
    }
    if (image == nullptr) continue;
    std::string_view in = *image;
    Value state;
    if (!state.DecodeFrom(&in) || !in.empty()) {
      return Status::Corruption("undecodable state snapshot for actor " +
                                actor.ToString());
    }
    result.actor_states.emplace(actor, std::move(*image));
  }
  result.replay_records = result.scanned_records - skipped_records;
  result.recovery_time_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

}  // namespace snapper
