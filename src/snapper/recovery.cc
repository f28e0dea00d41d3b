#include "snapper/recovery.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "wal/checkpoint.h"
#include "wal/log_format.h"

namespace snapper {

Result<RecoveryResult> RecoveryManager::Run(Env* env) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryResult result;

  // Load every stream's valid record prefix, per segment.
  std::map<size_t, std::vector<LogRecord>> logs;
  for (const auto& f : ListWalSegments(*env)) {
    std::string content;
    Status s = env->ReadFile(f.name, &content);
    if (s.IsNotFound()) continue;  // deleted by a racing truncation: covered
    if (!s.ok()) return s;
    auto& records = logs[f.logger];
    LogCursor cursor(content);
    LogRecord record;
    for (;;) {
      Status rs = cursor.Next(&record);
      if (rs.ok()) {
        records.push_back(record);
        continue;
      }
      // NotFound = clean end; Corruption = torn tail: stop either way.
      break;
    }
  }
  for (const auto& [logger, records] : logs) {
    result.scanned_records += records.size();
  }

  // Pass 1: commit decisions.
  std::set<uint64_t> batch_commit_logged;
  std::set<uint64_t> batch_abort_logged;
  std::map<uint64_t, std::set<ActorId>> batch_participants;
  std::map<uint64_t, uint64_t> batch_prev;
  std::map<uint64_t, std::set<ActorId>> batch_completes;
  std::set<uint64_t> act_committed;
  for (const auto& [logger, records] : logs) {
    for (const auto& r : records) {
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
    }
  }

  // A BatchCommit record is an explicit durable decision. The all-completes
  // rule additionally requires the batch's whole predecessor chain (the
  // BatchInfo prev_id links) to have committed: the sequencer only ever
  // commits in chain order, and a batch's speculative snapshots embed the
  // effects of its predecessors — committing a successor whose predecessor
  // aborted would resurrect those effects partially. bids grow along the
  // chain, so one ascending sweep settles chains of any length.
  // A BatchAbort record (liveness watchdog / dead participant) excludes the
  // batch from the all-completes inference: its completes may all be on
  // disk even though it never committed — only the *ack* was lost. An
  // explicit BatchCommit still wins; the coordinator guarantees the two are
  // never written for the same bid.
  // (WAL truncation preserves these rules: it only deletes per-logger
  // prefixes below the global checkpoint floor, so a batch with any
  // still-relevant state record keeps its decision records, and a
  // kBatchInfo is never deleted later than its same-logger kBatchAbort.)
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

  // Pass 2: per-actor last committed state, in per-stream (== per-actor
  // execution) order. State records before the owning actor's last
  // checkpoint in the stream are superseded and skipped without decoding —
  // the replay suffix is what bounds reactivation time.
  uint64_t skipped_records = 0;
  for (const auto& [logger, records] : logs) {
    std::map<ActorId, size_t> last_checkpoint;
    for (size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      if (r.type == LogRecordType::kCheckpoint && !r.state.empty()) {
        last_checkpoint[r.actor] = i;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      if (r.state.empty()) continue;
      const auto cut = last_checkpoint.find(r.actor);
      if (cut != last_checkpoint.end() && i < cut->second) {
        ++skipped_records;
        continue;
      }
      bool committed = false;
      if (r.type == LogRecordType::kBatchComplete) {
        committed = batch_committed.count(r.id) > 0;
      } else if (r.type == LogRecordType::kActPrepare) {
        committed = act_committed.count(r.id) > 0;
      } else if (r.type == LogRecordType::kCheckpoint) {
        committed = true;  // checkpoints persist already-committed state
      }
      if (!committed) continue;
      std::string_view in = r.state;
      Value state;
      if (!state.DecodeFrom(&in)) {
        return Status::Corruption("undecodable state snapshot for actor " +
                                  r.actor.ToString());
      }
      result.actor_states[r.actor] = std::move(state);
    }
  }
  result.replay_records = result.scanned_records - skipped_records;
  result.recovery_time_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

}  // namespace snapper
