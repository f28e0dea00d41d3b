// Loggers — Snapper's persistence component (paper §4.1.1).
//
// A small, fixed group of Logger objects is shared by all actors on the
// machine; an actor picks its logger by hashing its actor ID. Each logger
// owns one log stream and forms group commits on a strand: appends that
// arrive while a group is being written are batched into the next group
// (one write+sync for the whole group), "constraining the number of log
// files, reducing random IO and amortizing IO cost by batching".
//
// The write+sync itself runs on the logger's flusher thread, never on an
// executor worker, so a sync parks no actor turn. The flusher writes one
// group per logger at a time, which keeps durability FIFO per logger. A
// group's buffers (framed bytes, durability metadata, waiters' promises)
// are owned by
//   1. the strand while the group forms (`pending_`);
//   2. the flusher job from the moment the strand's DoFlush turn moves them
//      to `flushing_` and posts the job;
//   3. the completion turn the job posts back to the strand, which takes
//      them out of `flushing_`, reports durability and health, starts the
//      next group and resolves the group's waiters last.
//
// A logger's stream is a sequence of segment files, rolled at group
// boundaries once a segment reaches the configured size. With a
// CheckpointManager attached, each logger also stamps every record with a
// global LSN at append time and reports per-record durability, so
// checkpoint lag and segment truncation stay exact (see wal/checkpoint.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "async/executor.h"
#include "async/future.h"
#include "common/status.h"
#include "wal/checkpoint.h"
#include "wal/env.h"
#include "wal/log_format.h"

namespace snapper {

/// Shared WAL device health across the logger group: flips to degraded on a
/// failed group and recovers on the next durable one. SnapperRuntime
/// consults it to fail new transactional submissions fast while the device
/// is out (sticky device failures stay degraded), while non-transactional
/// calls — which never log — keep working.
class WalHealth {
 public:
  void ReportFlush(const Status& status) {
    if (status.ok()) {
      degraded_.store(false, std::memory_order_release);
    } else {
      failures_.fetch_add(1, std::memory_order_relaxed);
      degraded_.store(true, std::memory_order_release);
    }
  }

  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> failures_{0};
};

class Logger {
 public:
  /// Logger `index`, writing segment files `wal-<index>-<seq>.log` from
  /// `start_seq` on (past the previous incarnation's highest so its files
  /// are never overwritten). `strand` must be dedicated to this logger.
  /// `health` (may be null) receives the outcome of every group. Rolls at
  /// the first group boundary where the current segment has `segment_bytes`
  /// or more (0 = never). With `checkpoints` (may be null) it stamps LSNs
  /// and reports segment lifecycle and per-record durability. The flusher
  /// thread starts with the first group.
  ///
  /// Destruction joins the flusher. Destroy a logger only once no group is
  /// in flight or `strand`'s executor has stopped: the completion of a group
  /// still in flight would otherwise run on the strand after the logger is
  /// gone (with the executor stopped it is dropped, its waiters unset).
  Logger(size_t index, uint64_t start_seq, Env* env,
         std::shared_ptr<Strand> strand, WalHealth* health,
         CheckpointManager* checkpoints, size_t segment_bytes);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Durably appends `record`; the future resolves after the enclosing group
  /// has synced. Safe from any thread. With a CheckpointManager the
  /// record's `lsn` field is assigned on the strand at buffering time.
  Future<Status> Append(LogRecord record);

  /// This logger's index: its segments are `wal-<index>-<seq>.log`.
  size_t index() const { return index_; }
  uint64_t num_records() const { return num_records_.load(); }
  /// Syncs that ran, failed ones included.
  uint64_t num_syncs() const { return num_syncs_.load(); }
  /// Bytes of the groups that became durable.
  uint64_t bytes_written() const { return bytes_written_.load(); }

 private:
  /// One group commit: framed records, their durability metadata, and the
  /// promises awaiting them.
  struct Group {
    std::string bytes;
    std::vector<CheckpointManager::RecordMeta> meta;
    std::vector<Promise<Status>> waiters;
  };

  void ScheduleFlushLocked();
  /// Hands the pending group to the flusher (strand only).
  void DoFlush();
  /// The completion turn of the group the flusher wrote (strand only).
  void OnGroupDone();

  std::string file_name_;  ///< Current segment's file (strand only).
  Env* env_;
  std::shared_ptr<Strand> strand_;
  WalHealth* health_;
  CheckpointManager* checkpoints_ = nullptr;
  size_t segment_bytes_ = 0;
  size_t index_ = 0;
  uint64_t seq_ = 0;          ///< Current segment sequence (strand only).
  size_t segment_written_ = 0;  ///< Durable bytes in the current segment.
  /// Opened lazily on the first group, as a fresh segment, so that recovery
  /// reads the previous incarnation's log before this one writes. Opened,
  /// rolled and closed on the strand; written by the flusher job of the
  /// group in flight, and by nothing else meanwhile.
  std::unique_ptr<WritableFile> file_;
  Status open_status_;

  // Strand-only group state: the next group, and whether a DoFlush turn is
  // queued or a group is with the flusher.
  Group pending_;
  bool flush_scheduled_ = false;
  bool in_flight_ = false;

  // The group in flight and its outcome: handed over by DoFlush, written by
  // the flusher job, read by the completion turn. Each step happens after
  // the previous one through the flusher's and the strand's queues.
  Group flushing_;
  Status flush_status_;

  std::atomic<uint64_t> num_records_{0};
  std::atomic<uint64_t> num_syncs_{0};
  std::atomic<uint64_t> bytes_written_{0};

  /// One-thread pool that runs each group's Append+Sync. Declared last so
  /// that it is destroyed, and joined, before the file, strand and group
  /// state its job touches.
  std::unique_ptr<Executor> flusher_;
};

/// The shared group of loggers. `LoggerFor` implements the paper's "simple
/// hash function on the actor ID".
class LogManager {
 public:
  struct Options {
    size_t num_loggers = 4;
    /// When false, Append resolves immediately without any I/O — the
    /// "CC only" configurations of Fig. 12 — and no flusher thread starts.
    bool enable_logging = true;
    /// Segment roll size for each logger (0 = single growing segment that
    /// is never truncated).
    size_t segment_bytes = 0;
    /// Per-actor checkpoint lag threshold (0 = no checkpoint requests).
    size_t checkpoint_threshold_bytes = 0;
  };

  LogManager(Options options, Env* env, Executor* executor);

  bool enabled() const { return options_.enable_logging; }

  /// The logger responsible for `id` (stable hash).
  Logger& LoggerFor(const ActorId& id);
  /// The logger for coordinator `index` (coordinators hash by their index).
  Logger& LoggerForCoordinator(uint64_t index);

  /// Appends via the owning logger, or resolves immediately if logging is
  /// disabled.
  Future<Status> Append(const ActorId& id, LogRecord record);

  size_t num_loggers() const { return loggers_.size(); }
  Logger& logger(size_t i) { return *loggers_[i]; }

  /// Checkpoint/truncation bookkeeping (null when logging is disabled).
  CheckpointManager* checkpoints() { return checkpoints_.get(); }
  const CheckpointManager* checkpoints() const { return checkpoints_.get(); }

  /// Deletes the previous incarnation's WAL files. Call only after every
  /// recovered state has been durably re-persisted as a checkpoint record in
  /// this incarnation's segments. Returns the number of files deleted.
  size_t RetireLegacyFiles();

  /// Aggregate device health across the logger group.
  WalHealth& health() { return health_; }
  const WalHealth& health() const { return health_; }

  /// Aggregate stats across loggers.
  uint64_t TotalRecords() const;
  uint64_t TotalSyncs() const;
  uint64_t TotalBytes() const;

 private:
  Options options_;
  WalHealth health_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  std::vector<std::unique_ptr<Logger>> loggers_;
};

}  // namespace snapper
