#include "wal/logger.h"

#include <cassert>

namespace snapper {

Logger::Logger(std::string file_name, Env* env, std::shared_ptr<Strand> strand,
               WalHealth* health)
    : file_name_(std::move(file_name)),
      env_(env),
      strand_(std::move(strand)),
      health_(health) {}

Logger::Logger(size_t index, uint64_t start_seq, Env* env,
               std::shared_ptr<Strand> strand, WalHealth* health,
               CheckpointManager* checkpoints, size_t segment_bytes)
    : file_name_(WalSegmentFileName(index, start_seq)),
      env_(env),
      strand_(std::move(strand)),
      health_(health),
      checkpoints_(checkpoints),
      segment_bytes_(segment_bytes),
      index_(index),
      seq_(start_seq),
      segmented_(true) {}

Future<Status> Logger::Append(LogRecord record) {
  Promise<Status> promise;
  auto future = promise.GetFuture();
  strand_->Post([this, record = std::move(record),
                 promise = std::move(promise)]() mutable {
    if (checkpoints_ != nullptr) {
      record.lsn = checkpoints_->AllocLsn();
      const size_t before = pending_.size();
      FrameRecord(record, &pending_);
      CheckpointManager::RecordMeta meta;
      meta.type = record.type;
      meta.actor = record.actor;
      meta.lsn = record.lsn;
      meta.framed_bytes = pending_.size() - before;
      meta.state_bearing = !record.state.empty();
      pending_meta_.push_back(meta);
    } else {
      FrameRecord(record, &pending_);
    }
    waiters_.push_back(std::move(promise));
    num_records_.fetch_add(1);
    ScheduleFlushLocked();
  });
  return future;
}

Future<Status> Logger::Flush() {
  Promise<Status> promise;
  auto future = promise.GetFuture();
  strand_->Post([this, promise = std::move(promise)]() mutable {
    if (pending_.empty()) {
      promise.Set(file_ ? open_status_ : Status::OK());
      return;
    }
    waiters_.push_back(std::move(promise));
    ScheduleFlushLocked();
  });
  return future;
}

void Logger::ScheduleFlushLocked() {
  // Runs on the strand. Defer the actual write to a separate strand task so
  // that appends posted in the meantime join this flush group.
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  strand_->Post([this]() { DoFlush(); });
}

void Logger::DoFlush() {
  flush_scheduled_ = false;
  if (pending_.empty()) return;
  // Roll at flush boundaries: records are never split across segments, so a
  // segment may overshoot `segment_bytes_` by at most one flush group.
  if (segmented_ && segment_bytes_ > 0 && file_ &&
      segment_written_ >= segment_bytes_) {
    file_->Close();
    file_.reset();
    if (checkpoints_ != nullptr) checkpoints_->OnSegmentSealed(index_, seq_);
    ++seq_;
    file_name_ = WalSegmentFileName(index_, seq_);
    segment_written_ = 0;
  }
  if (!file_ && open_status_.ok()) {
    open_status_ = env_->NewWritableFile(file_name_, &file_);
    if (open_status_.ok() && segmented_ && checkpoints_ != nullptr) {
      checkpoints_->OnSegmentOpen(index_, seq_, file_name_);
    }
  }
  if (!open_status_.ok()) {
    const Status failed = open_status_;
    std::vector<Promise<Status>> waiters;
    waiters.swap(waiters_);
    pending_.clear();
    pending_meta_.clear();
    if (health_ != nullptr) health_->ReportFlush(failed);
    // Retry the open on the next flush: a transient creation failure must
    // not wedge this logger (and a quarter of the actor space) forever.
    open_status_ = Status::OK();
    for (auto& w : waiters) w.Set(failed);
    return;
  }
  std::string batch;
  batch.swap(pending_);
  std::vector<CheckpointManager::RecordMeta> batch_meta;
  batch_meta.swap(pending_meta_);
  std::vector<Promise<Status>> waiters;
  waiters.swap(waiters_);

  Status s = file_->Append(batch);
  if (s.ok()) s = file_->Sync();
  num_syncs_.fetch_add(1);
  bytes_written_.fetch_add(batch.size());
  if (s.ok()) {
    segment_written_ += batch.size();
    if (checkpoints_ != nullptr && !batch_meta.empty()) {
      checkpoints_->OnBatchDurable(index_, seq_, batch_meta);
    }
  }
  if (health_ != nullptr) health_->ReportFlush(s);
  for (auto& w : waiters) w.Set(s);
}

LogManager::LogManager(Options options, Env* env, Executor* executor)
    : options_(options) {
  assert(options_.num_loggers >= 1);
  if (options_.enable_logging) {
    CheckpointManager::Options cp_options;
    cp_options.segment_bytes = options_.segment_bytes;
    cp_options.checkpoint_threshold_bytes =
        options_.checkpoint_threshold_bytes;
    checkpoints_ = std::make_unique<CheckpointManager>(cp_options, env);
  }
  // Discover the previous incarnation's WAL files: they are read by
  // recovery, then retired once recovered states have been re-checkpointed.
  // Each logger starts past the highest existing segment so it never
  // overwrites a file recovery still needs.
  std::vector<uint64_t> start_seq(options_.num_loggers, 1);
  std::vector<std::string> legacy;
  for (WalSegment& segment : ListWalSegments(*env)) {
    if (segment.logger < options_.num_loggers) {
      start_seq[segment.logger] =
          std::max(start_seq[segment.logger], segment.seq + 1);
    }
    legacy.push_back(std::move(segment.name));
  }
  if (checkpoints_ != nullptr) {
    checkpoints_->RegisterLegacyFiles(std::move(legacy));
  }
  loggers_.reserve(options_.num_loggers);
  for (size_t i = 0; i < options_.num_loggers; ++i) {
    loggers_.push_back(std::make_unique<Logger>(
        i, start_seq[i], env, std::make_shared<Strand>(executor), &health_,
        checkpoints_.get(), options_.segment_bytes));
  }
}

Logger& LogManager::LoggerFor(const ActorId& id) {
  return *loggers_[ActorIdHash()(id) % loggers_.size()];
}

Logger& LogManager::LoggerForCoordinator(uint64_t index) {
  return *loggers_[index % loggers_.size()];
}

Future<Status> LogManager::Append(const ActorId& id, LogRecord record) {
  if (!options_.enable_logging) {
    Promise<Status> p;
    p.Set(Status::OK());
    return p.GetFuture();
  }
  return LoggerFor(id).Append(std::move(record));
}

size_t LogManager::RetireLegacyFiles() {
  return checkpoints_ != nullptr ? checkpoints_->RetireLegacyFiles() : 0;
}

uint64_t LogManager::TotalRecords() const {
  uint64_t total = 0;
  for (const auto& l : loggers_) total += l->num_records();
  return total;
}

uint64_t LogManager::TotalSyncs() const {
  uint64_t total = 0;
  for (const auto& l : loggers_) total += l->num_syncs();
  return total;
}

uint64_t LogManager::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& l : loggers_) total += l->bytes_written();
  return total;
}

}  // namespace snapper
