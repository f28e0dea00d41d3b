#include "wal/checkpoint.h"

#include "common/lock_rank.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace snapper {

namespace {
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";
}  // namespace

std::string WalSegmentFileName(size_t logger, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%zu-%06" PRIu64 ".log", logger, seq);
  return buf;
}

bool ParseWalFileName(std::string_view name, size_t* logger, uint64_t* seq) {
  if (name.size() <= sizeof(kWalPrefix) - 1 + sizeof(kWalSuffix) - 1) {
    return false;
  }
  if (name.substr(0, 4) != kWalPrefix) return false;
  if (name.substr(name.size() - 4) != kWalSuffix) return false;
  std::string_view body = name.substr(4, name.size() - 8);
  auto parse_u64 = [](std::string_view s, uint64_t* out) {
    if (s.empty()) return false;
    uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
  };
  size_t dash = body.find('-');
  uint64_t logger_v = 0;
  if (dash == std::string_view::npos) {
    // Legacy single-file name "wal-<logger>.log": sorts before any segment.
    if (!parse_u64(body, &logger_v)) return false;
    *logger = static_cast<size_t>(logger_v);
    *seq = 0;
    return true;
  }
  uint64_t seq_v = 0;
  if (!parse_u64(body.substr(0, dash), &logger_v)) return false;
  if (!parse_u64(body.substr(dash + 1), &seq_v)) return false;
  *logger = static_cast<size_t>(logger_v);
  *seq = seq_v;
  return true;
}

std::vector<WalSegment> ListWalSegments(Env& env) {
  std::vector<WalSegment> segments;
  for (std::string& name : env.ListFiles()) {
    WalSegment s;
    if (ParseWalFileName(name, &s.logger, &s.seq)) {
      s.name = std::move(name);
      segments.push_back(std::move(s));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.logger != b.logger ? a.logger < b.logger
                                          : a.seq < b.seq;
            });
  return segments;
}

CheckpointManager::CheckpointManager(Options options, Env* env)
    : options_(options), env_(env) {
  // Name-only: this lock is legitimately held across env IO on the
  // truncation path, so it has no fixed layer in the env rank stack.
  RegisterLockName(&mu_, "CheckpointManager::mu_");
}

void CheckpointManager::SetRequestCheckpointFn(RequestCheckpointFn fn) {
  MutexLock lock(&mu_);
  request_fn_ = std::move(fn);
}

void CheckpointManager::OnSegmentOpen(size_t logger, uint64_t seq,
                                      const std::string& file) {
  MutexLock lock(&mu_);
  Segment& seg = segments_[{logger, seq}];
  seg.file = file;
}

void CheckpointManager::OnSegmentSealed(size_t logger, uint64_t seq) {
  stats_.segments_sealed.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  auto it = segments_.find({logger, seq});
  if (it == segments_.end()) return;
  it->second.sealed = true;
  TruncateCoveredSegmentsLocked();
}

void CheckpointManager::OnBatchDurable(
    size_t logger, uint64_t seq, const std::vector<RecordMeta>& batch) {
  std::vector<ActorId> to_request;
  RequestCheckpointFn fn;
  {
    MutexLock lock(&mu_);
    Segment& seg = segments_[{logger, seq}];
    bool floor_may_advance = false;
    for (const RecordMeta& meta : batch) {
      seg.max_lsn = std::max(seg.max_lsn, meta.lsn);
      seg.bytes += meta.framed_bytes;
      if (!meta.state_bearing) continue;
      ActorInfo& actor = actors_[meta.actor];
      actor.last_lsn = std::max(actor.last_lsn, meta.lsn);
      if (meta.type == LogRecordType::kCheckpoint) {
        actor.checkpoint_lsn = std::max(actor.checkpoint_lsn, meta.lsn);
        // Records durable after this checkpoint (later in this batch or in
        // later flushes) re-accumulate lag; FIFO durability reporting makes
        // the reset exact.
        stats_.lag_bytes.fetch_sub(actor.lag_bytes,
                                   std::memory_order_relaxed);
        actor.lag_bytes = 0;
        actor.request_pending = false;
        stats_.checkpoints_durable.fetch_add(1, std::memory_order_relaxed);
        floor_may_advance = true;
      } else {
        actor.lag_bytes += meta.framed_bytes;
        stats_.lag_bytes.fetch_add(meta.framed_bytes,
                                   std::memory_order_relaxed);
        if (options_.checkpoint_threshold_bytes > 0 &&
            actor.lag_bytes >= options_.checkpoint_threshold_bytes &&
            !actor.request_pending) {
          actor.request_pending = true;
          to_request.push_back(meta.actor);
        }
      }
    }
    if (floor_may_advance) TruncateCoveredSegmentsLocked();
    if (!to_request.empty()) fn = request_fn_;
  }
  if (!fn) return;
  for (const ActorId& id : to_request) {
    stats_.checkpoint_requests.fetch_add(1, std::memory_order_relaxed);
    fn(id);
  }
}

void CheckpointManager::OnCheckpointSkipped(const ActorId& id) {
  stats_.checkpoint_skips.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  auto it = actors_.find(id);
  if (it != actors_.end()) it->second.request_pending = false;
}

void CheckpointManager::Poke(const ActorId& id) {
  RequestCheckpointFn fn;
  {
    MutexLock lock(&mu_);
    auto it = actors_.find(id);
    if (it == actors_.end()) return;
    if (options_.checkpoint_threshold_bytes == 0 ||
        it->second.lag_bytes < options_.checkpoint_threshold_bytes ||
        it->second.request_pending) {
      return;
    }
    it->second.request_pending = true;
    fn = request_fn_;
  }
  if (!fn) return;
  stats_.checkpoint_requests.fetch_add(1, std::memory_order_relaxed);
  fn(id);
}

std::vector<ActorId> CheckpointManager::ColdActors(size_t max_n) const {
  std::vector<std::pair<uint64_t, ActorId>> by_age;
  {
    MutexLock lock(&mu_);
    by_age.reserve(actors_.size());
    for (const auto& [id, info] : actors_) {
      by_age.emplace_back(info.last_lsn, id);
    }
  }
  std::sort(by_age.begin(), by_age.end());
  if (by_age.size() > max_n) by_age.resize(max_n);
  std::vector<ActorId> out;
  out.reserve(by_age.size());
  for (const auto& [lsn, id] : by_age) out.push_back(id);
  return out;
}

void CheckpointManager::RegisterLegacyFiles(std::vector<std::string> names) {
  MutexLock lock(&mu_);
  legacy_files_ = std::move(names);
}

size_t CheckpointManager::RetireLegacyFiles() {
  std::vector<std::string> files;
  {
    MutexLock lock(&mu_);
    files.swap(legacy_files_);
  }
  size_t deleted = 0;
  for (const std::string& name : files) {
    std::string content;
    uint64_t bytes = 0;
    if (env_->ReadFile(name, &content).ok()) bytes = content.size();
    if (env_->DeleteFile(name).ok()) {
      ++deleted;
      stats_.segments_truncated.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_truncated.fetch_add(bytes, std::memory_order_relaxed);
    }
  }
  return deleted;
}

uint64_t CheckpointManager::LagBytes(const ActorId& id) const {
  MutexLock lock(&mu_);
  auto it = actors_.find(id);
  return it == actors_.end() ? 0 : it->second.lag_bytes;
}

uint64_t CheckpointManager::CheckpointFloorLsn() const {
  MutexLock lock(&mu_);
  return FloorLocked();
}

uint64_t CheckpointManager::FloorLocked() const {
  if (actors_.empty()) return 0;
  uint64_t floor = std::numeric_limits<uint64_t>::max();
  for (const auto& [id, info] : actors_) {
    floor = std::min(floor, info.checkpoint_lsn);
  }
  return floor;
}

void CheckpointManager::TruncateCoveredSegmentsLocked() {
  const uint64_t floor = FloorLocked();
  if (floor == 0) return;
  for (auto it = segments_.begin(); it != segments_.end();) {
    const Segment& seg = it->second;
    if (!seg.sealed || seg.max_lsn == 0 || seg.max_lsn >= floor) {
      ++it;
      continue;
    }
    // Ignore deletion failures: a surviving covered segment only costs scan
    // time on the next recovery, never correctness.
    env_->DeleteFile(seg.file);
    stats_.segments_truncated.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_truncated.fetch_add(seg.bytes, std::memory_order_relaxed);
    it = segments_.erase(it);
  }
}

}  // namespace snapper
