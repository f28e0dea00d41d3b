// Storage environment abstraction (RocksDB-style Env): lets the WAL run
// against real files (PosixEnv) or an in-memory store with crash simulation
// (MemEnv) for tests and logging-enabled benches without disk variance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/status.h"

namespace snapper {

/// Append-only file handle. Not thread-safe; each Logger serializes access:
/// its strand opens and rolls the file, and its flusher writes one group at
/// a time.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Durably persists everything appended so far.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& name,
                                 std::unique_ptr<WritableFile>* file) = 0;
  /// Reads the entire (durable) content of a file.
  virtual Status ReadFile(const std::string& name, std::string* out) = 0;
  virtual Status DeleteFile(const std::string& name) = 0;
  virtual bool FileExists(const std::string& name) = 0;
  virtual std::vector<std::string> ListFiles() = 0;
};

/// Real files under a directory. `fsync` can be disabled for benches where
/// the paper's io2 SSD is not available (documented in EXPERIMENTS.md).
class PosixEnv : public Env {
 public:
  explicit PosixEnv(std::string dir, bool fsync = true);

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override;
  Status ReadFile(const std::string& name, std::string* out) override;
  Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) override;
  std::vector<std::string> ListFiles() override;

 private:
  std::string Path(const std::string& name) const;
  std::string dir_;
  bool fsync_;
};

/// In-memory environment. Appends land in an "unsynced" tail that becomes
/// durable only on Sync(); CrashAll() drops every unsynced tail, simulating
/// power loss for recovery tests (torn writes can be injected as well).
class MemEnv : public Env {
 public:
  MemEnv() { RegisterLockRank(&mu_, LockRank::kComponent, "MemEnv::mu_"); }

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override;
  Status ReadFile(const std::string& name, std::string* out) override;
  Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) override;
  std::vector<std::string> ListFiles() override;

  /// Synthetic durability latency applied by every Sync(), simulating the
  /// paper's SSD volume (benches default to ~100us; tests leave it at 0).
  /// Sleeping blocks the calling (logger) thread, like a real fdatasync.
  void set_sync_latency(std::chrono::microseconds latency) {
    sync_latency_us_.store(static_cast<int64_t>(latency.count()));
  }
  int64_t sync_latency_us() const { return sync_latency_us_.load(); }

  /// Drops all unsynced data (crash simulation).
  void CrashAll();

  /// Drops all unsynced data and additionally truncates `tear_bytes` off the
  /// durable tail of every file — simulates a torn final sector.
  void CrashAllTorn(size_t tear_bytes);

  /// Total durable bytes across files (stats for benches).
  size_t TotalSyncedBytes();

  /// Internal per-file state; public so the file handle (an implementation
  /// detail in env.cc) can share it. Guarded by its own mutex because
  /// CrashAll() may race with concurrent appends from logger strands.
  struct FileState {
    FileState() {
      RegisterLockRank(&mu, LockRank::kLeaf, "MemEnv::FileState::mu");
    }
    Mutex mu;
    std::string synced GUARDED_BY(mu);
    std::string unsynced GUARDED_BY(mu);
  };

 private:
  Mutex mu_;
  std::map<std::string, std::shared_ptr<FileState>> files_ GUARDED_BY(mu_);
  std::atomic<int64_t> sync_latency_us_{0};
};

}  // namespace snapper
