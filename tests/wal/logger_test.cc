#include "wal/logger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "async/executor.h"
#include "wal/env.h"
#include "wal/fault_env.h"

namespace snapper {
namespace {

LogRecord Record(uint64_t id) {
  LogRecord r;
  r.type = LogRecordType::kActCommit;
  r.id = id;
  r.actor = ActorId{0, id};
  return r;
}

/// Env decorator whose Sync blocks at a gate until the test lets it
/// through, so a test can act while a group is in flight on the flusher.
class GatedSyncEnv : public Env {
 public:
  explicit GatedSyncEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    Status s = base_->NewWritableFile(name, &inner);
    if (s.ok()) *file = std::make_unique<File>(std::move(inner), this);
    return s;
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    return base_->ReadFile(name, out);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return base_->ListFiles(); }

  /// Blocks until `n` syncs in total have reached the gate.
  void WaitForSyncs(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

  /// Lets `n` more syncs through the gate.
  void Release(int n = 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ += n;
    }
    cv_.notify_all();
  }

  /// Group writes (Appends) seen so far.
  int appends() {
    std::lock_guard<std::mutex> lock(mu_);
    return appends_;
  }

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> inner, GatedSyncEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Append(std::string_view data) override {
      env_->CountAppend();
      return inner_->Append(data);
    }
    Status Sync() override {
      env_->Gate();
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    GatedSyncEnv* env_;
  };

  void CountAppend() {
    std::lock_guard<std::mutex> lock(mu_);
    ++appends_;
  }

  void Gate() {
    std::unique_lock<std::mutex> lock(mu_);
    const int ticket = arrived_++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ > ticket; });
  }

  Env* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  int released_ = 0;
  int appends_ = 0;
};

/// Returns once every task posted to `strand` before the call has run.
void DrainStrand(Strand& strand) {
  Promise<Unit> done;
  strand.Post([done] { done.Set(Unit{}); });
  done.GetFuture().Get();
}

/// Ids of the records in `file`, in log order.
std::vector<uint64_t> ReadIds(Env& env, const std::string& file) {
  std::string content;
  EXPECT_TRUE(env.ReadFile(file, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  std::vector<uint64_t> ids;
  while (cursor.Next(&out).ok()) ids.push_back(out.id);
  return ids;
}

/// Ids of this process's threads (Linux). Compared as sets: a thread that
/// an earlier test joined may still be listed for a moment.
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(task.path().filename().string());
  }
  return ids;
}

/// Threads started since `before` was taken.
size_t NewThreads(const std::set<std::string>& before) {
  size_t started = 0;
  for (const auto& id : ThreadIds()) started += before.count(id) == 0 ? 1 : 0;
  return started;
}

class LoggerTest : public ::testing::Test {
 protected:
  LoggerTest() : ex_(2) {}
  ~LoggerTest() override { ex_.Stop(); }

  /// Where logger 0, built at seq 1, writes its first segment.
  const std::string kFile = WalSegmentFileName(0, 1);
  Executor ex_;
  MemEnv env_;
};

TEST_F(LoggerTest, AppendIsDurableWhenResolved) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  ASSERT_TRUE(logger.Append(Record(1)).Get().ok());
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.id, 1u);
}

TEST_F(LoggerTest, RecordsAppearInAppendOrder) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  std::vector<Future<Status>> futures;
  for (uint64_t i = 0; i < 100; ++i) futures.push_back(logger.Append(Record(i)));
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(cursor.Next(&out).ok());
    EXPECT_EQ(out.id, i);
  }
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST_F(LoggerTest, GroupCommitBatchesConcurrentAppends) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  constexpr int kAppends = 500;
  std::vector<Future<Status>> futures;
  futures.reserve(kAppends);
  for (int i = 0; i < kAppends; ++i) futures.push_back(logger.Append(Record(i)));
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  EXPECT_EQ(logger.num_records(), static_cast<uint64_t>(kAppends));
  // The whole point of group commit: far fewer syncs than appends.
  EXPECT_LT(logger.num_syncs(), static_cast<uint64_t>(kAppends));
  EXPECT_GE(logger.num_syncs(), 1u);
}

TEST_F(LoggerTest, StatsAccumulate) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  logger.Append(Record(1)).Get();
  logger.Append(Record(2)).Get();
  EXPECT_EQ(logger.num_records(), 2u);
  EXPECT_GT(logger.bytes_written(), 0u);
}

TEST_F(LoggerTest, ManagerRoutesByActorHashStably) {
  LogManager mgr({.num_loggers = 4, .enable_logging = true}, &env_, &ex_);
  ActorId a{1, 77};
  Logger* first = &mgr.LoggerFor(a);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(&mgr.LoggerFor(a), first);
}

TEST_F(LoggerTest, ManagerSpreadsActorsAcrossLoggers) {
  LogManager mgr({.num_loggers = 4, .enable_logging = true}, &env_, &ex_);
  std::set<Logger*> used;
  for (uint64_t k = 0; k < 100; ++k) used.insert(&mgr.LoggerFor(ActorId{1, k}));
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(LoggerTest, DisabledLoggingResolvesImmediately) {
  LogManager mgr({.num_loggers = 2, .enable_logging = false}, &env_, &ex_);
  auto f = mgr.Append(ActorId{1, 1}, Record(9));
  EXPECT_TRUE(f.ready());
  EXPECT_TRUE(f.Get().ok());
  EXPECT_EQ(mgr.TotalRecords(), 0u);
}

TEST_F(LoggerTest, DisabledLoggingStartsNoFlusherThread) {
  const auto before = ThreadIds();
  {
    LogManager mgr({.num_loggers = 2, .enable_logging = false}, &env_, &ex_);
    ASSERT_TRUE(mgr.Append(ActorId{1, 1}, Record(1)).Get().ok());
    EXPECT_EQ(NewThreads(before), 0u);
  }
  // The control: each logger that writes a group starts one flusher.
  LogManager mgr({.num_loggers = 2, .enable_logging = true}, &env_, &ex_);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(mgr.Append(ActorId{1, k}, Record(k)).Get().ok());
  }
  EXPECT_EQ(NewThreads(before), 2u);
}

TEST_F(LoggerTest, ManagerAggregateStats) {
  LogManager mgr({.num_loggers = 2, .enable_logging = true}, &env_, &ex_);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(mgr.Append(ActorId{1, k}, Record(k)).Get().ok());
  }
  EXPECT_EQ(mgr.TotalRecords(), 20u);
  EXPECT_GT(mgr.TotalBytes(), 0u);
  EXPECT_GE(mgr.TotalSyncs(), 1u);
}

TEST_F(LoggerTest, CrashLosesOnlyUnresolvedAppends) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  ASSERT_TRUE(logger.Append(Record(1)).Get().ok());
  env_.CrashAll();
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).ok());  // resolved append survived
  EXPECT_EQ(out.id, 1u);
}

TEST_F(LoggerTest, AppendsDuringInFlightSyncFormTheNextGroup) {
  GatedSyncEnv env(&env_);
  auto strand = std::make_shared<Strand>(&ex_);
  Logger logger(0, 1, &env, strand, nullptr, nullptr, 0);
  auto first = logger.Append(Record(1));
  env.WaitForSyncs(1);
  auto second = logger.Append(Record(2));
  auto third = logger.Append(Record(3));
  DrainStrand(*strand);  // both appends are buffered behind the sync

  env.Release();
  ASSERT_TRUE(first.Get().ok());
  env.WaitForSyncs(2);
  EXPECT_FALSE(second.ready());
  EXPECT_FALSE(third.ready());
  EXPECT_EQ(env.appends(), 2);  // one write per group

  env.Release();
  ASSERT_TRUE(second.Get().ok());
  ASSERT_TRUE(third.Get().ok());
  EXPECT_EQ(logger.num_syncs(), 2u);
  EXPECT_EQ(ReadIds(env_, kFile), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(LoggerTest, FailedInFlightSyncFailsOnlyItsOwnGroup) {
  FaultInjectionEnv faults(&env_);
  GatedSyncEnv env(&faults);
  WalHealth health;
  auto strand = std::make_shared<Strand>(&ex_);
  Logger logger(0, 1, &env, strand, &health, nullptr, 0);
  faults.FailNth(FaultInjectionEnv::Op::kSync, 1);
  auto doomed = logger.Append(Record(1));
  env.WaitForSyncs(1);
  auto next = logger.Append(Record(2));
  DrainStrand(*strand);

  env.Release();
  EXPECT_EQ(doomed.Get().code(), StatusCode::kIOError);
  EXPECT_TRUE(health.degraded());
  env.WaitForSyncs(2);
  EXPECT_FALSE(next.ready());  // the failure was not its group's

  env.Release();
  EXPECT_TRUE(next.Get().ok());
  EXPECT_FALSE(health.degraded());
  EXPECT_EQ(health.failures(), 1u);
  EXPECT_EQ(ReadIds(env, kFile), (std::vector<uint64_t>{2}));
}

TEST_F(LoggerTest, CrashDuringInFlightSyncKeepsResolvedAppends) {
  FaultInjectionEnv faults(&env_);
  GatedSyncEnv env(&faults);
  auto strand = std::make_shared<Strand>(&ex_);
  Logger logger(0, 1, &env, strand, nullptr, nullptr, 0);
  std::vector<Future<Status>> futures;
  futures.push_back(logger.Append(Record(1)));
  env.Release();
  ASSERT_TRUE(futures[0].Get().ok());
  futures.push_back(logger.Append(Record(2)));
  env.WaitForSyncs(2);
  futures.push_back(logger.Append(Record(3)));
  DrainStrand(*strand);

  ASSERT_TRUE(faults.Crash().ok());
  env.Release(2);
  std::vector<uint64_t> resolved_ok;
  for (uint64_t i = 0; i < futures.size(); ++i) {
    if (futures[i].Get().ok()) resolved_ok.push_back(i + 1);
  }
  EXPECT_EQ(resolved_ok, (std::vector<uint64_t>{1}));
  EXPECT_EQ(ReadIds(env, kFile), resolved_ok);
}

TEST_F(LoggerTest, ManagerDestroyedWithSyncInFlightSetsNoPromise) {
  GatedSyncEnv env(&env_);
  auto mgr = std::make_unique<LogManager>(
      LogManager::Options{.num_loggers = 1, .enable_logging = true}, &env,
      &ex_);
  auto pending = mgr->Append(ActorId{1, 1}, Record(1));
  env.WaitForSyncs(1);
  // The runtimes' teardown order: workers stop, then the log manager goes.
  ex_.Stop();
  std::thread teardown([&] { mgr.reset(); });
  env.Release();
  teardown.join();
  EXPECT_FALSE(pending.ready());
}

TEST_F(LoggerTest, CountsOnlyDurableBytesAndSyncsThatRan) {
  FaultInjectionEnv faults(&env_);
  LogManager mgr({.num_loggers = 1, .enable_logging = true}, &faults, &ex_);
  const ActorId actor{1, 1};
  ASSERT_TRUE(mgr.Append(actor, Record(1)).Get().ok());
  faults.FailNth(FaultInjectionEnv::Op::kSync, 1);
  EXPECT_FALSE(mgr.Append(actor, Record(2)).Get().ok());
  faults.FailNth(FaultInjectionEnv::Op::kAppend, 1);
  EXPECT_FALSE(mgr.Append(actor, Record(3)).Get().ok());
  ASSERT_TRUE(mgr.Append(actor, Record(4)).Get().ok());

  std::string content;
  ASSERT_TRUE(faults.ReadFile(kFile, &content).ok());
  EXPECT_EQ(ReadIds(faults, kFile), (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(mgr.TotalBytes(), content.size());
  EXPECT_EQ(mgr.TotalSyncs(), 3u);  // the failed append's sync never ran
  EXPECT_EQ(mgr.TotalRecords(), 4u);
}

}  // namespace
}  // namespace snapper
