#include "wal/logger.h"

#include <gtest/gtest.h>

#include <atomic>

#include "async/executor.h"
#include "wal/env.h"

namespace snapper {
namespace {

LogRecord Record(uint64_t id) {
  LogRecord r;
  r.type = LogRecordType::kActCommit;
  r.id = id;
  r.actor = ActorId{0, id};
  return r;
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

TEST_F(LoggerTest, FlushResolvesWhenIdle) {
  Logger logger(0, 1, &env_, std::make_shared<Strand>(&ex_), nullptr, nullptr,
                0);
  EXPECT_TRUE(logger.Flush().Get().ok());
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

}  // namespace
}  // namespace snapper
