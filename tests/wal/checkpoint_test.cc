// CheckpointManager + segmented-logger tests: file naming, the WAL reader
// and the checkpoint cut, lag/threshold request plumbing, segment rolling,
// LSN monotonicity, and floor-based truncation (including the
// exact-boundary roll).
#include "wal/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "async/executor.h"
#include "snapper/recovery.h"
#include "wal/env.h"
#include "wal/log_format.h"
#include "wal/logger.h"

namespace snapper {
namespace {

LogRecord StateRecord(uint64_t key, std::string state) {
  LogRecord r;
  r.type = LogRecordType::kActPrepare;
  r.id = key;
  r.actor = ActorId{7, key};
  r.state = std::move(state);
  return r;
}

LogRecord CheckpointRecord(uint64_t key, std::string state) {
  LogRecord r;
  r.type = LogRecordType::kCheckpoint;
  r.actor = ActorId{7, key};
  r.state = std::move(state);
  return r;
}

// --- File naming ----------------------------------------------------------

TEST(WalFileNameTest, RoundTrip) {
  size_t logger = 99;
  uint64_t seq = 0;
  const std::string name = WalSegmentFileName(3, 12);
  EXPECT_EQ(name, "wal-3-000012.log");
  ASSERT_TRUE(ParseWalFileName(name, &logger, &seq));
  EXPECT_EQ(logger, 3u);
  EXPECT_EQ(seq, 12u);
}

TEST(WalFileNameTest, RejectsNonWalNames) {
  size_t logger = 0;
  uint64_t seq = 0;
  EXPECT_FALSE(ParseWalFileName("wal-.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1x.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1-2-3.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("foo-1.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1.txt", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-2.log", &logger, &seq));  // no seq
}

// The trap that motivates numeric ordering: the logger index is unpadded,
// so lexicographically logger 10's segments sort before logger 2's.
TEST(WalFileNameTest, LexicographicOrderWouldMisorderSegments) {
  const std::string ten = WalSegmentFileName(10, 1);
  const std::string two = WalSegmentFileName(2, 1);
  ASSERT_EQ(ten, "wal-10-000001.log");
  ASSERT_LT(ten, two);  // the lexicographic trap is real

  // ListWalSegments orders by (logger, seq) as numbers, groups loggers and
  // skips every other name.
  MemEnv env;
  for (const std::string& name :
       {ten, WalSegmentFileName(2, 10), two, std::string("trace-0.log"),
        WalSegmentFileName(2, 9), std::string("wal-0.txt"),
        std::string("wal-0.log")}) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile(name, &file).ok()) << name;
  }
  std::vector<std::string> names;
  for (const WalSegment& s : ListWalSegments(env)) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{two, WalSegmentFileName(2, 9),
                                             WalSegmentFileName(2, 10),
                                             ten}));
}

// --- The WAL reader and the checkpoint cut --------------------------------

/// MemEnv whose ReadFile of one file fails with a chosen status.
class ReadFailEnv : public MemEnv {
 public:
  Status ReadFile(const std::string& name, std::string* out) override {
    if (name == fail_name) return fail_status;
    return MemEnv::ReadFile(name, out);
  }

  std::string fail_name;
  Status fail_status;
};

class WalReaderTest : public ::testing::Test {
 protected:
  /// Logger 0: seq 1 holds keys 1, 2; seq 2 holds key 3 and then a torn
  /// frame of key 4; seq 3 holds key 5. Logger 1: seq 1 holds key 10.
  WalReaderTest() {
    WriteSegment(0, 1, {1, 2}, std::nullopt);
    WriteSegment(0, 2, {3}, 4);
    WriteSegment(0, 3, {5}, std::nullopt);
    WriteSegment(1, 1, {10}, std::nullopt);
  }

  void WriteSegment(size_t logger, uint64_t seq, std::vector<uint64_t> keys,
                    std::optional<uint64_t> torn_key) {
    std::string buf;
    for (uint64_t key : keys) FrameRecord(StateRecord(key, "s"), &buf);
    if (torn_key.has_value()) {
      std::string frame;
      FrameRecord(StateRecord(*torn_key, "s"), &frame);
      buf += frame.substr(0, frame.size() - 3);
    }
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        env_.NewWritableFile(WalSegmentFileName(logger, seq), &file).ok());
    ASSERT_TRUE(file->Append(buf).ok());
    ASSERT_TRUE(file->Sync().ok());
  }

  /// Keys of the records read, in visit order; `*status` gets the result.
  std::vector<uint64_t> Read(std::optional<size_t> only_logger,
                             Status* status) {
    std::vector<uint64_t> keys;
    *status = ForEachWalRecord(env_, only_logger, [&](LogRecord& record) {
      keys.push_back(record.actor.key);
    });
    return keys;
  }

  ReadFailEnv env_;
};

// Every logger's stream in (logger, seq) order, or one logger's alone; the
// torn frame ends segment 2 only, so segment 3 is still read.
TEST_F(WalReaderTest, VisitsStreamsInOrderAndFiltersByLogger) {
  Status status;
  EXPECT_EQ(Read(std::nullopt, &status),
            (std::vector<uint64_t>{1, 2, 3, 5, 10}));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(Read(0, &status), (std::vector<uint64_t>{1, 2, 3, 5}));
  EXPECT_EQ(Read(1, &status), (std::vector<uint64_t>{10}));
  EXPECT_TRUE(Read(7, &status).empty());
  EXPECT_TRUE(status.ok());
}

// A segment deleted by a racing truncation reads NotFound and is skipped;
// the segments after it are still read.
TEST_F(WalReaderTest, SkipsSegmentThatReadsNotFound) {
  env_.fail_name = WalSegmentFileName(0, 2);
  env_.fail_status = Status::NotFound("truncated");
  Status status;
  EXPECT_EQ(Read(std::nullopt, &status), (std::vector<uint64_t>{1, 2, 5, 10}));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Any other read error stops the walk and is returned — and recovery
// returns it rather than rebuilding from a partial log.
TEST_F(WalReaderTest, ReturnsOtherReadErrors) {
  env_.fail_name = WalSegmentFileName(0, 2);
  env_.fail_status = Status::IOError("bad sector");
  Status status;
  EXPECT_EQ(Read(std::nullopt, &status), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  // A filtered walk never reads another logger's segments.
  EXPECT_EQ(Read(1, &status), (std::vector<uint64_t>{10}));
  EXPECT_TRUE(status.ok());

  auto recovered = RecoveryManager::Run(&env_);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError)
      << recovered.status().ToString();
}

// A checkpoint drops the records before it, earlier checkpoints included,
// and keeps only what follows.
TEST(CheckpointCutTest, CountsSupersededRecords) {
  CheckpointCut cut;
  cut.Add(StateRecord(1, "p1"));
  cut.Add(StateRecord(1, "p2"));
  EXPECT_EQ(cut.after.size(), 2u);
  EXPECT_EQ(cut.superseded, 0u);

  cut.Add(CheckpointRecord(1, "c1"));
  EXPECT_EQ(cut.checkpoint, "c1");
  EXPECT_TRUE(cut.after.empty());
  EXPECT_EQ(cut.superseded, 2u);

  cut.Add(StateRecord(1, "p3"));
  cut.Add(CheckpointRecord(1, "c2"));  // supersedes p3 and c1
  cut.Add(StateRecord(1, "p4"));
  EXPECT_EQ(cut.checkpoint, "c2");
  ASSERT_EQ(cut.after.size(), 1u);
  EXPECT_EQ(cut.after[0].state, "p4");
  EXPECT_EQ(cut.superseded, 4u);
}

// --- CheckpointManager unit -----------------------------------------------

class CheckpointManagerTest : public ::testing::Test {
 protected:
  CheckpointManager::RecordMeta Meta(uint64_t key, uint64_t lsn, size_t bytes,
                                     LogRecordType type) {
    CheckpointManager::RecordMeta m;
    m.type = type;
    m.actor = ActorId{7, key};
    m.lsn = lsn;
    m.framed_bytes = bytes;
    m.state_bearing = true;
    return m;
  }

  MemEnv env_;
};

TEST_F(CheckpointManagerTest, ThresholdFiresRequestOnceUntilResolved) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 100},
                       &env_);
  std::vector<ActorId> requested;
  cp.SetRequestCheckpointFn(
      [&requested](const ActorId& id) { requested.push_back(id); });
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");

  cp.OnBatchDurable(0, 1, {Meta(1, 1, 60, LogRecordType::kActPrepare)});
  EXPECT_TRUE(requested.empty());  // below threshold
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 60u);

  cp.OnBatchDurable(0, 1, {Meta(1, 2, 60, LogRecordType::kActPrepare)});
  ASSERT_EQ(requested.size(), 1u);  // crossed: fires
  EXPECT_EQ(requested[0], (ActorId{7, 1}));

  cp.OnBatchDurable(0, 1, {Meta(1, 3, 60, LogRecordType::kActPrepare)});
  EXPECT_EQ(requested.size(), 1u);  // pending: no re-fire

  // The actor declines; the next durable state record re-triggers.
  cp.OnCheckpointSkipped(ActorId{7, 1});
  cp.OnBatchDurable(0, 1, {Meta(1, 4, 10, LogRecordType::kActPrepare)});
  EXPECT_EQ(requested.size(), 2u);
  EXPECT_EQ(cp.stats().checkpoint_requests.load(), 2u);
  EXPECT_EQ(cp.stats().checkpoint_skips.load(), 1u);
}

TEST_F(CheckpointManagerTest, DurableCheckpointResetsLagAndAdvancesFloor) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 100},
                       &env_);
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(1, 1, 150, LogRecordType::kActPrepare)});
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 150u);
  EXPECT_EQ(cp.CheckpointFloorLsn(), 0u);  // no checkpoint yet

  cp.OnBatchDurable(0, 1, {Meta(1, 2, 80, LogRecordType::kCheckpoint)});
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 0u);
  EXPECT_EQ(cp.stats().checkpoints_durable.load(), 1u);
  EXPECT_EQ(cp.CheckpointFloorLsn(), 2u);
  EXPECT_EQ(cp.stats().lag_bytes.load(), 0u);

  // A second actor without a checkpoint drags the floor back to 0.
  cp.OnBatchDurable(0, 1, {Meta(2, 3, 40, LogRecordType::kActPrepare)});
  EXPECT_EQ(cp.CheckpointFloorLsn(), 0u);
}

TEST_F(CheckpointManagerTest, PokeRefiresAfterSkip) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 50},
                       &env_);
  std::vector<ActorId> requested;
  cp.SetRequestCheckpointFn(
      [&requested](const ActorId& id) { requested.push_back(id); });
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(1, 1, 60, LogRecordType::kActPrepare)});
  ASSERT_EQ(requested.size(), 1u);
  cp.OnCheckpointSkipped(ActorId{7, 1});
  // No new append happens (e.g. a commit applied in memory); Poke must
  // re-evaluate the standing lag and re-ask.
  cp.Poke(ActorId{7, 1});
  EXPECT_EQ(requested.size(), 2u);
  // While pending, Poke stays silent.
  cp.Poke(ActorId{7, 1});
  EXPECT_EQ(requested.size(), 2u);
}

TEST_F(CheckpointManagerTest, ColdActorsOrdersByOldestDurableWrite) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 0},
                       &env_);
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(5, 50, 10, LogRecordType::kActPrepare),
                           Meta(3, 51, 10, LogRecordType::kActPrepare)});
  cp.OnBatchDurable(0, 1, {Meta(9, 90, 10, LogRecordType::kActPrepare)});
  cp.OnBatchDurable(0, 1, {Meta(5, 95, 10, LogRecordType::kActPrepare)});

  const auto cold = cp.ColdActors(2);
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(cold[0], (ActorId{7, 3}));  // last durable write at lsn 51
  EXPECT_EQ(cold[1], (ActorId{7, 9}));  // then 90; actor 5 is hottest (95)
}

// --- Segmented logger end-to-end ------------------------------------------

class SegmentedLoggerTest : public ::testing::Test {
 protected:
  SegmentedLoggerTest() : ex_(2) {}
  ~SegmentedLoggerTest() override { ex_.Stop(); }

  /// Names of the wal files currently on disk, in (logger, seq) order.
  std::vector<std::string> WalFiles() {
    std::vector<std::string> names;
    for (auto& segment : ListWalSegments(env_)) {
      names.push_back(std::move(segment.name));
    }
    return names;
  }

  Executor ex_;
  MemEnv env_;
};

TEST_F(SegmentedLoggerTest, RollsSegmentsAndKeepsLsnsMonotone) {
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 64,
                      .checkpoint_threshold_bytes = 0},
                     &env_, &ex_);
  const std::string state(40, 'x');
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
  }
  const auto files = WalFiles();
  ASSERT_GE(files.size(), 2u) << "expected at least one roll";

  uint64_t last_lsn = 0;
  size_t records = 0;
  ASSERT_TRUE(ForEachWalRecord(env_, std::nullopt, [&](LogRecord& out) {
                EXPECT_GT(out.lsn, last_lsn)
                    << "LSNs must increase across segments";
                last_lsn = out.lsn;
                ++records;
              }).ok());
  EXPECT_EQ(records, 8u);
  EXPECT_GE(manager.checkpoints()->stats().segments_sealed.load(), 1u);
}

TEST_F(SegmentedLoggerTest, TruncatesSegmentsBelowCheckpointFloor) {
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 64,
                      .checkpoint_threshold_bytes = 0},
                     &env_, &ex_);
  const std::string state(40, 'x');
  // Two actors interleave; then both checkpoint, superseding everything.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
    ASSERT_TRUE(
        manager.Append(ActorId{7, 2}, StateRecord(2, state)).Get().ok());
  }
  const auto before = WalFiles();
  ASSERT_GE(before.size(), 3u);
  const uint64_t bytes_before = [&] {
    uint64_t total = 0;
    for (const auto& f : before) {
      std::string content;
      if (env_.ReadFile(f, &content).ok()) total += content.size();
    }
    return total;
  }();

  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, CheckpointRecord(1, state)).Get().ok());
  ASSERT_TRUE(
      manager.Append(ActorId{7, 2}, CheckpointRecord(2, state)).Get().ok());

  const auto& stats = manager.checkpoints()->stats();
  EXPECT_GE(stats.segments_truncated.load(), 1u);
  EXPECT_GT(stats.bytes_truncated.load(), 0u);
  // The first segment is fully below the floor and must be gone.
  EXPECT_FALSE(env_.FileExists(before.front()));
  const uint64_t bytes_after = [&] {
    uint64_t total = 0;
    for (const auto& f : WalFiles()) {
      std::string content;
      if (env_.ReadFile(f, &content).ok()) total += content.size();
    }
    return total;
  }();
  EXPECT_LT(bytes_after, bytes_before + 2 * (state.size() + 32))
      << "disk usage must not keep the truncated prefix";
  EXPECT_EQ(manager.checkpoints()->stats().checkpoints_durable.load(), 2u);
  EXPECT_GT(manager.checkpoints()->CheckpointFloorLsn(), 0u);
}

// Roll boundary: a segment sized exactly to one framed record seals after
// every append, so truncation retires a segment whose max LSN equals the
// floor boundary's predecessor — the strict `max_lsn < floor` comparison.
TEST_F(SegmentedLoggerTest, TruncatesAtExactSegmentBoundary) {
  LogRecord probe = StateRecord(1, std::string(40, 'x'));
  probe.lsn = 1;  // same varint width as the live LSNs below
  std::string framed;
  FrameRecord(probe, &framed);

  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = framed.size(),
                      .checkpoint_threshold_bytes = 0},
                     &env_, &ex_);
  const std::string state(40, 'x');
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
  }
  // One record per segment: 3 sealed-or-active single-record segments.
  ASSERT_GE(WalFiles().size(), 3u);
  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, CheckpointRecord(1, state)).Get().ok());
  // All three state segments are below the floor; only the checkpoint's
  // segment (and any empty successor) survives.
  EXPECT_GE(manager.checkpoints()->stats().segments_truncated.load(), 3u);
  ASSERT_TRUE(ForEachWalRecord(env_, std::nullopt, [](LogRecord& out) {
                EXPECT_EQ(out.type, LogRecordType::kCheckpoint)
                    << "only the checkpoint may survive truncation";
              }).ok());
}

TEST_F(SegmentedLoggerTest, LegacyFilesRetireOnDemand) {
  const std::string old_segment = WalSegmentFileName(0, 1);
  {
    // Previous incarnation: one segment.
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile(old_segment, &file).ok());
    std::string framed;
    FrameRecord(StateRecord(1, "old"), &framed);
    ASSERT_TRUE(file->Append(framed).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 0,
                      .checkpoint_threshold_bytes = 0},
                     &env_, &ex_);
  // New appends land in a *new* segment past the previous incarnation's.
  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, StateRecord(1, "new")).Get().ok());
  EXPECT_TRUE(env_.FileExists(old_segment));
  EXPECT_TRUE(env_.FileExists(WalSegmentFileName(0, 2)));

  EXPECT_EQ(manager.RetireLegacyFiles(), 1u);
  EXPECT_FALSE(env_.FileExists(old_segment));
  EXPECT_TRUE(env_.FileExists(WalSegmentFileName(0, 2)));
}

}  // namespace
}  // namespace snapper
