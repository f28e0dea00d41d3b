#include "wal/log_format.h"

#include <gtest/gtest.h>

namespace snapper {
namespace {

LogRecord MakeBatchInfo() {
  LogRecord r;
  r.type = LogRecordType::kBatchInfo;
  r.id = 42;
  r.participants = {ActorId{1, 10}, ActorId{1, 20}, ActorId{2, 5}};
  return r;
}

LogRecord MakeBatchComplete() {
  LogRecord r;
  r.type = LogRecordType::kBatchComplete;
  r.id = 42;
  r.actor = ActorId{1, 10};
  r.state = "serialized-state-bytes";
  return r;
}

class LogRecordRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LogRecordRoundTrip, EncodeDecodeIdentity) {
  LogRecord r;
  r.type = static_cast<LogRecordType>(GetParam());
  r.id = 0xdeadbeef12345ull;
  r.actor = ActorId{3, 999};
  if (r.type == LogRecordType::kBatchInfo ||
      r.type == LogRecordType::kActCoordPrepare) {
    r.participants = {ActorId{1, 1}, ActorId{2, 2}};
  }
  if (r.type == LogRecordType::kBatchInfo) {
    r.prev_id = 0xdeadbeef12344ull;  // emission-chain predecessor
  }
  if (r.type == LogRecordType::kBatchComplete ||
      r.type == LogRecordType::kActPrepare) {
    r.state = std::string(100, 's');
  }
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord decoded;
  ASSERT_TRUE(decoded.DecodeFrom(payload));
  EXPECT_EQ(decoded.type, r.type);
  EXPECT_EQ(decoded.id, r.id);
  EXPECT_EQ(decoded.actor, r.actor);
  EXPECT_EQ(decoded.participants, r.participants);
  EXPECT_EQ(decoded.state, r.state);
  EXPECT_EQ(decoded.prev_id, r.prev_id);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, LogRecordRoundTrip,
                         ::testing::Range(1, 10));

TEST(LogRecordTest, DecodeRejectsTrailingGarbage) {
  std::string payload;
  MakeBatchInfo().EncodeTo(&payload);
  payload += "x";
  LogRecord decoded;
  EXPECT_FALSE(decoded.DecodeFrom(payload));
}

TEST(LogRecordTest, DecodeRejectsBadType) {
  std::string payload;
  MakeBatchInfo().EncodeTo(&payload);
  payload[0] = 99;
  LogRecord decoded;
  EXPECT_FALSE(decoded.DecodeFrom(payload));
}

TEST(LogCursorTest, ReadsSequence) {
  std::string log;
  FrameRecord(MakeBatchInfo(), &log);
  FrameRecord(MakeBatchComplete(), &log);
  LogRecord r;
  r.type = LogRecordType::kBatchCommit;
  r.id = 42;
  FrameRecord(r, &log);

  LogCursor cursor(log);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchInfo);
  EXPECT_EQ(out.participants.size(), 3u);
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchComplete);
  EXPECT_EQ(out.state, "serialized-state-bytes");
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchCommit);
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST(LogCursorTest, EmptyLogIsCleanEnd) {
  LogCursor cursor("");
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST(LogCursorTest, TornTailIsCorruption) {
  std::string log;
  FrameRecord(MakeBatchInfo(), &log);
  std::string full;
  FrameRecord(MakeBatchComplete(), &full);
  // Append only part of the second frame (torn write).
  log.append(full.substr(0, full.size() / 2));

  LogCursor cursor(log);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_TRUE(cursor.Next(&out).IsCorruption());
}

TEST(LogCursorTest, BitFlipIsCorruption) {
  std::string log;
  FrameRecord(MakeBatchComplete(), &log);
  log[log.size() / 2] ^= 0x40;
  LogCursor cursor(log);
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).IsCorruption());
}

TEST(LogCursorTest, EveryTruncationDetected) {
  std::string log;
  FrameRecord(MakeBatchComplete(), &log);
  for (size_t keep = 1; keep < log.size(); ++keep) {
    LogCursor cursor(std::string_view(log.data(), keep));
    LogRecord out;
    Status s = cursor.Next(&out);
    EXPECT_TRUE(s.IsCorruption()) << "keep=" << keep << " got " << s.ToString();
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// The framed bytes are the on-disk format: a WAL written by an older build
// must keep reading back, so any change to them is a format change.
TEST(LogCursorTest, FramedBytesMatchGolden) {
  LogRecord info;
  info.type = LogRecordType::kBatchInfo;
  info.id = 42;
  info.participants = {ActorId{1, 10}, ActorId{2, 300}};
  info.prev_id = 41;
  info.lsn = 9;
  LogRecord complete;
  complete.type = LogRecordType::kBatchComplete;
  complete.id = 42;
  complete.actor = ActorId{1, 10};
  complete.state = "state";
  complete.lsn = 10;
  std::string log;
  FrameRecord(info, &log);
  FrameRecord(complete, &log);
  EXPECT_EQ(Hex(log),
            "0d000000c5ad0a3c012a000002010a02ac02002a09"
            "0d000000326931f1022a010a00057374617465000a");

  LogCursor cursor(log);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.participants, info.participants);
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.state, "state");
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST(LogRecordTest, ToStringIsInformative) {
  EXPECT_NE(MakeBatchInfo().ToString().find("BatchInfo"), std::string::npos);
  EXPECT_NE(MakeBatchComplete().ToString().find("state_bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace snapper
