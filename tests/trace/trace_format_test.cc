#include "trace/trace_format.h"

#include <gtest/gtest.h>

#include <string>

#include "trace/trace_session.h"

namespace snapper::trace {
namespace {

TraceRecord Meta() {
  TraceRecord r;
  r.type = TraceRecordType::kMeta;
  r.version = kTraceFormatVersion;
  r.flags = 7;
  return r;
}

// Every record type survives encode → frame → cursor → decode with all of
// its fields intact.
TEST(TraceFormatTest, RoundTripAllRecordTypes) {
  std::string buf;
  FrameTraceRecord(Meta(), &buf);

  TraceRecord root;
  root.type = TraceRecordType::kThreadRoot;
  root.ctx = 0xabcdef0123456789ull;
  root.name = "harness";
  FrameTraceRecord(root, &buf);

  TraceRecord bind;
  bind.type = TraceRecordType::kStrandBind;
  bind.strand_id = 42;
  bind.name = "SmallBankAccount/7#3";
  FrameTraceRecord(bind, &buf);

  TraceRecord turn;
  turn.type = TraceRecordType::kTurn;
  turn.ctx = 0x1111222233334444ull;
  turn.seq = 19;
  turn.strand_id = 42;
  FrameTraceRecord(turn, &buf);

  TraceRecord digest;
  digest.type = TraceRecordType::kDigest;
  digest.strand_id = 42;
  digest.turn_index = 116;
  digest.digest = 0xfeedfacecafebeefull;
  FrameTraceRecord(digest, &buf);

  TraceRecord decision;
  decision.type = TraceRecordType::kDecision;
  decision.site = 4;
  decision.ctx = 0x5555666677778888ull;
  decision.value = 2;
  FrameTraceRecord(decision, &buf);

  TraceRecord tryset;
  tryset.type = TraceRecordType::kTrySet;
  tryset.future_id = 901;
  tryset.ctx = 0x9999aaaabbbbccccull;
  tryset.won = true;
  FrameTraceRecord(tryset, &buf);

  TraceRecord counters;
  counters.type = TraceRecordType::kCounters;
  counters.counters = {{"committed", 17}, {"aborted", 3}, {"actor_kills", 2}};
  FrameTraceRecord(counters, &buf);

  TraceRecord end;
  end.type = TraceRecordType::kEnd;
  FrameTraceRecord(end, &buf);

  TraceCursor cursor(buf);
  TraceRecord r;

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kMeta);
  EXPECT_EQ(r.version, kTraceFormatVersion);
  EXPECT_EQ(r.flags, 7u);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kThreadRoot);
  EXPECT_EQ(r.ctx, 0xabcdef0123456789ull);
  EXPECT_EQ(r.name, "harness");

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kStrandBind);
  EXPECT_EQ(r.strand_id, 42u);
  EXPECT_EQ(r.name, "SmallBankAccount/7#3");

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kTurn);
  EXPECT_EQ(r.ctx, 0x1111222233334444ull);
  EXPECT_EQ(r.seq, 19u);
  EXPECT_EQ(r.strand_id, 42u);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kDigest);
  EXPECT_EQ(r.strand_id, 42u);
  EXPECT_EQ(r.turn_index, 116u);
  EXPECT_EQ(r.digest, 0xfeedfacecafebeefull);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kDecision);
  EXPECT_EQ(r.site, 4u);
  EXPECT_EQ(r.ctx, 0x5555666677778888ull);
  EXPECT_EQ(r.value, 2u);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kTrySet);
  EXPECT_EQ(r.future_id, 901u);
  EXPECT_EQ(r.ctx, 0x9999aaaabbbbccccull);
  EXPECT_TRUE(r.won);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kCounters);
  ASSERT_EQ(r.counters.size(), 3u);
  EXPECT_EQ(r.counters[0].first, "committed");
  EXPECT_EQ(r.counters[0].second, 17u);
  EXPECT_EQ(r.counters[2].first, "actor_kills");
  EXPECT_EQ(r.counters[2].second, 2u);

  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.type, TraceRecordType::kEnd);

  // Clean end: NotFound, exactly like the WAL cursor.
  EXPECT_TRUE(cursor.Next(&r).IsNotFound());
}

// A capture that died mid-write leaves a torn frame; the cursor must report
// kCorruption, never parse garbage or walk off the buffer.
TEST(TraceFormatTest, TornTailIsCorruption) {
  std::string buf;
  FrameTraceRecord(Meta(), &buf);
  TraceRecord turn;
  turn.type = TraceRecordType::kTurn;
  turn.ctx = 77;
  turn.seq = 3;
  FrameTraceRecord(turn, &buf);
  const size_t full = buf.size();

  // Every strict prefix that cuts into the second frame is a torn tail.
  for (size_t cut = full - 1; cut > full - 9; --cut) {
    TraceCursor cursor(std::string_view(buf).substr(0, cut));
    TraceRecord r;
    ASSERT_TRUE(cursor.Next(&r).ok()) << "cut=" << cut;
    EXPECT_EQ(r.type, TraceRecordType::kMeta);
    EXPECT_TRUE(cursor.Next(&r).IsCorruption()) << "cut=" << cut;
  }
}

// A flipped payload byte fails the CRC even when the length field is intact.
TEST(TraceFormatTest, BitFlipIsCorruption) {
  std::string buf;
  FrameTraceRecord(Meta(), &buf);
  buf.back() ^= 0x40;
  TraceCursor cursor(buf);
  TraceRecord r;
  EXPECT_TRUE(cursor.Next(&r).IsCorruption());
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

// The framed bytes are the on-disk format: a trace captured by an older
// build must keep replaying, so any change to them is a format change.
TEST(TraceFormatTest, FramedBytesMatchGolden) {
  TraceRecord turn;
  turn.type = TraceRecordType::kTurn;
  turn.ctx = 0x0102030405060708ull;
  turn.seq = 300;
  turn.strand_id = 7;
  TraceRecord counters;
  counters.type = TraceRecordType::kCounters;
  counters.counters = {{"committed", 12}, {"aborted", 3}};
  std::string buf;
  FrameTraceRecord(turn, &buf);
  FrameTraceRecord(counters, &buf);
  EXPECT_EQ(Hex(buf),
            "13000000a7fa4916040807060504030201ac020700000000000000"
            "16000000dba45034080209636f6d6d69747465640c0761626f7274656403");

  TraceCursor cursor(buf);
  TraceRecord r;
  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.seq, 300u);
  ASSERT_TRUE(cursor.Next(&r).ok());
  EXPECT_EQ(r.counters, counters.counters);
  EXPECT_TRUE(cursor.Next(&r).IsNotFound());
}

TEST(TraceFormatTest, DecodeRejectsUnknownType) {
  TraceRecord r;
  EXPECT_FALSE(r.DecodeFrom(std::string_view("\xff garbage", 8)));
  EXPECT_FALSE(r.DecodeFrom(std::string_view()));
}

TEST(TraceFormatTest, TracePathForShape) {
  EXPECT_EQ(TracePathFor("/tmp/traces", "snapper", 9007),
            "/tmp/traces/snapper-seed9007.trace");
}

}  // namespace
}  // namespace snapper::trace
