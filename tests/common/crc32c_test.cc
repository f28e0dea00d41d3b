#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace snapper {
namespace {

uint32_t Portable(std::string_view data) {
  return crc32c::ExtendPortable(0, data.data(), data.size());
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vectors (RFC 3720 / iSCSI), on both paths.
  std::string all_zero(32, '\0');
  EXPECT_EQ(crc32c::Value(all_zero), 0x8a9136aau);
  EXPECT_EQ(Portable(all_zero), 0x8a9136aau);

  std::string all_ff(32, '\xff');
  EXPECT_EQ(crc32c::Value(all_ff), 0x62a8ab43u);
  EXPECT_EQ(Portable(all_ff), 0x62a8ab43u);

  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending), 0x46dd794eu);
  EXPECT_EQ(Portable(ascending), 0x46dd794eu);

  EXPECT_EQ(crc32c::Value("123456789"), 0xe3069283u);
  EXPECT_EQ(Portable("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, DispatchedPathMatchesPortableLoop) {
  // Every length up to 2 KiB at every 8-byte alignment, from two initial
  // CRCs: covers the hardware path's word loop, its byte tail, and the
  // unaligned word loads.
  Rng rng(3720);
  std::string buf(2048 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (uint32_t seed : {0u, 0xdeadbeefu}) {
    for (size_t align = 0; align < 8; ++align) {
      for (size_t len = 0; len <= 2048; ++len) {
        const char* p = buf.data() + align;
        ASSERT_EQ(crc32c::Extend(seed, p, len),
                  crc32c::ExtendPortable(seed, p, len))
            << "seed " << seed << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, ExtendComposes) {
  std::string data = "hello world, this is a wal record";
  uint32_t whole = crc32c::Value(data);
  uint32_t split = crc32c::Value(data.data(), 10);
  split = crc32c::Extend(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "some payload bytes";
  uint32_t original = crc32c::Value(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] ^= 0x01;
    EXPECT_NE(crc32c::Value(corrupt), original) << "byte " << i;
  }
}

}  // namespace
}  // namespace snapper
