#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace snapper::crc32c {

namespace {

// Table-driven CRC32C, generated at static-init time from the Castagnoli
// polynomial (reflected form 0x82f63b78).
struct Table {
  std::array<uint32_t, 256> t{};
  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

const Table kTable;

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same Castagnoli CRC, eight bytes per step.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // static-init time: may precede libgcc's own init
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendPortable;
}

// Chosen once at static-init time, like kTable.
const ExtendFn kExtend = ChooseExtend();

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable.t[(crc ^ static_cast<uint8_t>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return kExtend(init_crc, data, n);
}

}  // namespace snapper::crc32c
