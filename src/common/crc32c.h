// CRC32C (Castagnoli), used to frame WAL and trace records
// (common/frame.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace snapper::crc32c {

/// Extends `init_crc` with `data`. Pass 0 as the initial value. Runs the
/// SSE4.2 `crc32` instruction when the CPU has it (checked once at
/// startup), the portable table loop otherwise.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The portable byte-at-a-time table loop: Extend's fallback, and the
/// reference its hardware path is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// CRC32C of a buffer.
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(std::string_view data) {
  return Extend(0, data.data(), data.size());
}

/// Masked CRC (RocksDB-style) so that CRCs of CRC-bearing payloads do not
/// collide with CRCs of raw data.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace snapper::crc32c
