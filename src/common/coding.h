// Little-endian fixed/varint primitives for WAL records and the Value codec.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace snapper {

inline void PutFixed8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

/// Writes `v` little-endian over the four bytes at `dst`.
inline void EncodeFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v);
  dst[1] = static_cast<char>(v >> 8);
  dst[2] = static_cast<char>(v >> 16);
  dst[3] = static_cast<char>(v >> 24);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 8);
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

inline void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

/// Each Get* consumes from the front of `*in`; returns false on underflow.
inline bool GetFixed8(std::string_view* in, uint8_t* v) {
  if (in->size() < 1) return false;
  *v = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  return true;
}

inline bool GetFixed32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(in->data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  in->remove_prefix(4);
  return true;
}

inline bool GetFixed64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(in->data());
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(p[i]) << (8 * i);
  *v = out;
  in->remove_prefix(8);
  return true;
}

inline bool GetVarint64(std::string_view* in, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift <= 63 && !in->empty(); shift += 7) {
    uint8_t byte = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

inline bool GetDouble(std::string_view* in, double* v) {
  uint64_t bits;
  if (!GetFixed64(in, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

inline bool GetLengthPrefixed(std::string_view* in, std::string_view* value) {
  uint64_t len;
  if (!GetVarint64(in, &len) || in->size() < len) return false;
  *value = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}

}  // namespace snapper
