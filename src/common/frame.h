// Length- and CRC-framed records: the one physical framing shared by the
// WAL (wal/log_format.h) and replay traces (trace/trace_format.h),
//   [len u32][masked crc32c u32][payload]
// A torn or damaged frame reads back as an error, never as a record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/coding.h"
#include "common/crc32c.h"

namespace snapper {

inline constexpr size_t kFrameHeaderBytes = 8;

/// Appends `record` to `*dst` as one frame. The payload is encoded straight
/// into `*dst` (`record.EncodeTo(dst)`) behind a header placeholder, which
/// is then filled in with the payload's length and masked CRC.
template <typename Record>
void AppendFrame(const Record& record, std::string* dst) {
  const size_t start = dst->size();
  dst->append(kFrameHeaderBytes, '\0');
  record.EncodeTo(dst);
  const size_t len = dst->size() - start - kFrameHeaderBytes;
  char* header = dst->data() + start;
  EncodeFixed32(header, static_cast<uint32_t>(len));
  EncodeFixed32(header + 4, crc32c::Mask(crc32c::Value(
                                header + kFrameHeaderBytes, len)));
}

enum class FrameRead { kOk, kEnd, kTornHeader, kTornBody, kCrcMismatch };

/// Reads the frame at the front of `in`. On kOk, `*payload` is its payload
/// and `*rest` the bytes after it; kEnd means `in` is empty.
inline FrameRead NextFrame(std::string_view in, std::string_view* payload,
                           std::string_view* rest) {
  if (in.empty()) return FrameRead::kEnd;
  uint32_t len, masked_crc;
  if (!GetFixed32(&in, &len) || !GetFixed32(&in, &masked_crc)) {
    return FrameRead::kTornHeader;
  }
  if (in.size() < len) return FrameRead::kTornBody;
  *payload = in.substr(0, len);
  if (crc32c::Value(*payload) != crc32c::Unmask(masked_crc)) {
    return FrameRead::kCrcMismatch;
  }
  *rest = in.substr(len);
  return FrameRead::kOk;
}

}  // namespace snapper
