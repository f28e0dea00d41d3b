// On-disk format for record & replay traces (DESIGN.md §4g). Same physical
// framing as the WAL (common/frame.h): every record is
//   [len u32][masked crc32c u32][payload],   payload = [type u8][fields...]
// so a torn tail (capture process died mid-write) surfaces as a clean
// kCorruption from the cursor, exactly like ARIES-style log recovery.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace snapper::trace {

/// Record types (wire-stable).
enum class TraceRecordType : uint8_t {
  kMeta = 1,        ///< format version + flags; always the first record
  kThreadRoot = 2,  ///< named harness-thread context root
  kStrandBind = 3,  ///< strand trace id -> human-readable actor name
  kTurn = 4,        ///< one dispatched turn, in global begin order
  kDigest = 5,      ///< per-actor state digest at a turn boundary
  kDecision = 6,    ///< nondeterministic decision (site, ctx, value)
  kTrySet = 7,      ///< contested future resolution outcome
  kCounters = 8,    ///< end-of-round counter snapshot (the compare set)
  kEnd = 9,         ///< clean end-of-capture marker
};

inline constexpr uint64_t kTraceFormatVersion = 1;

/// A decoded trace record. Unused fields are zero/empty depending on type.
struct TraceRecord {
  TraceRecordType type = TraceRecordType::kMeta;

  uint64_t version = 0;   ///< kMeta
  uint64_t flags = 0;     ///< kMeta

  uint64_t ctx = 0;       ///< kThreadRoot, kTurn (tag.ctx), kDecision, kTrySet
  uint64_t seq = 0;       ///< kTurn (tag.seq)
  uint64_t strand_id = 0; ///< kTurn, kStrandBind, kDigest
  uint64_t turn_index = 0;  ///< kDigest: global index of the finished turn
  uint64_t digest = 0;    ///< kDigest

  uint32_t site = 0;      ///< kDecision
  uint64_t value = 0;     ///< kDecision
  uint64_t future_id = 0; ///< kTrySet
  bool won = false;       ///< kTrySet

  std::string name;       ///< kThreadRoot, kStrandBind

  std::vector<std::pair<std::string, uint64_t>> counters;  ///< kCounters

  void EncodeTo(std::string* dst) const;
  /// Decodes a payload (without framing). Returns false on malformed input.
  bool DecodeFrom(std::string_view payload);
};

/// Appends a fully framed record (length + CRC + payload) to `*dst`.
void FrameTraceRecord(const TraceRecord& record, std::string* dst);

/// Streaming reader over a trace file's contents. Identical error contract
/// to wal/log_format.h's LogCursor: OK per record, NotFound at clean end,
/// Corruption for a torn/damaged frame.
class TraceCursor {
 public:
  explicit TraceCursor(std::string_view data) : rest_(data) {}

  Status Next(TraceRecord* record);

 private:
  std::string_view rest_;
};

}  // namespace snapper::trace
