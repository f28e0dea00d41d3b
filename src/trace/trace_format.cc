#include "trace/trace_format.h"

#include "common/coding.h"
#include "common/frame.h"

namespace snapper::trace {

void TraceRecord::EncodeTo(std::string* dst) const {
  PutFixed8(dst, static_cast<uint8_t>(type));
  switch (type) {
    case TraceRecordType::kMeta:
      PutVarint64(dst, version);
      PutVarint64(dst, flags);
      break;
    case TraceRecordType::kThreadRoot:
      PutFixed64(dst, ctx);
      PutLengthPrefixed(dst, name);
      break;
    case TraceRecordType::kStrandBind:
      PutFixed64(dst, strand_id);
      PutLengthPrefixed(dst, name);
      break;
    case TraceRecordType::kTurn:
      PutFixed64(dst, ctx);
      PutVarint64(dst, seq);
      PutFixed64(dst, strand_id);
      break;
    case TraceRecordType::kDigest:
      PutVarint64(dst, turn_index);
      PutFixed64(dst, strand_id);
      PutFixed64(dst, digest);
      break;
    case TraceRecordType::kDecision:
      PutVarint64(dst, site);
      PutFixed64(dst, ctx);
      PutFixed64(dst, value);
      break;
    case TraceRecordType::kTrySet:
      PutFixed64(dst, future_id);
      PutFixed64(dst, ctx);
      PutFixed8(dst, won ? 1 : 0);
      break;
    case TraceRecordType::kCounters:
      PutVarint64(dst, counters.size());
      for (const auto& [cname, cvalue] : counters) {
        PutLengthPrefixed(dst, cname);
        PutVarint64(dst, cvalue);
      }
      break;
    case TraceRecordType::kEnd:
      break;
  }
}

bool TraceRecord::DecodeFrom(std::string_view payload) {
  *this = TraceRecord();
  uint8_t raw_type;
  if (!GetFixed8(&payload, &raw_type)) return false;
  if (raw_type < static_cast<uint8_t>(TraceRecordType::kMeta) ||
      raw_type > static_cast<uint8_t>(TraceRecordType::kEnd)) {
    return false;
  }
  type = static_cast<TraceRecordType>(raw_type);
  std::string_view sv;
  uint64_t n;
  uint8_t b;
  switch (type) {
    case TraceRecordType::kMeta:
      if (!GetVarint64(&payload, &version)) return false;
      if (!GetVarint64(&payload, &flags)) return false;
      break;
    case TraceRecordType::kThreadRoot:
      if (!GetFixed64(&payload, &ctx)) return false;
      if (!GetLengthPrefixed(&payload, &sv)) return false;
      name.assign(sv);
      break;
    case TraceRecordType::kStrandBind:
      if (!GetFixed64(&payload, &strand_id)) return false;
      if (!GetLengthPrefixed(&payload, &sv)) return false;
      name.assign(sv);
      break;
    case TraceRecordType::kTurn:
      if (!GetFixed64(&payload, &ctx)) return false;
      if (!GetVarint64(&payload, &seq)) return false;
      if (!GetFixed64(&payload, &strand_id)) return false;
      break;
    case TraceRecordType::kDigest:
      if (!GetVarint64(&payload, &turn_index)) return false;
      if (!GetFixed64(&payload, &strand_id)) return false;
      if (!GetFixed64(&payload, &digest)) return false;
      break;
    case TraceRecordType::kDecision: {
      uint64_t s;
      if (!GetVarint64(&payload, &s)) return false;
      site = static_cast<uint32_t>(s);
      if (!GetFixed64(&payload, &ctx)) return false;
      if (!GetFixed64(&payload, &value)) return false;
      break;
    }
    case TraceRecordType::kTrySet:
      if (!GetFixed64(&payload, &future_id)) return false;
      if (!GetFixed64(&payload, &ctx)) return false;
      if (!GetFixed8(&payload, &b)) return false;
      won = b != 0;
      break;
    case TraceRecordType::kCounters:
      if (!GetVarint64(&payload, &n)) return false;
      counters.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t v;
        if (!GetLengthPrefixed(&payload, &sv)) return false;
        if (!GetVarint64(&payload, &v)) return false;
        counters.emplace_back(std::string(sv), v);
      }
      break;
    case TraceRecordType::kEnd:
      break;
  }
  return payload.empty();
}

void FrameTraceRecord(const TraceRecord& record, std::string* dst) {
  AppendFrame(record, dst);
}

Status TraceCursor::Next(TraceRecord* record) {
  std::string_view payload, rest;
  switch (NextFrame(rest_, &payload, &rest)) {
    case FrameRead::kEnd:
      return Status::NotFound("end of trace");
    case FrameRead::kTornHeader:
      return Status::Corruption("torn trace frame header");
    case FrameRead::kTornBody:
      return Status::Corruption("torn trace frame body");
    case FrameRead::kCrcMismatch:
      return Status::Corruption("trace crc mismatch");
    case FrameRead::kOk:
      break;
  }
  if (!record->DecodeFrom(payload)) {
    return Status::Corruption("malformed trace payload");
  }
  rest_ = rest;
  return Status::OK();
}

}  // namespace snapper::trace
