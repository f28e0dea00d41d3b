#include "wal/log_format.h"

#include "common/coding.h"
#include "common/frame.h"

namespace snapper {

namespace {

void PutActorId(std::string* dst, const ActorId& id) {
  PutVarint64(dst, id.type);
  PutVarint64(dst, id.key);
}

bool GetActorId(std::string_view* in, ActorId* id) {
  uint64_t type, key;
  if (!GetVarint64(in, &type) || !GetVarint64(in, &key)) return false;
  id->type = static_cast<uint32_t>(type);
  id->key = key;
  return true;
}

}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  PutFixed8(dst, static_cast<uint8_t>(type));
  PutVarint64(dst, id);
  PutActorId(dst, actor);
  PutVarint64(dst, participants.size());
  for (const auto& p : participants) PutActorId(dst, p);
  PutLengthPrefixed(dst, state);
  // prev_id + 1 so the common "no predecessor" case is one byte.
  PutVarint64(dst, prev_id + 1);
  PutVarint64(dst, lsn);
}

bool LogRecord::DecodeFrom(std::string_view payload) {
  uint8_t t;
  if (!GetFixed8(&payload, &t)) return false;
  if (t < 1 || t > 10) return false;
  type = static_cast<LogRecordType>(t);
  if (!GetVarint64(&payload, &id)) return false;
  if (!GetActorId(&payload, &actor)) return false;
  uint64_t n;
  if (!GetVarint64(&payload, &n)) return false;
  if (n > payload.size()) return false;  // each participant >= 2 bytes
  participants.clear();
  participants.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ActorId p;
    if (!GetActorId(&payload, &p)) return false;
    participants.push_back(p);
  }
  std::string_view s;
  if (!GetLengthPrefixed(&payload, &s)) return false;
  state.assign(s.data(), s.size());
  uint64_t prev_plus_one;
  if (!GetVarint64(&payload, &prev_plus_one)) return false;
  prev_id = prev_plus_one - 1;
  if (!GetVarint64(&payload, &lsn)) return false;
  return payload.empty();
}

std::string LogRecord::ToString() const {
  static const char* kNames[] = {"?",          "BatchInfo",   "BatchComplete",
                                 "BatchCommit", "BatchAbort",  "ActPrepare",
                                 "ActCoordPrepare", "ActCommit", "ActCoordCommit",
                                 "ActAbort", "Checkpoint"};
  std::string out = kNames[static_cast<int>(type)];
  out += " id=" + std::to_string(id);
  out += " actor=" + actor.ToString();
  if (!participants.empty()) {
    out += " parts=" + std::to_string(participants.size());
  }
  if (prev_id != kNoLogId) out += " prev=" + std::to_string(prev_id);
  if (!state.empty()) out += " state_bytes=" + std::to_string(state.size());
  if (lsn != 0) out += " lsn=" + std::to_string(lsn);
  return out;
}

void FrameRecord(const LogRecord& record, std::string* dst) {
  AppendFrame(record, dst);
}

Status LogCursor::Next(LogRecord* record) {
  std::string_view payload, rest;
  switch (NextFrame(rest_, &payload, &rest)) {
    case FrameRead::kEnd:
      return Status::NotFound("end of log");
    case FrameRead::kTornHeader:
      return Status::Corruption("torn frame header");
    case FrameRead::kTornBody:
      return Status::Corruption("torn frame body");
    case FrameRead::kCrcMismatch:
      return Status::Corruption("crc mismatch");
    case FrameRead::kOk:
      break;
  }
  if (!record->DecodeFrom(payload)) {
    return Status::Corruption("malformed payload");
  }
  rest_ = rest;
  return Status::OK();
}

}  // namespace snapper
