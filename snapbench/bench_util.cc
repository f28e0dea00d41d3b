#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace snapbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  cover.reserve(children.size());
  for (const Span& c : children) {
    const int64_t s = std::max(c.start_ns, parent.start_ns);
    const int64_t e = std::min(c.end_ns, parent.end_ns);
    if (s < e) cover.emplace_back(s, e);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0;
  int64_t reach = parent.start_ns;
  for (const auto& [s, e] : cover) {
    const int64_t from = std::max(s, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return std::max<int64_t>(0, parent.end_ns - parent.start_ns - covered);
}

std::vector<Span> TxnSpans(uint64_t txn, int64_t submit_ns, int64_t done_ns,
                           const snapper::TxnTimings& timings,
                           uint64_t* next_id) {
  std::vector<Span> spans(4);
  spans[0] = Span{(*next_id)++, 0, txn, "txn", submit_ns, done_ns};
  const int64_t commit_start = done_ns - int64_t{timings.commit_us} * 1000;
  const int64_t exec_start = commit_start - int64_t{timings.exec_us} * 1000;
  const int64_t start_start = exec_start - int64_t{timings.start_us} * 1000;
  spans[1] = Span{(*next_id)++, spans[0].id, txn, "snapper.start",
                  start_start, exec_start};
  spans[2] = Span{(*next_id)++, spans[0].id, txn, "snapper.exec", exec_start,
                  commit_start};
  spans[3] = Span{(*next_id)++, spans[0].id, txn, "snapper.commit",
                  commit_start, done_ns};
  return spans;
}

void SpanStore::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  snapper::MutexLock lock(&mu_);
  spans_.push_back(Span{next_id_++, 0, 0, name, start_ns, end_ns});
}

void SpanStore::Append(const std::vector<Span>& spans) {
  snapper::MutexLock lock(&mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

uint64_t SpanStore::ReserveIds(uint64_t n) {
  snapper::MutexLock lock(&mu_);
  const uint64_t first = next_id_;
  next_id_ += n;
  return first;
}

bool SpanStore::StartCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,txn,name,start_ns,end_ns\n");
  return std::fclose(f) == 0;
}

bool SpanStore::AppendCsv(const std::string& path) const {
  snapper::MutexLock lock(&mu_);
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRId64
                    ",%" PRId64 "\n",
                 s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

bool ParseProcStat(std::string_view text, HostCpu* out) {
  // "cpu  user nice system idle iowait irq softirq steal [guest guest_nice]"
  // guest time is already included in user/nice, so it is not summed again.
  std::istringstream lines{std::string(text)};
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    if (label != "cpu") continue;
    uint64_t v[8];
    for (uint64_t& x : v) {
      if (!(fields >> x)) return false;
    }
    out->total = 0;
    for (uint64_t x : v) out->total += x;
    out->steal = v[7];
    return true;
  }
  return false;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::stringstream text;
  text << in.rdbuf();
  HostCpu cpu;
  if (!ParseProcStat(text.str(), &cpu)) return HostCpu{};
  return cpu;
}

double StealPct(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return int64_t{tv.tv_sec} * 1000000 + tv.tv_usec;
  };
  return ProcUsage{us(ru.ru_utime), us(ru.ru_stime),
                   ru.ru_nvcsw + ru.ru_nivcsw};
}

int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

}  // namespace snapbench
