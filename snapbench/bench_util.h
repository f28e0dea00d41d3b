// Pure helpers of the fixed-work benchmark: exact quantiles over raw
// samples, the in-memory span store and span self time, the /proc/stat steal
// parser, and process resource snapshots. Nothing here touches the runtime,
// so bench_test.cc checks it directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "snapper/txn_types.h"

namespace snapbench {

/// steady_clock in nanoseconds: the clock TxnTimings are stamped with.
int64_t NowNs();

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly between
/// the two closest ranks of the sorted samples. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One traced interval. `parent` is the id of the span that caused it (0 =
/// root) and `txn` the transaction it belongs to (0 = none, e.g. a WAL sync
/// shared by a commit group).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t txn = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A span's duration minus the part of it that its children cover (the
/// union of the child intervals, clipped to the parent). Never negative.
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Lays out a transaction as a `txn` span over [submit_ns, done_ns] with
/// children snapper.start, snapper.exec and snapper.commit placed back to
/// back from the runtime's own timings, ending where the transaction ends.
/// The txn span comes first; its self time is the latency the timings do
/// not cover (harness.unattributed_us). Ids are taken from `*next_id`.
std::vector<Span> TxnSpans(uint64_t txn, int64_t submit_ns, int64_t done_ns,
                           const snapper::TxnTimings& timings,
                           uint64_t* next_id);

/// Spans kept in memory during a traced repetition and appended to the
/// span file once its window has closed. Record is safe from any thread.
class SpanStore {
 public:
  /// Ids start at `first_id`, so stores of different repetitions can share
  /// one file.
  explicit SpanStore(uint64_t first_id = 1) : next_id_(first_id) {}

  /// Creates (or truncates) `path` with the CSV header.
  static bool StartCsv(const std::string& path);

  /// Records a root span that belongs to no transaction.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);
  void Append(const std::vector<Span>& spans);
  /// Reserves `n` consecutive span ids and returns the first.
  uint64_t ReserveIds(uint64_t n);
  /// Appends "id,parent,txn,name,start_ns,end_ns" rows, oldest first.
  bool AppendCsv(const std::string& path) const;

 private:
  mutable snapper::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_);
};

/// Aggregate CPU jiffies from the first ("cpu ") line of /proc/stat.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

/// Parses the aggregate line of a /proc/stat image. False if absent or
/// malformed (fewer than the eight fields up to and including steal).
bool ParseProcStat(std::string_view text, HostCpu* out);
/// Reads /proc/stat; zeros if unreadable.
HostCpu ReadHostCpu();
/// Steal as a percentage of all CPU time between two samples.
double StealPct(const HostCpu& before, const HostCpu& after);

/// Process-wide resource usage (getrusage RUSAGE_SELF).
struct ProcUsage {
  int64_t user_us = 0;
  int64_t sys_us = 0;
  int64_t ctx_switches = 0;  ///< voluntary + involuntary
};
ProcUsage ReadProcUsage();
/// Peak RSS of this process (VmHWM from /proc/self/status) in KiB; 0 if
/// unreadable.
int64_t PeakRssKb();

}  // namespace snapbench
