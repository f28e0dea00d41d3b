#include "harness/metrics.h"

#include <cstdio>
#include <sstream>

namespace snapper::harness {

void EpochMetrics::Record(bool is_pact, const TxnResult& result,
                          uint64_t latency_us) {
  if (result.ok()) {
    committed++;
    (is_pact ? committed_pact : committed_act)++;
    latency.Record(latency_us);
    (is_pact ? pact_latency : act_latency).Record(latency_us);
    start_us.Record(result.timings.start_us);
    exec_us.Record(result.timings.exec_us);
    commit_us.Record(result.timings.commit_us);
  } else if (result.status.IsOverloaded()) {
    overloaded++;
  } else {
    aborted++;
    const int reason = static_cast<int>(result.status.abort_reason());
    if (reason >= 0 && reason < static_cast<int>(abort_reasons.size())) {
      abort_reasons[static_cast<size_t>(reason)]++;
    }
  }
}

void EpochMetrics::Merge(const EpochMetrics& other) {
  committed += other.committed;
  committed_pact += other.committed_pact;
  committed_act += other.committed_act;
  aborted += other.aborted;
  overloaded += other.overloaded;
  for (size_t i = 0; i < abort_reasons.size(); ++i) {
    abort_reasons[i] += other.abort_reasons[i];
  }
  latency.Merge(other.latency);
  pact_latency.Merge(other.pact_latency);
  act_latency.Merge(other.act_latency);
  start_us.Merge(other.start_us);
  exec_us.Merge(other.exec_us);
  commit_us.Merge(other.commit_us);
}

std::string BenchResult::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tps=%.0f abort=%.1f%% p50=%.1fms p90=%.1fms p99=%.1fms",
                Throughput(), AbortRate() * 100,
                totals.latency.Quantile(0.5) / 1000.0,
                totals.latency.Quantile(0.9) / 1000.0,
                totals.latency.Quantile(0.99) / 1000.0);
  return buf;
}

std::string FaultToleranceJson(const MessageCounters& counters) {
  std::ostringstream os;
  os << "{\"actor_kills\":" << counters.actor_kills.load()
     << ",\"reactivations\":" << counters.reactivations.load()
     << ",\"reactivation_us\":" << counters.reactivation_us.load()
     << ",\"watchdog_batch_aborts\":" << counters.watchdog_batch_aborts.load()
     << ",\"watchdog_act_aborts\":" << counters.watchdog_act_aborts.load()
     << ",\"watchdog_act_resolutions\":"
     << counters.watchdog_act_resolutions.load()
     << ",\"act_deadlocks_detected\":"
     << counters.act_deadlocks_detected.load()
     << ",\"act_wait_timeouts\":" << counters.act_wait_timeouts.load()
     << ",\"recovery_time_us\":" << counters.recovery_time_us.load()
     << ",\"recovery_replay_records\":"
     << counters.recovery_replay_records.load()
     << ",\"checkpoints_taken\":" << counters.checkpoints_taken.load()
     << ",\"checkpoint_lag_bytes\":" << counters.checkpoint_lag_bytes.load()
     << ",\"wal_segments_truncated\":"
     << counters.wal_segments_truncated.load()
     << ",\"wal_bytes_truncated\":" << counters.wal_bytes_truncated.load()
     << ",\"cold_deactivations\":" << counters.cold_deactivations.load()
     << "}";
  return os.str();
}

std::string AdmissionJson(const AdmissionController::Stats& stats) {
  std::ostringstream os;
  os << "{\"admitted_pact\":" << stats.admitted_pact
     << ",\"admitted_act\":" << stats.admitted_act
     << ",\"shed_pact\":" << stats.shed_pact
     << ",\"shed_act\":" << stats.shed_act
     << ",\"shed_act_degraded\":" << stats.shed_act_degraded
     << ",\"inflight_pact\":" << stats.inflight_pact
     << ",\"inflight_act\":" << stats.inflight_act
     << ",\"max_inflight_pact\":" << stats.max_inflight_pact
     << ",\"max_inflight_act\":" << stats.max_inflight_act << "}";
  return os.str();
}

}  // namespace snapper::harness
