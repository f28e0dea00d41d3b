#include "harness/overload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/chaos.h"
#include "harness/client.h"
#include "harness/metrics.h"
#include "harness/smallbank_stack.h"
#include "trace/trace_session.h"

namespace snapper::harness {
namespace {

/// Record-only SNAPPER_TRACE_DIR capture for the ramp (see
/// OverloadRampReport::trace_path). Returns nullptr when the env var is
/// unset.
std::unique_ptr<trace::TraceSession> OpenRampCapture(const std::string& label,
                                                     uint64_t seed,
                                                     std::string* trace_path) {
  const std::string dir = TraceDir();
  if (dir.empty()) return nullptr;
  auto session =
      trace::TraceSession::Record(trace::TracePathFor(dir, label, seed));
  *trace_path = session->path();
  session->Attach();
  return session;
}

using Clock = std::chrono::steady_clock;

/// Completion classifier shared by every ramp submission's continuation,
/// and the drain watchdog's wait state. Lock-free: continuations run on the
/// hot commit path (TA strand / worker threads) while the pacer resolves
/// ~100k sheds/s inline, so a shared mutex (let alone a per-completion
/// NotifyAll) here would serialize goodput against the shed storm and
/// corrupt the very degradation measurement the ramp exists to take. The
/// drain phase polls instead of waiting on a condvar.
///
/// Ordering: continuations bump their class counter first, then `resolved`
/// with release; the drain reads `resolved` with acquire before summing the
/// class counters, so once resolved == submitted the class counts are
/// complete.
struct RampGate {
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint64_t> other{0};

  void Classify(const Status& status) {
    if (status.ok()) {
      committed.fetch_add(1, std::memory_order_relaxed);
    } else if (status.IsOverloaded()) {
      overloaded.fetch_add(1, std::memory_order_relaxed);
    } else if (status.IsTxnAborted()) {
      aborted.fetch_add(1, std::memory_order_relaxed);
    } else {
      other.fetch_add(1, std::memory_order_relaxed);
    }
    resolved.fetch_add(1, std::memory_order_release);
  }
};

/// Phases 1-3 (calibrate, ramp, drain) into `report`; returns false on a
/// drain-watchdog hang.
bool RunRampCore(const OverloadRampOptions& options,
                 const GeneratorFn& generate, const SubmitFn& submit,
                 OverloadRampReport& report) {
  // --- Phase 1: closed-loop calibration. Total in-flight stays at half the
  // admission budget, so the peak is measured shed-free. Two independent
  // windows, combined asymmetrically:
  //   peak_tps (the goodput-floor reference) takes the MIN committed rate —
  //   short windows on noisy hosts over-read peaks, and an inflated
  //   reference fails the floor on measurement error rather than real
  //   collapse;
  //   the pacing target takes the MAX *resolved* rate (committed + aborted:
  //   under contention a closed-loop ACT mix resolves far more attempts
  //   than it commits), so the ramp genuinely exceeds the system's
  //   absorption rate and shedding must engage.
  ClientConfig calibrate;
  calibrate.num_clients = 2;
  calibrate.pipeline = std::max<size_t>(
      1, (options.pact_tokens + options.act_tokens) / 4);
  calibrate.epoch_seconds = options.calibrate_seconds / 2;
  calibrate.num_epochs = 2;
  calibrate.warmup_epochs = 1;
  calibrate.seed = Rng::Derive(options.seed, 0xca11);
  const BenchResult bench = RunBench(calibrate, generate, submit);
  ClientConfig calibrate2 = calibrate;
  calibrate2.seed = Rng::Derive(options.seed, 0xca12);
  const BenchResult bench2 = RunBench(calibrate2, generate, submit);
  report.peak_tps = std::min(bench.Throughput(), bench2.Throughput());
  if (report.peak_tps <= 0) return true;  // a violation, not a hang

  // --- Phase 2: open-loop ramp. Submissions are paced at offered_tps and
  // never wait for completions; classification happens in continuations.
  const auto resolved_of = [](const BenchResult& b) {
    return static_cast<double>(b.totals.committed + b.totals.aborted +
                               b.totals.overloaded) /
           b.seconds_measured;
  };
  const double resolved_rate =
      std::max({report.peak_tps, resolved_of(bench), resolved_of(bench2)});
  report.offered_tps = resolved_rate * options.overload_factor;

  // Pre-generate the ramp's request trace: open-loop methodology runs a
  // precomputed workload so the pacer's in-window cost is submission +
  // classification only — per-request generation (Value maps, rng) would
  // otherwise scale with the offered rate and depress the very goodput the
  // ramp measures (acute on single-core hosts, where the pacer shares the
  // CPU with the system under test). Capped; past the cap (very long ramps
  // on fast hosts) the pacer falls back to generating inline.
  const size_t trace_size = std::min<size_t>(
      1 << 18,
      static_cast<size_t>(report.offered_tps * options.ramp_seconds * 1.1) +
          1);
  Rng rng(Rng::Derive(options.seed, 0x0afd));
  std::vector<TxnRequest> trace;
  trace.reserve(trace_size);
  for (size_t i = 0; i < trace_size; ++i) trace.push_back(generate(rng));

  auto gate = std::make_shared<RampGate>();
  const auto ramp_start = Clock::now();
  const auto ramp_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.ramp_seconds));
  auto last = ramp_start;
  double carry = 0;
  uint64_t submitted = 0;
  while (true) {
    const auto now = Clock::now();
    if (now - ramp_start >= ramp_length) break;
    carry +=
        report.offered_tps * std::chrono::duration<double>(now - last).count();
    last = now;
    auto burst = static_cast<uint64_t>(carry);
    carry -= static_cast<double>(burst);
    for (uint64_t i = 0; i < burst; ++i) {
      Future<TxnResult> future =
          submit(submitted < trace.size() ? std::move(trace[submitted])
                                          : generate(rng));
      submitted++;
      // Sheds (and any other already-resolved submission) classify inline —
      // no continuation allocation on the saturated path.
      if (future.ready()) {
        gate->Classify(future.Peek().status);
      } else {
        future.OnReady(
            [gate, future]() { gate->Classify(future.Peek().status); });
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // --- Phase 3: drain under a watchdog. Shed submissions already resolved
  // (typed, synchronously); admitted work must complete in bounded time.
  // Polls the lock-free gate (see RampGate) instead of blocking on a
  // condvar, so completions never pay a wakeup.
  const auto drain_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options.watchdog_seconds));
  while (gate->resolved.load(std::memory_order_acquire) < submitted &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t resolved = gate->resolved.load(std::memory_order_acquire);
  report.submitted = submitted;
  report.committed = gate->committed.load(std::memory_order_relaxed);
  report.aborted = gate->aborted.load(std::memory_order_relaxed);
  report.overloaded = gate->overloaded.load(std::memory_order_relaxed);
  report.other_failures = gate->other.load(std::memory_order_relaxed);
  report.unresolved = submitted - resolved;
  report.ramp_goodput_tps =
      static_cast<double>(report.committed) / options.ramp_seconds;
  return resolved == submitted;
}

/// Overload invariants; appended to `violations`.
void CheckOverloadInvariants(const OverloadRampOptions& options,
                             const OverloadRampReport& report,
                             std::ostringstream& violations) {
  if (report.peak_tps <= 0) {
    violations << "calibration: zero peak throughput; ";
    return;  // the ramp never ran; downstream checks would all misfire
  }
  if (report.other_failures > 0) {
    violations << report.other_failures
               << " completions with untyped status (silent-drop class); ";
  }
  if (report.overloaded == 0) {
    violations << "no typed shedding at " << options.overload_factor
               << "x saturation; ";
  }
  if (report.max_mailbox_depth > report.mailbox_capacity) {
    violations << "mailbox depth high-watermark " << report.max_mailbox_depth
               << " exceeds capacity " << report.mailbox_capacity << "; ";
  }
  // The otxn TA strand is not an actor mailbox, but admission bounds it all
  // the same: each in-flight transaction keeps O(1) turns queued there. 16x
  // the budget is far above any legitimate watermark yet catches unbounded
  // growth outright. (Snapper has no TA: its watermark stays 0.)
  const size_t ta_bound = 16 * (options.pact_tokens + options.act_tokens);
  if (report.max_ta_queue_depth > ta_bound) {
    violations << "TA strand depth high-watermark " << report.max_ta_queue_depth
               << " exceeds bound " << ta_bound << "; ";
  }
  const double floor = options.goodput_floor * report.peak_tps;
  if (report.ramp_goodput_tps + kEps < floor) {
    violations << "goodput " << report.ramp_goodput_tps << " tps < floor "
               << floor << " (" << options.goodput_floor << " x peak "
               << report.peak_tps << "); ";
  }
}

std::unique_ptr<SmallBankStack> MakeRampStack(
    const OverloadRampOptions& options, size_t mailbox_capacity) {
  if (options.use_otxn) {
    otxn::OtxnConfig config;
    config.num_workers = 2;
    config.num_loggers = 2;
    // Budget sized at the calibration operating point: phase 1 runs
    // (pact_tokens + act_tokens) / 2 in flight, so admission pins the
    // saturated occupancy at the same knee the peak was measured at. The
    // single-TA-strand stack degrades steeply past its knee; a budget of the
    // full token sum would let 2x the calibrated concurrency in and the
    // goodput floor would measure a mis-sized budget, not overload behaviour
    // (admission control's job is precisely to hold the good operating
    // point).
    config.max_inflight_txns =
        std::max<size_t>(1, (options.pact_tokens + options.act_tokens) / 2);
    config.mailbox_capacity = mailbox_capacity;
    return MakeOtxnStack(config, nullptr);
  }
  SnapperConfig config;
  config.num_workers = 2;
  config.num_coordinators = 2;
  config.num_loggers = 2;
  config.min_batch_interval = std::chrono::microseconds(1000);
  config.max_inflight_pacts = options.pact_tokens;
  config.max_inflight_acts = options.act_tokens;
  config.admission_degrade_threshold = options.degrade_threshold;
  config.mailbox_capacity = mailbox_capacity;
  return MakeSnapperStack(config, nullptr);
}

}  // namespace

std::string OverloadRampReport::ToJson() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"peak_tps\":" << peak_tps << ",\"offered_tps\":" << offered_tps
     << ",\"ramp_goodput_tps\":" << ramp_goodput_tps
     << ",\"submitted\":" << submitted << ",\"committed\":" << committed
     << ",\"aborted\":" << aborted << ",\"overloaded\":" << overloaded
     << ",\"other_failures\":" << other_failures
     << ",\"unresolved\":" << unresolved
     << ",\"admission\":" << AdmissionJson(admission)
     << ",\"mailbox_capacity\":" << mailbox_capacity
     << ",\"max_mailbox_depth\":" << max_mailbox_depth
     << ",\"mailbox_rejections\":" << mailbox_rejections
     << ",\"max_ta_queue_depth\":" << max_ta_queue_depth
     << ",\"trace_path\":\"" << trace_path << "\""
     << ",\"total_balance\":" << total_balance
     << ",\"expected_total\":" << expected_total
     << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

OverloadRampReport RunSmallBankOverloadRamp(
    const OverloadRampOptions& options) {
  OverloadRampReport report;
  report.mailbox_capacity =
      options.mailbox_capacity != 0
          ? options.mailbox_capacity
          : 4 * (options.pact_tokens + options.act_tokens);
  report.expected_total = kPerAccount * options.num_accounts;

  // Declared before the runtime so it is destroyed after it (in-flight
  // turns may be inside hook calls until the workers park).
  std::unique_ptr<trace::TraceSession> session = OpenRampCapture(
      options.use_otxn ? "overload-otxn" : "overload-snapper", options.seed,
      &report.trace_path);
  std::unique_ptr<SmallBankStack> stack =
      MakeRampStack(options, report.mailbox_capacity);

  const int n = options.num_accounts;
  SmallBankStack* s = stack.get();
  GeneratorFn generate = [s, n, act_fraction = options.act_fraction,
                          amount = options.amount](Rng& rng) {
    const uint64_t from = rng.Uniform(n);
    // Transfers stay inside the fixed account set so conservation holds.
    const uint64_t to = (from + 1 + rng.Uniform(n - 1)) % n;
    const bool act = !s->has_pact() || rng.NextDouble() < act_fraction;
    return s->Transfer(from, to, amount, act);
  };
  SubmitFn submit = [s](TxnRequest request) {
    return s->Submit(std::move(request));
  };

  const bool drained = RunRampCore(options, generate, submit, report);
  report.admission = stack->admission().stats();
  report.max_mailbox_depth = stack->runtime().MaxMailboxDepth();
  report.mailbox_rejections = stack->runtime().mailbox_rejections();
  report.max_ta_queue_depth = stack->max_ta_queue_depth();
  if (!drained) {
    std::ostringstream os;
    os << "hang: " << report.unresolved << "/" << report.submitted
       << " ramp futures unresolved after " << options.watchdog_seconds
       << "s";
    report.violation = os.str();
    LeakHungStack(std::move(stack), std::move(session));
    return report;
  }
  if (session != nullptr) session->Detach();

  std::ostringstream violations;
  report.total_balance = AuditBalances(*stack, n, nullptr, violations);
  CheckOverloadInvariants(options, report, violations);
  report.violation = violations.str();
  return report;
}

}  // namespace snapper::harness
