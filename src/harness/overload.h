// Overload robustness harness: an open-loop load ramp that pushes a
// SmallBank mix well past saturation and checks that the system degrades
// gracefully instead of collapsing (DESIGN.md "Overload policies").
//
// Per run (one stack: Snapper, or the OrleansTxn baseline with use_otxn):
//   1. Calibrate: a short closed-loop bench (pipeline sized under the
//      admission budget, so nothing is shed) measures the pre-saturation
//      committed throughput `peak_tps`.
//   2. Ramp: an open-loop pacer submits at `overload_factor` x peak for
//      `ramp_seconds`, never waiting for completions — offered load the
//      system cannot absorb. Admission control must shed the excess with
//      typed kOverloaded results; bounded mailboxes cap per-actor queues.
//   3. Drain: every submission must resolve under a watchdog (admitted work
//      completes, shed work was already acked typed) — a hang or an
//      untyped failure is a violation.
//   4. Invariants: max mailbox depth <= capacity; zero silent drops
//      (every submission resolved committed / aborted / kOverloaded);
//      shedding actually engaged; committed goodput during the ramp >=
//      goodput_floor x peak_tps; SmallBank conservation over live balances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/admission.h"

namespace snapper::harness {

struct OverloadRampOptions {
  uint64_t seed = 1;
  /// Accounts transferring among themselves (conservation-checkable). Sized
  /// so the admitted in-flight set (~budget) does not conflict-collapse the
  /// all-ACT otxn mix: goodput under saturation must be admission-limited,
  /// not wait-die-limited, for the floor to measure overload behaviour.
  int num_accounts = 256;
  double act_fraction = 0.3;  ///< otxn runs ignore this (all ACT-like)
  double amount = 1.0;

  double calibrate_seconds = 1.0;  ///< closed-loop peak measurement window
  double ramp_seconds = 3.0;       ///< open-loop overload window
  /// Offered = the calibration's *resolved* rate (committed + aborted; >=
  /// peak_tps) x this, so the ramp saturates even contention-heavy mixes.
  double overload_factor = 4.0;

  /// Admission budgets (SnapperConfig::max_inflight_pacts / _acts; half
  /// their sum is the otxn budget — the calibration operating point, see
  /// MakeRampStack in overload.cc). Must be > 0: the ramp exists to
  /// exercise them.
  size_t pact_tokens = 64;
  size_t act_tokens = 32;
  double degrade_threshold = 0.75;
  /// Bounded-mailbox capacity; 0 derives 4 x (pact_tokens + act_tokens),
  /// generous enough that admitted (reliable) protocol traffic never trips
  /// it — so the depth invariant really measures admission, not luck.
  size_t mailbox_capacity = 0;

  /// Ramp goodput must stay >= this fraction of peak_tps.
  double goodput_floor = 0.7;
  double watchdog_seconds = 30.0;
  bool use_otxn = false;  ///< run the OrleansTxn baseline instead of Snapper
};

struct OverloadRampReport {
  double peak_tps = 0;         ///< phase-1 committed throughput
  double offered_tps = 0;      ///< open-loop submission rate target
  double ramp_goodput_tps = 0; ///< committed during the ramp / ramp_seconds

  uint64_t submitted = 0;  ///< ramp submissions
  uint64_t committed = 0;
  uint64_t aborted = 0;     ///< typed TxnAborted acks
  uint64_t overloaded = 0;  ///< typed kOverloaded sheds
  /// Completions with any other status — silent or untyped failure; must
  /// stay 0.
  uint64_t other_failures = 0;
  uint64_t unresolved = 0;  ///< still pending at watchdog expiry

  AdmissionController::Stats admission;
  size_t mailbox_capacity = 0;
  size_t max_mailbox_depth = 0;   ///< high-watermark over all actor strands
  uint64_t mailbox_rejections = 0;
  size_t max_ta_queue_depth = 0;  ///< otxn only: the TA strand's watermark

  double total_balance = 0;
  double expected_total = 0;
  /// Trace file captured when SNAPPER_TRACE_DIR is set (record-only: the
  /// open-loop pacer is wall-clock-driven, so a ramp trace is a post-mortem
  /// artifact, not a replayable one).
  std::string trace_path;
  std::string violation;  ///< empty iff all invariants held

  bool ok() const { return violation.empty(); }
  /// One-line JSON of the counters above (harness metrics output).
  std::string ToJson() const;
};

/// Runs one overload ramp. Seeded traffic; throughput-dependent, so the
/// asserted floors are deliberately loose.
OverloadRampReport RunSmallBankOverloadRamp(const OverloadRampOptions& options);

}  // namespace snapper::harness
