// Snapper configuration knobs. Defaults follow the paper's single-silo
// deployment (§5.1.2, Fig. 11a: 4-core base unit with 1 coordinator-actor
// group, 4 loggers; scaled proportionally with cores).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace snapper {

struct SnapperConfig {
  /// Worker threads executing actor turns (the silo's "cores").
  size_t num_workers = 4;

  /// Coordinator actors in the token ring (§4.2.1). Scales with workers in
  /// the paper's setup.
  size_t num_coordinators = 4;

  /// Shared logger objects (§4.1.1).
  size_t num_loggers = 4;

  /// Master switch for WAL writes; disabled for the "CC only" bars of
  /// Fig. 12.
  bool enable_logging = true;

  /// WAL segment roll size per logger (0 = one growing file, no
  /// truncation). Segments fully covered by later durable checkpoints are
  /// deleted, bounding on-disk WAL size and recovery replay length.
  size_t wal_segment_bytes = 0;

  /// Per-actor asynchronous checkpoint threshold (0 = off): once an actor
  /// has this many durable state-snapshot bytes since its last checkpoint,
  /// the CheckpointManager asks it to persist a kCheckpoint record at its
  /// next quiescent turn boundary — no stop-the-world, busy actors simply
  /// defer. Also enables checkpoint-then-deactivate shedding of cold actors
  /// when admission control degrades.
  size_t checkpoint_threshold_bytes = 0;

  /// Delay before re-passing the token when a coordinator received it and
  /// had nothing to batch. Keeps an idle ring from burning CPU while barely
  /// affecting batch formation under load.
  std::chrono::microseconds idle_token_delay{200};

  /// Minimum time between two batches formed by the same coordinator — the
  /// epoch length of §4.2.2's epoch-based batching. In the paper the token's
  /// circulation time over Orleans messaging sets this implicitly (ms
  /// scale); an in-process ring cycles in microseconds, so without a floor
  /// batches would hold ~1 PACT and amortize nothing. Trades batch size
  /// (throughput) against PACT latency.
  std::chrono::microseconds min_batch_interval{4000};

  /// Timeout that breaks PACT-ACT deadlocks in hybrid execution (§4.4.2):
  /// applied to every ACT wait (schedule gates, lock waits, commit waits).
  /// Calibrated well above legitimate wait tails (batch commit ~10-20ms)
  /// but small enough that recurring hot-actor deadlocks cost milliseconds,
  /// not epochs.
  std::chrono::milliseconds act_wait_timeout{150};

  /// Randomized message-delay injection for determinism tests (0 = off).
  uint32_t max_inject_delay_ms = 0;

  /// Liveness watchdog for the PACT batch protocol (0 = off). A batch not
  /// commit-eligible this long after emission — participant died, a
  /// BatchComplete or its ack was lost — is deterministically aborted by its
  /// coordinator with a durable BatchAbort record, instead of wedging the
  /// bid-ordered commit chain forever.
  std::chrono::milliseconds batch_deadline{0};

  /// Liveness watchdog for prepared ACT participants (0 = off). A
  /// participant whose 2PC outcome message never arrives re-resolves the
  /// decision from the runtime's decision table after this long (presumed
  /// abort if the coordinator never logged a commit).
  std::chrono::milliseconds act_resolution_deadline{0};

  /// Admission control (overload robustness; 0 = unlimited): in-flight
  /// budgets per submission class. A SubmitPact/SubmitAct that cannot take a
  /// token resolves immediately with a typed kOverloaded status instead of
  /// queueing without bound.
  size_t max_inflight_pacts = 0;
  size_t max_inflight_acts = 0;

  /// Graceful degradation: once combined admission occupancy crosses this
  /// fraction of the total budget, new ACTs are shed even while the ACT
  /// budget has tokens left, reserving the remaining capacity for the
  /// cheaper, abort-free deterministic path (paper §6). >= 1.0 disables.
  double admission_degrade_threshold = 0.75;

  /// Bounded actor mailboxes (0 = unbounded): sheddable (kDroppable)
  /// messages to an actor whose strand already holds this many queued turns
  /// fail typed-kOverloaded instead of enqueueing. In-flight transactional
  /// turns are never shed. Size it >= ~2x the admission budget so admitted
  /// work never trips it.
  size_t mailbox_capacity = 0;

  uint64_t seed = 42;
};

}  // namespace snapper
