// Crash-recovery chaos harness: one seeded SmallBank round over a
// FaultInjectionEnv, with a storage fault injected mid-run, a simulated
// crash, recovery, and invariant checks (see DESIGN.md "Failure model").
//
// Per round:
//   1. Open a SnapperRuntime over FaultInjectionEnv(MemEnv) and arm a fault
//      at a (seed-derived or caller-chosen) Sync, optionally sticky.
//   2. Submit a seeded mix of PACT/ACT MultiTransfers. Every transaction i
//      moves `amount` from a random root account into the *unique* fresh
//      account `num_roots + i`, so its durability is decodable from that
//      account's post-recovery balance alone.
//   3. Wait for every submission future under a watchdog: any unresolved
//      future is an invariant violation (the hardening guarantees failed
//      IO resolves everything non-OK; it must never hang).
//   4. Crash the env (drop unsynced tails, optionally tear the durable
//      tail), clear faults ("device replaced"), reopen, Recover(), Start().
//   5. Check invariants over recovered balances:
//        - conservation: total money unchanged;
//        - acked-committed transactions are durable;
//        - deterministically-aborted transactions are invisible;
//        - in-doubt aborts (kCascading / kSystemFailure / IOError raced the
//          crash) may have either outcome, but a consistent one.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace snapper::harness {

struct ChaosOptions {
  uint64_t seed = 1;
  int num_roots = 6;    ///< source accounts 0..num_roots-1
  int num_txns = 20;    ///< each txn i deposits into account num_roots + i
  double act_fraction = 0.5;  ///< remaining fraction submits as PACT
  double amount = 10.0;

  bool inject_fault = true;
  /// Sync (1-based, from round start) to fail; 0 = derive from seed in
  /// [1, max_fault_sync].
  uint64_t fault_sync = 0;
  uint64_t max_fault_sync = 12;
  /// Probability that the injected fault is sticky (device-gone). With a
  /// fixed `fault_sync` the coin is still seed-derived.
  double sticky_probability = 0.5;

  /// Bytes torn off each file's durable tail at crash. Keep 0 for invariant
  /// rounds: the workload spans several log files, and tearing *synced*
  /// (acked-durable) bytes legitimately breaks ack-durability. Torn-tail
  /// recovery is covered separately by recovery tests.
  size_t tear_bytes = 0;

  double watchdog_seconds = 10.0;
};

struct ChaosReport {
  int committed = 0;          ///< acked OK
  int aborted = 0;            ///< acked deterministic abort
  int in_doubt = 0;           ///< acked abort that may race the crash
  int unresolved = 0;         ///< futures still pending at watchdog expiry
  uint64_t fault_sync = 0;    ///< the sync that was armed (0 = none)
  bool sticky = false;
  bool fault_fired = false;   ///< the env actually injected a fault
  double total_balance = 0;   ///< post-recovery sum over all accounts
  double expected_total = 0;
  std::string violation;      ///< empty iff all invariants held

  bool ok() const { return violation.empty(); }
};

/// Runs one chaos round. Deterministic for a fixed ChaosOptions.
ChaosReport RunSmallBankChaos(const ChaosOptions& options);

// ---------------------------------------------------------------------------
// Actor-layer chaos: fail-stop actor kills + message-level faults (drop /
// duplicate / delay) under healthy storage, over the same decodable
// SmallBank traffic. Per round:
//   1. Open a runtime (Snapper, or the OrleansTxn baseline with use_otxn),
//      arm seeded message faults, submit the PACT/ACT (or otxn) mix.
//   2. Mid-run, fail-stop kill `num_kills` random account actors; Snapper
//      transparently reactivates them from the WAL.
//   3. Wait for every submission (and kill acknowledgement) under a
//      watchdog: liveness deadlines must resolve everything — a hang is an
//      invariant violation.
//   4. Snapper: crash the silo, recover from the WAL, check conservation /
//      ack-durability / abort-invisibility over recovered balances.
//      otxn: kill every account actor (state rebuilds from WAL + the TA's
//      decision table) and check the same invariants over live balances.
// ---------------------------------------------------------------------------

struct ActorChaosOptions {
  uint64_t seed = 1;
  int num_roots = 6;
  int num_txns = 24;          ///< each txn i deposits into account num_roots+i
  double act_fraction = 0.5;  ///< otxn rounds ignore this (all ACT-like)
  double amount = 10.0;

  int num_kills = 1;  ///< actors killed once a third of the txns are in

  // Probabilistic message faults (0 disables each). Droppable protocol
  // messages only; see MessageFaultInjector.
  double msg_drop_p = 0.05;
  double msg_dup_p = 0.05;
  double msg_delay_p = 0.1;
  uint32_t msg_max_delay_ms = 2;
  /// Scripted fault: drop the Nth droppable message (0 = off), optionally
  /// every droppable message from the Nth on.
  uint64_t drop_nth = 0;
  bool drop_sticky = false;

  // Liveness deadlines (Snapper rounds; 0 disables).
  std::chrono::milliseconds batch_deadline{250};
  std::chrono::milliseconds act_resolution_deadline{100};

  double watchdog_seconds = 20.0;
  bool use_otxn = false;  ///< run the OrleansTxn baseline instead of Snapper

  // Asynchronous checkpointing (wal/checkpoint.h), ON by default so every
  // chaos sweep exercises kill/reactivate/crash-recover with checkpoint
  // records and segment rolling in the log. A root account logs ~4 state
  // records (~45 framed bytes each) per round, so the threshold must sit
  // below ~180 bytes for roots to cross it; one-shot receiver accounts
  // (one record) stay below it and never checkpoint. Set the threshold to
  // 0 to run the legacy no-checkpoint configuration.
  size_t wal_segment_bytes = 4096;
  size_t checkpoint_threshold_bytes = 96;

  // Deterministic record & replay (src/trace/, DESIGN.md §4g).
  /// Capture the round's schedule/decision trace to this file; empty = no
  /// capture. RunSmallBankActorChaos derives a path from SNAPPER_TRACE_DIR
  /// when this is empty and that variable is set.
  std::string record_trace_path;
  /// Replay the round from a previously captured trace; empty = live run.
  /// Wins over record_trace_path. SNAPPER_REPLAY_TRACE seeds it likewise.
  std::string replay_trace_path;
};

/// Counters are read by one rule on both stacks: a snapshot at the end of
/// the round — every future resolved, trailing checkpoint turns drained,
/// before the final rebuild — plus, in recovery_replay_records and
/// recovery_time_us, the WAL replay cost of that rebuild (Snapper's crash
/// recovery; otxn's reactivation of every account by the balance audit).
struct ActorChaosReport {
  int committed = 0;   ///< acked OK
  int aborted = 0;     ///< acked deterministic abort (incl. actor-failed)
  int in_doubt = 0;    ///< acked abort that may have either durable outcome
  int unresolved = 0;  ///< futures still pending at watchdog expiry

  uint64_t actor_kills = 0;
  uint64_t reactivations = 0;
  uint64_t reactivation_us = 0;  ///< summed kill->serving-again latency
  /// Zombie activations still pinned in the runtime's retired registry at
  /// round end (ActorRuntime::num_retired). Must stay bounded by the kill
  /// count — growth beyond it would be a pinning leak.
  uint64_t retired_activations = 0;
  uint64_t watchdog_batch_aborts = 0;
  uint64_t watchdog_act_aborts = 0;
  uint64_t watchdog_act_resolutions = 0;
  uint64_t msgs_total = 0;
  uint64_t msgs_dropped = 0;
  uint64_t msgs_duplicated = 0;
  uint64_t msgs_delayed = 0;

  // Checkpoint / recovery economics for the round (summed over phases).
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_lag_bytes = 0;     ///< end-of-round gauge
  uint64_t wal_segments_truncated = 0;
  uint64_t wal_bytes_truncated = 0;
  uint64_t recovery_replay_records = 0;  ///< reactivations + final rebuild
  uint64_t recovery_time_us = 0;

  double total_balance = 0;
  double expected_total = 0;
  std::string violation;  ///< empty iff all invariants held

  // Record & replay (empty / 0 when no trace session ran).
  std::string trace_path;        ///< trace file captured or replayed
  std::string trace_divergence;  ///< first divergence found during replay
  uint64_t trace_turns = 0;      ///< turns recorded / replayed

  bool ok() const { return violation.empty(); }
  /// One-line JSON of the counters above (harness metrics output).
  std::string ToJson() const;
};

/// Runs one actor-chaos round. Deterministic modulo scheduling for a fixed
/// ActorChaosOptions (fault decisions are seeded; interleavings are not).
ActorChaosReport RunSmallBankActorChaos(const ActorChaosOptions& options);

// ---------------------------------------------------------------------------
// Bounded-time crash recovery: the checkpoint subsystem's acceptance harness.
// A fixed account pool (so every actor keeps accumulating WAL lag and crosses
// the checkpoint threshold — one-shot actors would never checkpoint) runs
// `num_txns` transfers, then a victim actor is fail-stop killed and
// reactivated. With checkpointing enabled the replayed suffix must stay under
// `replay_cap` records *regardless of run length*, at least one checkpoint
// and one segment truncation must have happened, and the WAL's on-disk byte
// size must be smaller than the total bytes ever written to it (the truncated
// prefix is really gone). With checkpointing disabled the same run shows
// replay work linear in run length — the contrast the tests assert.
// ---------------------------------------------------------------------------

struct BoundedRecoveryOptions {
  uint64_t seed = 1;
  bool use_otxn = false;           ///< run the OrleansTxn baseline
  /// 0 disables checkpointing, and with it the checkpoint assertions.
  size_t checkpoint_threshold_bytes = 1024;
  size_t wal_segment_bytes = 2048;
  int num_accounts = 4;            ///< fixed pool; transfers stay inside it
  int num_txns = 200;              ///< run length (the bound must not scale)
  double amount = 1.0;
  /// Max records the victim's reactivation may replay (checkpointing on).
  /// Steady-state retention is bounded by num_accounts * threshold lag plus
  /// segment-granularity stragglers (a segment survives until *every* actor
  /// checkpoints past it) plus decision records awaiting truncation — about
  /// 300 records for the defaults, independent of num_txns. A disabled run
  /// replays every record ever written (~6 per transfer), so the default cap
  /// separates the two already at num_txns = 100.
  uint64_t replay_cap = 400;
  double watchdog_seconds = 30.0;
};

struct BoundedRecoveryReport {
  int committed = 0;
  int aborted = 0;
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_lag_bytes = 0;
  uint64_t wal_segments_truncated = 0;
  uint64_t wal_bytes_truncated = 0;
  uint64_t recovery_replay_records = 0;
  uint64_t recovery_time_us = 0;
  uint64_t wal_bytes_written = 0;  ///< total ever appended+synced
  uint64_t wal_bytes_on_disk = 0;  ///< live segment bytes at round end
  double total_balance = 0;
  double expected_total = 0;
  std::string violation;  ///< empty iff all invariants held

  bool ok() const { return violation.empty(); }
  std::string ToJson() const;
};

/// Runs one bounded-recovery round (in-harness assertions per above).
BoundedRecoveryReport RunBoundedRecovery(const BoundedRecoveryOptions& options);

/// Seed for chaos/overload rounds: the SNAPPER_CHAOS_SEED environment
/// variable (parsed as unsigned decimal) wins over `fallback`, so a failing
/// CI round can be replayed locally without editing the test (see
/// EXPERIMENTS.md "Reproducing chaos failures").
uint64_t ChaosSeed(uint64_t fallback);

/// The exact command line that replays a failing chaos round: prints the
/// seed via SNAPPER_CHAOS_SEED and the gtest filter of the calling test.
/// Sweep assertions append this to their failure message so a CI failure is
/// reproducible by copy-paste.
std::string ReplayCommand(uint64_t seed, const std::string& test_binary,
                          const std::string& gtest_filter);

/// The SNAPPER_TRACE_DIR environment variable (empty if unset): directory
/// into which chaos rounds capture deterministic traces.
std::string TraceDir();

/// Deterministic-replay command for a captured trace: the exact command that
/// re-executes the recorded schedule via SNAPPER_REPLAY_TRACE. Sweep
/// failures print it next to the seed line when a trace was captured.
std::string TraceReplayCommand(const std::string& trace_path,
                               const std::string& test_binary,
                               const std::string& gtest_filter);

}  // namespace snapper::harness
