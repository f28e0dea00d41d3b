#include "harness/chaos.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "harness/smallbank_stack.h"
#include "trace/trace_session.h"
#include "wal/checkpoint.h"

namespace snapper::harness {
namespace {

SnapperConfig ChaosConfig(uint64_t seed) {
  SnapperConfig config;
  config.num_workers = 2;
  config.num_coordinators = 2;
  config.num_loggers = 2;
  config.seed = seed;
  // Short epochs: the round submits a couple dozen transactions and we want
  // them spread over several batches so the fault can land between batch
  // protocol steps, not only inside one giant batch.
  config.min_batch_interval = std::chrono::microseconds(500);
  return config;
}

/// One chaos round's decodable traffic: transaction i moves `amount` from a
/// random root account into the fresh account num_roots + i, so that
/// account's balance alone tells whether i's effects survived.
struct TransferRound {
  std::vector<Future<TxnResult>> futures;
  std::vector<bool> is_act;
  std::vector<Future<Unit>> kill_acks;
  std::vector<Status> outcomes;  ///< the acks, filled by Tally
};

/// Submits the round; once a third of the transactions are in, kills
/// `num_kills` random accounts.
TransferRound SubmitTransfers(SmallBankStack& stack, Rng& rng, int num_roots,
                              int num_txns, double act_fraction, double amount,
                              int num_kills) {
  TransferRound round;
  const int kill_at = std::max(1, num_txns / 3);
  for (int i = 0; i < num_txns; ++i) {
    if (i == kill_at) {
      for (int k = 0; k < num_kills; ++k) {
        Future<Unit> ack = stack.Kill(rng.Uniform(num_roots + num_txns));
        if (ack.valid()) round.kill_acks.push_back(std::move(ack));
      }
    }
    const uint64_t from = rng.Uniform(num_roots);
    const bool act = !stack.has_pact() || rng.NextDouble() < act_fraction;
    round.is_act.push_back(act);
    round.futures.push_back(
        stack.Submit(stack.Transfer(from, num_roots + i, amount, act)));
  }
  return round;
}

struct ArrivalGate {
  Mutex mu;
  CondVar cv;
  int remaining GUARDED_BY(mu) = 2;
};

/// Waits for every submission and kill ack under one watchdog: any future
/// still unresolved at expiry is an invariant violation (failures must
/// resolve everything; nothing may hang). Returns that violation, counting
/// the unresolved transactions into `unresolved`; empty once all resolved.
std::string AwaitRound(const TransferRound& round, double watchdog_seconds,
                       int* unresolved) {
  // The shared_ptr gate outlives this frame, so a late OnReady from a leaked
  // runtime cannot touch dead stack memory.
  auto gate = std::make_shared<ArrivalGate>();
  auto arrive = [gate]() {
    MutexLock lock(&gate->mu);
    if (--gate->remaining == 0) gate->cv.NotifyAll();
  };
  WhenAll(round.futures).OnReady(arrive);
  WhenAll(round.kill_acks).OnReady(arrive);
  MutexLock lock(&gate->mu);
  if (gate->cv.WaitFor(gate->mu,
                       std::chrono::duration<double>(watchdog_seconds),
                       [&gate]() REQUIRES(gate->mu) {
                         return gate->remaining == 0;
                       })) {
    return "";
  }
  int kills_pending = 0;
  for (const auto& f : round.futures) *unresolved += f.ready() ? 0 : 1;
  for (const auto& f : round.kill_acks) kills_pending += f.ready() ? 0 : 1;
  std::ostringstream os;
  os << "hang: " << *unresolved << "/" << round.futures.size()
     << " txn futures and " << kills_pending << "/" << round.kill_acks.size()
     << " kill acks unresolved after " << watchdog_seconds << "s";
  return os.str();
}

template <typename Report>
void Tally(const SmallBankStack& stack, TransferRound& round, Report& report) {
  for (const auto& f : round.futures) {
    const Status& s = round.outcomes.emplace_back(f.Peek().status);
    if (s.ok()) {
      report.committed++;
    } else if (stack.InDoubt(s)) {
      report.in_doubt++;
    } else {
      report.aborted++;
    }
  }
}

/// Invariants over the rebuilt balances: conservation, acked-committed
/// transactions durable, acked aborts that are not in doubt invisible. An
/// in-doubt ack may go either way, but its account must hold one of the two
/// balances.
template <typename Report>
void AuditRound(SmallBankStack& stack, const TransferRound& round,
                int num_roots, double amount, Report& report) {
  std::ostringstream violations;
  std::vector<double> balance;
  const int num_txns = static_cast<int>(round.futures.size());
  report.total_balance =
      AuditBalances(stack, num_roots + num_txns, &balance, violations);
  for (int i = 0; i < num_txns; ++i) {
    const double b = balance[num_roots + i];
    const bool durable = std::fabs(b - (kPerAccount + amount)) <= kEps;
    const bool invisible = std::fabs(b - kPerAccount) <= kEps;
    const Status& s = round.outcomes[i];
    const char* kind = round.is_act[i] ? "ACT" : "PACT";
    if (!durable && !invisible) {
      violations << kind << " txn " << i << ": unexplained balance " << b
                 << "; ";
    } else if (s.ok() && !durable) {
      violations << kind << " txn " << i
                 << ": acked committed but not durable; ";
    } else if (!s.ok() && !stack.InDoubt(s) && !invisible) {
      violations << kind << " txn " << i << ": acked abort (" << s.ToString()
                 << ") but effects durable; ";
    }
  }
  report.violation = violations.str();
}

}  // namespace

ChaosReport RunSmallBankChaos(const ChaosOptions& options) {
  ChaosReport report;
  Rng rng(options.seed);

  MemEnv base;
  FaultInjectionEnv env(&base);
  const int num_accounts = options.num_roots + options.num_txns;
  report.expected_total = kPerAccount * num_accounts;

  // --- Phase 1: run a faulted round.
  auto stack = MakeSnapperStack(ChaosConfig(options.seed), &env, &env);
  if (options.inject_fault) {
    report.fault_sync = options.fault_sync != 0
                            ? options.fault_sync
                            : 1 + rng.Uniform(options.max_fault_sync);
    report.sticky = rng.NextDouble() < options.sticky_probability;
    env.FailNth(FaultInjectionEnv::Op::kSync, report.fault_sync,
                report.sticky);
  }
  TransferRound round =
      SubmitTransfers(*stack, rng, options.num_roots, options.num_txns,
                      options.act_fraction, options.amount, /*num_kills=*/0);
  report.violation =
      AwaitRound(round, options.watchdog_seconds, &report.unresolved);
  if (!report.violation.empty()) {
    LeakHungStack(std::move(stack));
    return report;
  }
  Tally(*stack, round, report);

  // --- Phase 2: crash, replace the device, recover; check invariants.
  report.violation = stack->Rebuild(num_accounts, options.tear_bytes);
  report.fault_fired = env.faults_injected() > 0;
  if (report.violation.empty()) {
    AuditRound(*stack, round, options.num_roots, options.amount, report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Actor-layer chaos (kills + message faults)
// ---------------------------------------------------------------------------

std::string ActorChaosReport::ToJson() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"committed\":" << committed << ",\"aborted\":" << aborted
     << ",\"in_doubt\":" << in_doubt << ",\"unresolved\":" << unresolved
     << ",\"actor_kills\":" << actor_kills
     << ",\"reactivations\":" << reactivations
     << ",\"reactivation_us\":" << reactivation_us
     << ",\"retired_activations\":" << retired_activations
     << ",\"watchdog_batch_aborts\":" << watchdog_batch_aborts
     << ",\"watchdog_act_aborts\":" << watchdog_act_aborts
     << ",\"watchdog_act_resolutions\":" << watchdog_act_resolutions
     << ",\"msgs_total\":" << msgs_total
     << ",\"msgs_dropped\":" << msgs_dropped
     << ",\"msgs_duplicated\":" << msgs_duplicated
     << ",\"msgs_delayed\":" << msgs_delayed
     << ",\"checkpoints_taken\":" << checkpoints_taken
     << ",\"checkpoint_lag_bytes\":" << checkpoint_lag_bytes
     << ",\"wal_segments_truncated\":" << wal_segments_truncated
     << ",\"wal_bytes_truncated\":" << wal_bytes_truncated
     << ",\"recovery_replay_records\":" << recovery_replay_records
     << ",\"recovery_time_us\":" << recovery_time_us
     << ",\"trace_turns\":" << trace_turns
     << ",\"trace_path\":\"" << trace_path << "\""
     << ",\"trace_divergence\":\"" << trace_divergence << "\""
     << ",\"total_balance\":" << total_balance
     << ",\"expected_total\":" << expected_total
     << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

namespace {

void ArmMessageFaults(MessageFaultInjector& faults,
                      const ActorChaosOptions& options) {
  if (options.drop_nth > 0) {
    faults.FailNth(MessageFaultInjector::Action::kDrop, options.drop_nth,
                   options.drop_sticky);
  }
  if (options.msg_drop_p > 0 || options.msg_dup_p > 0 ||
      options.msg_delay_p > 0) {
    MessageFaultInjector::Options mf;
    mf.drop_probability = options.msg_drop_p;
    mf.duplicate_probability = options.msg_dup_p;
    mf.delay_probability = options.msg_delay_p;
    mf.max_delay_ms = options.msg_max_delay_ms;
    // Distinct stream: the fault coin flips must not correlate with the
    // traffic generator's choices.
    faults.InjectProbabilistically(mf, Rng::Derive(options.seed, 0xfa));
  }
}

/// Checkpoint turns trail the last transaction asynchronously (threshold
/// request → actor turn → checkpoint append → group flush), so a round that
/// reads its counters the instant the last future resolves would miss them.
/// Polls the checkpoint stats until they are stable across two samples (or
/// ~500 ms), which bounds the wait without hard-coding a flush latency.
void DrainCheckpoints(LogManager& log) {
  const auto* cp = log.checkpoints();
  if (cp == nullptr) return;
  uint64_t last_fingerprint = ~uint64_t{0};
  for (int i = 0; i < 25; ++i) {
    const uint64_t fingerprint =
        cp->stats().checkpoints_durable.load() * 1000003 +
        cp->stats().checkpoint_requests.load() * 1009 +
        cp->stats().lag_bytes.load();
    if (fingerprint == last_fingerprint) return;
    last_fingerprint = fingerprint;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// The in-round counter snapshot (see ActorChaosReport).
void ReadRoundCounters(SmallBankStack& stack, ActorChaosReport& report) {
  const MessageFaultInjector& faults = stack.runtime().msg_faults();
  report.msgs_total = faults.messages();
  report.msgs_dropped = faults.dropped();
  report.msgs_duplicated = faults.duplicated();
  report.msgs_delayed = faults.delayed();
  const MessageCounters& c = stack.Counters();
  report.actor_kills = c.actor_kills.load();
  report.reactivations = c.reactivations.load();
  report.reactivation_us = c.reactivation_us.load();
  report.watchdog_batch_aborts = c.watchdog_batch_aborts.load();
  report.watchdog_act_aborts = c.watchdog_act_aborts.load();
  report.watchdog_act_resolutions = c.watchdog_act_resolutions.load();
  report.checkpoints_taken = c.checkpoints_taken.load();
  report.checkpoint_lag_bytes = c.checkpoint_lag_bytes.load();
  report.wal_segments_truncated = c.wal_segments_truncated.load();
  report.wal_bytes_truncated = c.wal_bytes_truncated.load();
  report.recovery_replay_records = c.recovery_replay_records.load();
  report.recovery_time_us = c.recovery_time_us.load();
}

/// Opens the trace session requested by `options` (replay wins over record)
/// and attaches its hooks. Returns false — with report.violation set — when
/// a replay trace fails to load. Call *before* constructing the runtime so
/// its construction-time posts are part of the trace; the session must be
/// declared before the runtime so it is destroyed after it.
bool OpenTraceSession(const ActorChaosOptions& options,
                      ActorChaosReport& report,
                      std::unique_ptr<trace::TraceSession>* session) {
  if (!options.replay_trace_path.empty()) {
    std::string error;
    *session = trace::TraceSession::Replay(options.replay_trace_path, &error);
    if (*session == nullptr) {
      report.violation = "replay trace load: " + error;
      return false;
    }
  } else if (!options.record_trace_path.empty()) {
    *session = trace::TraceSession::Record(options.record_trace_path);
  }
  if (*session != nullptr) {
    report.trace_path = (*session)->path();
    (*session)->Attach();
  }
  return true;
}

/// Detaches the hooks (a record-mode Detach writes the trace) and copies the
/// trace outcome into the report.
void CloseTraceSession(trace::TraceSession* session,
                       ActorChaosReport& report) {
  if (session == nullptr) return;
  session->Detach();
  report.trace_turns = session->turn_count();
  report.trace_divergence = session->divergence();
}

/// Ends the traced window: appends (record) or checks (replay) the
/// deterministic counter snapshot, then closes the session. Only outcome
/// counters that are fixed once the submitted futures resolve are compared
/// — msgs_* / reactivation / checkpoint counters keep moving with trailing
/// turns after the ack and are cut-point-sensitive (DESIGN.md §4g);
/// per-turn state digests carry the bit-identical claim for those paths.
void FinishTraceSession(trace::TraceSession* session,
                        ActorChaosReport& report) {
  if (session == nullptr) return;
  session->CheckOrRecordCounters(
      {{"committed", static_cast<uint64_t>(report.committed)},
       {"aborted", static_cast<uint64_t>(report.aborted)},
       {"in_doubt", static_cast<uint64_t>(report.in_doubt)},
       {"unresolved", static_cast<uint64_t>(report.unresolved)},
       {"actor_kills", report.actor_kills}});
  CloseTraceSession(session, report);
}

}  // namespace

ActorChaosReport RunSmallBankActorChaos(const ActorChaosOptions& options) {
  ActorChaosOptions opts = options;
  if (opts.replay_trace_path.empty()) {
    const char* rp = std::getenv("SNAPPER_REPLAY_TRACE");
    if (rp != nullptr && *rp != '\0') opts.replay_trace_path = rp;
  }
  if (opts.replay_trace_path.empty() && opts.record_trace_path.empty()) {
    const std::string dir = TraceDir();
    if (!dir.empty()) {
      opts.record_trace_path = trace::TracePathFor(
          dir, opts.use_otxn ? "otxn" : "snapper", opts.seed);
    }
  }

  ActorChaosReport report;
  Rng rng(opts.seed);
  const int num_accounts = opts.num_roots + opts.num_txns;
  report.expected_total = kPerAccount * num_accounts;

  // Healthy storage; no storage faults are armed. Snapper runs over the
  // FaultInjectionEnv wrapper only for the silo crash of its final rebuild.
  MemEnv base;
  FaultInjectionEnv env(&base);

  // Declared before the runtime: in-flight turns may still be inside hook
  // calls until the workers park, so the session must be destroyed last.
  std::unique_ptr<trace::TraceSession> session;
  if (!OpenTraceSession(opts, report, &session)) return report;

  std::unique_ptr<SmallBankStack> stack;
  if (opts.use_otxn) {
    otxn::OtxnConfig config;
    config.num_workers = 2;
    config.num_loggers = 2;
    config.seed = opts.seed;
    config.wal_segment_bytes = opts.wal_segment_bytes;
    config.checkpoint_threshold_bytes = opts.checkpoint_threshold_bytes;
    stack = MakeOtxnStack(config, &base);
  } else {
    SnapperConfig config = ChaosConfig(opts.seed);
    config.batch_deadline = opts.batch_deadline;
    config.act_resolution_deadline = opts.act_resolution_deadline;
    config.wal_segment_bytes = opts.wal_segment_bytes;
    config.checkpoint_threshold_bytes = opts.checkpoint_threshold_bytes;
    stack = MakeSnapperStack(config, &env, &env);
  }
  MessageFaultInjector& faults = stack->runtime().msg_faults();
  ArmMessageFaults(faults, opts);

  TransferRound round =
      SubmitTransfers(*stack, rng, opts.num_roots, opts.num_txns,
                      opts.act_fraction, opts.amount, opts.num_kills);
  report.violation =
      AwaitRound(round, opts.watchdog_seconds, &report.unresolved);
  if (!report.violation.empty()) {
    // A hang report without the watchdog / checkpoint numbers is
    // undebuggable after the fact.
    ReadRoundCounters(*stack, report);
    CloseTraceSession(session.get(), report);
    LeakHungStack(std::move(stack), std::move(session));
    return report;
  }
  Tally(*stack, round, report);

  faults.ClearFaults();
  report.retired_activations = stack->runtime().num_retired();
  DrainCheckpoints(stack->log_manager());
  ReadRoundCounters(*stack, report);
  // End of the traced window: the rebuild runs untraced (otxn's balance
  // audit retries on a wall-clock schedule a trace cannot reproduce).
  FinishTraceSession(session.get(), report);

  // Rebuild every account from the WAL alone. This verifies that
  // kill/reactivate cycles and message faults left a log from which the
  // committed prefix is still exactly recoverable.
  report.violation = stack->Rebuild(num_accounts, /*tear_bytes=*/0);
  if (!report.violation.empty()) return report;
  AuditRound(*stack, round, opts.num_roots, opts.amount, report);
  report.recovery_replay_records += stack->rebuild_replay_records();
  report.recovery_time_us += stack->rebuild_replay_us();
  return report;
}

// ---------------------------------------------------------------------------
// Bounded-time crash recovery
// ---------------------------------------------------------------------------

std::string BoundedRecoveryReport::ToJson() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"committed\":" << committed << ",\"aborted\":" << aborted
     << ",\"checkpoints_taken\":" << checkpoints_taken
     << ",\"checkpoint_lag_bytes\":" << checkpoint_lag_bytes
     << ",\"wal_segments_truncated\":" << wal_segments_truncated
     << ",\"wal_bytes_truncated\":" << wal_bytes_truncated
     << ",\"recovery_replay_records\":" << recovery_replay_records
     << ",\"recovery_time_us\":" << recovery_time_us
     << ",\"wal_bytes_written\":" << wal_bytes_written
     << ",\"wal_bytes_on_disk\":" << wal_bytes_on_disk
     << ",\"total_balance\":" << total_balance
     << ",\"expected_total\":" << expected_total
     << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

BoundedRecoveryReport RunBoundedRecovery(const BoundedRecoveryOptions& options) {
  BoundedRecoveryReport report;
  Rng rng(options.seed);
  report.expected_total = kPerAccount * options.num_accounts;

  MemEnv env;
  std::unique_ptr<SmallBankStack> stack;
  if (options.use_otxn) {
    otxn::OtxnConfig config;
    config.num_workers = 2;
    config.num_loggers = 2;
    config.seed = options.seed;
    config.wal_segment_bytes = options.wal_segment_bytes;
    config.checkpoint_threshold_bytes = options.checkpoint_threshold_bytes;
    stack = MakeOtxnStack(config, &env);
  } else {
    SnapperConfig config;
    config.num_workers = 2;
    config.num_coordinators = 2;
    config.num_loggers = 2;
    config.seed = options.seed;
    config.wal_segment_bytes = options.wal_segment_bytes;
    config.checkpoint_threshold_bytes = options.checkpoint_threshold_bytes;
    stack = MakeSnapperStack(config, &env);
  }

  // The pool is fixed so every actor keeps writing and crosses the
  // checkpoint threshold; with one-shot receivers (the chaos rounds'
  // decodable traffic) the coldest actor would never checkpoint and the
  // truncation floor could never advance.
  for (int i = 0; i < options.num_txns; ++i) {
    const uint64_t from = rng.Uniform(options.num_accounts);
    uint64_t to = rng.Uniform(options.num_accounts);
    if (to == from) to = (to + 1) % options.num_accounts;
    const TxnResult r =
        stack->Submit(stack->Transfer(from, to, options.amount, /*act=*/true))
            .Get();
    (r.ok() ? report.committed : report.aborted)++;
  }
  // Let trailing checkpoint requests / segment truncation drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  if (Future<Unit> ack = stack->Kill(0); ack.valid()) ack.Get();
  std::ostringstream violations;
  report.total_balance =
      AuditBalances(*stack, options.num_accounts, nullptr, violations);
  const MessageCounters& c = stack->Counters();
  report.checkpoints_taken = c.checkpoints_taken.load();
  report.checkpoint_lag_bytes = c.checkpoint_lag_bytes.load();
  report.wal_segments_truncated = c.wal_segments_truncated.load();
  report.wal_bytes_truncated = c.wal_bytes_truncated.load();
  report.recovery_replay_records = c.recovery_replay_records.load();
  report.recovery_time_us = c.recovery_time_us.load();
  report.wal_bytes_written = stack->log_manager().TotalBytes();
  // Live segment bytes: proves truncation physically reclaimed the prefix.
  for (const WalSegment& segment : ListWalSegments(env)) {
    std::string content;
    if (env.ReadFile(segment.name, &content).ok()) {
      report.wal_bytes_on_disk += content.size();
    }
  }

  if (options.checkpoint_threshold_bytes > 0) {
    // The bounded-recovery contract.
    if (report.checkpoints_taken == 0) {
      violations << "checkpointing enabled but no checkpoint was taken; ";
    }
    if (report.wal_segments_truncated == 0) {
      violations << "checkpointing enabled but no WAL segment was "
                    "truncated; ";
    }
    if (report.recovery_replay_records > options.replay_cap) {
      violations << "recovery replayed " << report.recovery_replay_records
                 << " records, above the cap " << options.replay_cap << "; ";
    }
    if (report.wal_bytes_on_disk >= report.wal_bytes_written) {
      violations << "WAL did not shrink: " << report.wal_bytes_on_disk
                 << " bytes on disk vs " << report.wal_bytes_written
                 << " ever written; ";
    }
  }
  report.violation = violations.str();
  return report;
}

uint64_t ChaosSeed(uint64_t fallback) {
  const char* v = std::getenv("SNAPPER_CHAOS_SEED");
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string ReplayCommand(uint64_t seed, const std::string& test_binary,
                          const std::string& gtest_filter) {
  std::ostringstream os;
  os << "replay: SNAPPER_CHAOS_SEED=" << seed << " ./" << test_binary
     << " --gtest_filter='" << gtest_filter << "'";
  return os.str();
}

std::string TraceDir() {
  const char* v = std::getenv("SNAPPER_TRACE_DIR");
  return (v == nullptr) ? std::string() : std::string(v);
}

std::string TraceReplayCommand(const std::string& trace_path,
                               const std::string& test_binary,
                               const std::string& gtest_filter) {
  std::ostringstream os;
  os << "deterministic replay: SNAPPER_REPLAY_TRACE=" << trace_path << " ./"
     << test_binary << " --gtest_filter='" << gtest_filter << "'";
  return os.str();
}

}  // namespace snapper::harness
