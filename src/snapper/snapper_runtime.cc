#include "snapper/snapper_runtime.h"

#include <cassert>
#include <optional>
#include <utility>

#include "snapper/coordinator.h"

namespace snapper {

// ---------------------------------------------------------------------------
// GlobalAbortController
// ---------------------------------------------------------------------------

Future<Unit> GlobalAbortController::RequestAbort(uint64_t bid,
                                                 const Status& cause) {
  return StartOrJoinRound(&bid, cause);
}

Future<Unit> GlobalAbortController::RequestAbortAll(const Status& cause) {
  return StartOrJoinRound(nullptr, cause);
}

Future<Unit> GlobalAbortController::StartOrJoinRound(const uint64_t* bid,
                                                     const Status& cause) {
  Promise<Unit> promise;
  auto future = promise.GetFuture();
  // Copied out of strand_ under mu_; posting happens after the lock is
  // released so the round's first turn never contends with joiners.
  std::shared_ptr<Strand> round_strand;
  {
    MutexLock lock(&mu_);
    uint64_t packed;
    if (!trace::Replaying()) {
      // Whether this caller starts a round, joins the running one, or finds
      // its batch already decided depends on how kills interleave with round
      // completion — a recorded decision, forced on replay.
      packed = StartOrJoinLocked(bid, &round_strand);
      if (trace::Active()) {
        packed = trace::DecisionU64(trace::Site::kAbortRound, packed);
      }
    } else {
      packed = trace::DecisionU64(trace::Site::kAbortRound, 0);
      if ((packed & 2) != 0) {
        StartRoundLocked(packed >> 2, &round_strand);
      }
    }
    if ((packed & 1) != 0) {
      promise.Set(Unit{});  // already decided by a previous round
      return future;
    }
    const uint64_t target = packed >> 2;
    if (finished_rounds_ >= target) {
      // The joined round already finished (possible on replay, where the
      // registration may land after the serially-replayed round completes).
      promise.Set(Unit{});
      return future;
    }
    round_waiters_.emplace_back(target, std::move(promise));
  }
  if (round_strand) {
    Status cause_copy = cause;
    round_strand->Post([this, cause_copy]() {
      RoundTask(cause_copy).StartInline();
    });
  }
  return future;
}

uint64_t GlobalAbortController::StartOrJoinLocked(
    const uint64_t* bid, std::shared_ptr<Strand>* round_strand) {
  if (!running_) {
    if (bid != nullptr && (ctx_->sequencer.IsAborted(*bid) ||
                           ctx_->sequencer.IsCommitted(*bid))) {
      return 1;  // decided_fast
    }
    StartRoundLocked(started_rounds_ + 1, round_strand);
    return (started_rounds_ << 2) | 2;  // started_new
  }
  return started_rounds_ << 2;  // join the running round
}

void GlobalAbortController::StartRoundLocked(
    uint64_t round, std::shared_ptr<Strand>* round_strand) {
  running_ = true;
  started_rounds_ = round;
  paused_.store(true, std::memory_order_release);
  // Bump the epoch before tearing anything down so every in-flight
  // invocation of the old epoch is rejected from here on.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  rounds_.fetch_add(1);
  if (!strand_) strand_ = ctx_->runtime->NewStrand();
  *round_strand = strand_;
}

Task<void> GlobalAbortController::RoundTask(Status cause) {
  const Status status = Status::TxnAborted(
      AbortReason::kCascading, "global abort: " + cause.ToString());
  auto outcome = ctx_->sequencer.BeginAbort(status);
  // Batches already persisting their commit record finish committing first,
  // so every actor sees a stable committed/aborted verdict.
  co_await outcome.committing_drained;

  // Make the verdict durable before any actor rolls back. A batch whose
  // BatchComplete records are all on disk — e.g. one that waited behind a
  // predecessor spared above — would otherwise be committed by recovery's
  // all-completes rule once that predecessor's BatchCommit lands, and a
  // kill reactivates its actor from exactly that WAL right after this
  // round. Each record goes to the logger of the coordinator that formed
  // the batch, beside its BatchInfo (wal/checkpoint.h relies on that). A
  // failed append leaves its batch in doubt, as a crash racing the append
  // would; the in-memory abort stands either way.
  if (!outcome.aborted.empty() && ctx_->log_manager->enabled()) {
    std::vector<Future<Status>> appends;
    appends.reserve(outcome.aborted.size());
    for (const auto& [bid, coordinator] : outcome.aborted) {
      LogRecord record;
      record.type = LogRecordType::kBatchAbort;
      record.id = bid;
      appends.push_back(ctx_->log_manager->LoggerForCoordinator(coordinator)
                            .Append(std::move(record)));
    }
    co_await WhenAll(appends);
  }

  auto actors = ctx_->TransactionalActors();
  std::vector<Future<void>> rollbacks;
  rollbacks.reserve(actors.size());
  for (const auto& id : actors) {
    rollbacks.push_back(ctx_->runtime->Call<TransactionalActor>(
        id, [status](TransactionalActor& a) {
          return a.AbortUncommitted(status);
        }));
  }
  co_await WhenAll(rollbacks);
  FinishRound();
  co_return;
}

void GlobalAbortController::FinishRound() {
  std::vector<Promise<Unit>> resolved;
  {
    MutexLock lock(&mu_);
    running_ = false;
    paused_.store(false, std::memory_order_release);
    if (finished_rounds_ < started_rounds_) finished_rounds_++;
    // Release every waiter whose round watermark has been reached; keep
    // registrations for rounds still ahead (replay can force-start round
    // N+1 while a straggling joiner of it registers late).
    auto it = round_waiters_.begin();
    while (it != round_waiters_.end()) {
      if (it->first <= finished_rounds_) {
        resolved.push_back(std::move(it->second));
        it = round_waiters_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& p : resolved) p.TrySet(Unit{});
}

// ---------------------------------------------------------------------------
// SnapperRuntime
// ---------------------------------------------------------------------------

SnapperRuntime::SnapperRuntime(SnapperConfig config, Env* env)
    : admission_(AdmissionController::Options{
          .pact_tokens = config.max_inflight_pacts,
          .act_tokens = config.max_inflight_acts,
          .degrade_threshold = config.admission_degrade_threshold}),
      shed_pact_future_(FailFastStatus(Status::Overloaded("pact budget"))),
      shed_act_future_(FailFastStatus(Status::Overloaded("act budget"))) {
  if (env == nullptr) {
    owned_env_ = std::make_unique<MemEnv>();
    env = owned_env_.get();
  }
  env_ = env;

  ActorRuntime::Options options;
  options.num_workers = config.num_workers;
  options.mailbox_capacity = config.mailbox_capacity;
  runtime_ = std::make_unique<ActorRuntime>(options);

  log_manager_ = std::make_unique<LogManager>(
      LogManager::Options{
          .num_loggers = config.num_loggers,
          .enable_logging = config.enable_logging,
          .segment_bytes = config.wal_segment_bytes,
          .checkpoint_threshold_bytes = config.checkpoint_threshold_bytes},
      env_, &runtime_->executor());
  if (auto* cp = log_manager_->checkpoints();
      cp != nullptr && cp->checkpointing_enabled()) {
    // Fired from a logger strand when an actor's durable lag crosses the
    // threshold; the checkpoint itself runs as a normal turn on the actor's
    // strand and defers (skips) unless the actor is quiescent.
    cp->SetRequestCheckpointFn([this](const ActorId& id) {
      // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget turn; the
      // CheckpointManager is notified of the outcome via its own hooks.
      runtime_->Call<TransactionalActor>(id, [](TransactionalActor& a) {
        return a.MaybeCheckpoint();
      });
    });
  }

  context_.config = config;
  context_.runtime = runtime_.get();
  context_.log_manager = log_manager_.get();
  context_.abort_controller =
      std::make_unique<GlobalAbortController>(&context_);
  runtime_->set_app_context(&context_);

  context_.coordinator_type = runtime_->RegisterType(
      "SnapperCoordinator", [](uint64_t key) -> std::shared_ptr<ActorBase> {
        return std::make_shared<CoordinatorActor>(key);
      });
}

SnapperRuntime::~SnapperRuntime() { Shutdown(); }

uint32_t SnapperRuntime::RegisterActorType(
    std::string name,
    std::function<std::shared_ptr<TransactionalActor>(uint64_t)> factory) {
  assert(!started_ && "register actor types before Start()");
  return runtime_->RegisterType(
      std::move(name),
      [factory = std::move(factory)](uint64_t key)
          -> std::shared_ptr<ActorBase> { return factory(key); });
}

Result<RecoveryResult> SnapperRuntime::Recover() {
  assert(!started_ && "Recover() must precede Start()");
  auto result = RecoveryManager::Run(env_);
  if (!result.ok()) return result;
  tid_base_ = result.value().max_seen_id + 1;
  context_.counters.recovery_time_us.fetch_add(
      result.value().recovery_time_us);
  context_.counters.recovery_replay_records.fetch_add(
      result.value().replay_records);

  // Re-persist every recovered state as a checkpoint into this
  // incarnation's segments; only then may the previous incarnation's files
  // be retired — otherwise a second crash would lose states recovered from
  // the first.
  if (log_manager_->enabled()) {
    std::vector<Future<Status>> appends;
    for (const auto& [actor, image] : result.value().actor_states) {
      LogRecord record;
      record.type = LogRecordType::kCheckpoint;
      record.actor = actor;
      record.state = image;
      appends.push_back(log_manager_->LoggerFor(actor).Append(record));
    }
    for (auto& f : appends) {
      Status s = f.Get();
      if (!s.ok()) return s;
    }
    log_manager_->RetireLegacyFiles();
  }

  context_.StageRecoveredStates(result.value().actor_states);
  SyncWalCounters();
  return result;
}

void SnapperRuntime::Start() {
  assert(!started_);
  started_ = true;
  Token token;
  token.epoch = context_.abort_controller->epoch();
  token.next_tid = tid_base_;
  runtime_->Call<CoordinatorActor>(
      context_.CoordinatorId(0), [token](CoordinatorActor& c) mutable {
        return c.ReceiveToken(std::move(token));
      });
}

Future<TxnResult> SnapperRuntime::FailFastDegraded() {
  return FailFastStatus(
      Status::IOError("WAL degraded: transactional submission rejected"));
}

Future<TxnResult> SnapperRuntime::FailFastStatus(Status status) {
  Promise<TxnResult> promise;
  auto future = promise.GetFuture();
  TxnResult result;
  result.status = std::move(status);
  promise.Set(std::move(result));
  return future;
}

Future<TxnResult> SnapperRuntime::WithAdmission(
    AdmissionController::TxnClass cls,
    std::function<Future<TxnResult>()> submit) {
  Status admit = admission_.Admit(cls);
  if (!admit.ok()) {
    // Graceful degradation: shedding means the silo is saturated, so free
    // memory by deactivating cold actors behind a durable checkpoint (at
    // most one sweep in flight; no-op unless checkpointing is enabled).
    MaybeShedColdActors();
    // Allocation-free shed: hand back a copy of the pre-resolved future
    // (see shed_pact_future_). Admit's own status carries the precise
    // cause, but materializing it per shed would make rejection as
    // expensive as the saturation it guards against.
    return cls == AdmissionController::TxnClass::kPact ? shed_pact_future_
                                                       : shed_act_future_;
  }
  auto future = submit();
  // The token covers the submission until the client-visible future
  // resolves.
  future.OnReady([this, cls]() { admission_.Release(cls); });
  return future;
}

bool SnapperRuntime::WalDegraded() const {
  // The health flag flips from logger strands; the fail-fast observation is
  // recorded under an active trace session and forced on replay.
  const bool physical =
      log_manager_->enabled() && log_manager_->health().degraded();
  if (!trace::Active()) return physical;
  return trace::DecisionBool(trace::Site::kWalDegraded, physical);
}

Future<TxnResult> SnapperRuntime::SubmitPact(const ActorId& first,
                                             std::string method, Value input,
                                             ActorAccessInfo info) {
  assert(started_);
  if (WalDegraded()) return FailFastDegraded();
  return WithAdmission(
      AdmissionController::TxnClass::kPact,
      [&]() {
        FuncCall call{std::move(method), std::move(input)};
        return runtime_->Call<TransactionalActor>(
            first, [call = std::move(call),
                    info = std::move(info)](TransactionalActor& a) mutable {
              return a.StartTxn(TxnMode::kPact, std::move(call),
                                std::move(info));
            });
      });
}

Future<TxnResult> SnapperRuntime::SubmitAct(const ActorId& first,
                                            std::string method, Value input) {
  assert(started_);
  if (WalDegraded()) return FailFastDegraded();
  return WithAdmission(
      AdmissionController::TxnClass::kAct,
      [&]() {
        FuncCall call{std::move(method), std::move(input)};
        return runtime_->Call<TransactionalActor>(
            first, [call = std::move(call)](TransactionalActor& a) mutable {
              return a.StartTxn(TxnMode::kAct, std::move(call), {});
            });
      });
}

Future<TxnResult> SnapperRuntime::SubmitNt(const ActorId& first,
                                           std::string method, Value input) {
  FuncCall call{std::move(method), std::move(input)};
  return runtime_->Call<TransactionalActor>(
      first, [call = std::move(call)](TransactionalActor& a) mutable {
        return a.StartTxn(TxnMode::kNt, std::move(call), {});
      });
}

Future<Unit> SnapperRuntime::KillActor(const ActorId& id) {
  assert(started_);
  const uint64_t generation = context_.MarkActorKilled(id);
  context_.counters.actor_kills.fetch_add(1);
  // SNAPPER-ANALYZE-ALLOW(discarded-task): ActorRuntime::KillActor returns
  // bool; only SnapperRuntime's same-named method is a Future.
  runtime_->KillActor(id);
  // Coordinators abort in-flight batches naming the dead participant, with
  // a durable BatchAbort record, so the bid-ordered commit chain never
  // waits on it.
  for (size_t i = 0; i < context_.config.num_coordinators; ++i) {
    runtime_->Call<CoordinatorActor>(
        context_.CoordinatorId(i),
        [id](CoordinatorActor& c) { return c.OnActorFailed(id); });
  }
  // A global abort round gives every in-flight transaction that touched the
  // dead activation a stable, durable verdict (committing batches finish
  // committing, everything else rolls back). Only after that is the WAL a
  // consistent source for the actor's last committed state.
  auto round = context_.abort_controller->RequestAbortAll(Status::TxnAborted(
      AbortReason::kActorFailed, "actor " + id.ToString() + " killed"));
  auto done = std::make_shared<Promise<Unit>>();
  auto future = done->GetFuture();
  round.OnReady([this, id, generation, done]() {
    ReactivateFromWal(id, generation, done);
  });
  return future;
}

void SnapperRuntime::ReactivateFromWal(const ActorId& id, uint64_t generation,
                                       std::shared_ptr<Promise<Unit>> done) {
  // Rescan the WAL for the actor's last committed state. Safe concurrently
  // with live logging: reads observe only durable (record-aligned) content,
  // and this actor's own records cannot change — its fresh activation
  // rejects all work until FinishReactivation installs the state.
  std::optional<std::string> image;
  auto result = RecoveryManager::Run(env_);
  if (result.ok()) {
    context_.counters.recovery_time_us.fetch_add(
        result.value().recovery_time_us);
    context_.counters.recovery_replay_records.fetch_add(
        result.value().replay_records);
    auto it = result.value().actor_states.find(id);
    if (it != result.value().actor_states.end()) {
      image = std::move(it->second);
    }
  }
  // A failed scan (possible only under injected storage faults) falls
  // through with no state: the actor restarts from InitialState, the same
  // trade whole-process recovery makes on an unreadable log.
  auto install = runtime_->Call<TransactionalActor>(
      id,
      [image = std::move(image), generation](TransactionalActor& a) mutable {
        return a.FinishReactivation(std::move(image), generation);
      });
  install.OnReady([done]() { done->TrySet(Unit{}); });
}

void SnapperRuntime::MaybeShedColdActors() {
  auto* cp = log_manager_->checkpoints();
  if (cp == nullptr || !cp->checkpointing_enabled()) return;
  if (cold_shed_inflight_.exchange(true)) return;
  constexpr size_t kColdShedBatch = 4;
  auto candidates = cp->ColdActors(kColdShedBatch);
  std::vector<Future<bool>> acks;
  acks.reserve(candidates.size());
  for (const auto& id : candidates) {
    // An actor mid-kill already has no activation worth shedding.
    if (context_.IsActorKilled(id)) continue;
    acks.push_back(runtime_->Call<TransactionalActor>(
        id,
        [](TransactionalActor& a) { return a.CheckpointAndDeactivate(); }));
  }
  if (acks.empty()) {
    cold_shed_inflight_.store(false);
    return;
  }
  WhenAll(std::move(acks)).OnReady([this]() {
    cold_shed_inflight_.store(false);
  });
}

void SnapperRuntime::SyncWalCounters() {
  const auto* cp = log_manager_->checkpoints();
  if (cp == nullptr) return;
  const CheckpointStats& stats = cp->stats();
  context_.counters.checkpoints_taken.store(stats.checkpoints_durable.load());
  context_.counters.checkpoint_lag_bytes.store(stats.lag_bytes.load());
  context_.counters.wal_segments_truncated.store(
      stats.segments_truncated.load());
  context_.counters.wal_bytes_truncated.store(stats.bytes_truncated.load());
}

void SnapperRuntime::Shutdown() { runtime_->Shutdown(); }

}  // namespace snapper
