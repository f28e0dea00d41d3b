#include "otxn/otxn_runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "async/timer.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"

namespace snapper::otxn {

namespace {

using TimePoint = std::chrono::steady_clock::time_point;
TimePoint Now() { return std::chrono::steady_clock::now(); }
uint32_t MicrosBetween(TimePoint from, TimePoint to) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// TransactionAgent
// ---------------------------------------------------------------------------

uint64_t TransactionAgent::Begin() {
  MutexLock lock(&mu_);
  return next_tid_++;
}

Future<Status> TransactionAgent::WaitDecided(uint64_t tid) {
  Promise<Status> promise;
  auto future = promise.GetFuture();
  {
    MutexLock lock(&mu_);
    auto it = decided_.find(tid);
    if (it == decided_.end()) {
      waiters_[tid].push_back(std::move(promise));
      return future;
    }
    if (it->second == State::kCommitted) {
      promise.TrySet(Status::OK());
    } else {
      promise.TrySet(Status::TxnAborted(AbortReason::kEarlyLockRelease,
                                        "dependency aborted"));
    }
  }
  return future;
}

void TransactionAgent::NotifyCommitted(uint64_t tid) {
  std::vector<Promise<Status>> waiters;
  {
    MutexLock lock(&mu_);
    decided_[tid] = State::kCommitted;
    auto it = waiters_.find(tid);
    if (it != waiters_.end()) {
      waiters = std::move(it->second);
      waiters_.erase(it);
    }
  }
  for (auto& p : waiters) p.TrySet(Status::OK());
}

void TransactionAgent::NotifyAborted(uint64_t tid) {
  std::vector<Promise<Status>> waiters;
  {
    MutexLock lock(&mu_);
    decided_[tid] = State::kAborted;
    auto it = waiters_.find(tid);
    if (it != waiters_.end()) {
      waiters = std::move(it->second);
      waiters_.erase(it);
    }
  }
  const Status aborted =
      Status::TxnAborted(AbortReason::kEarlyLockRelease, "dependency aborted");
  for (auto& p : waiters) p.TrySet(aborted);
}

uint64_t TransactionAgent::num_started() const {
  MutexLock lock(&mu_);
  return next_tid_ - 1;
}

// ---------------------------------------------------------------------------
// OtxnActor
// ---------------------------------------------------------------------------

OtxnRuntime& OtxnActor::ortx() const {
  return *static_cast<OtxnRuntime*>(runtime().app_context());
}

void OtxnActor::OnActivate() {
  state_ = InitialState();
  if (runtime().app_context() == nullptr) return;  // bare-runtime tests
  if (ortx().IsActorKilled(id())) {
    recovering_ = true;
    Reactivate().Start(strand());
  }
}

void OtxnActor::OnKill() {
  // Waiters parked on this zombie's lock would otherwise sit until their
  // wait timeout; fail them immediately.
  lock_.FailAllWaiters(Status::TxnAborted(
      AbortReason::kActorFailed, "actor " + id().ToString() + " killed"));
}

Task<void> OtxnActor::Reactivate() {
  DcheckOnStrand("Reactivate");
  auto& rt = ortx();
  if (rt.log_manager().enabled()) {
    // Logger FIFO barrier: appends to one logger complete in order, so once
    // this record is durable every prepare append issued by the previous
    // activation has drained. A kActCommit with id 0 and no state is
    // ignored by recovery and by the scan below.
    LogRecord barrier;
    barrier.type = LogRecordType::kActCommit;
    barrier.id = 0;
    barrier.actor = id();
    auto barrier_done = rt.log_manager().LoggerFor(id()).Append(barrier);
    co_await barrier_done;
    const TimePoint scan_start = Now();

    // Replay this actor's records in append order. All of them live in one
    // logger's stream (LoggerFor is a stable hash), read segment by segment
    // in ListWalSegments order. A checkpoint record resets the base state
    // and discards the prepares before it: only the checkpoint-to-tail
    // suffix is replayed. Files deleted by a racing truncation read as
    // NotFound and are skipped — every state record they held is
    // superseded by a later durable checkpoint.
    std::optional<Value> base;
    std::vector<std::pair<uint64_t, Value>> prepared;
    for (const auto& f : ListWalSegments(rt.env())) {
      std::string content;
      if (!rt.env().ReadFile(f.name, &content).ok()) continue;
      LogCursor cursor(content);
      LogRecord record;
      while (cursor.Next(&record).ok()) {
        if (!(record.actor == id()) || record.state.empty()) continue;
        if (record.type == LogRecordType::kCheckpoint) {
          std::string_view in = record.state;
          Value snapshot;
          if (!snapshot.DecodeFrom(&in)) continue;
          base = std::move(snapshot);
          prepared.clear();  // superseded: replay only the suffix
          continue;
        }
        if (record.type != LogRecordType::kActPrepare) continue;
        std::string_view in = record.state;
        Value snapshot;
        if (!snapshot.DecodeFrom(&in)) continue;
        prepared.emplace_back(record.id, std::move(snapshot));
      }
    }
    rt.counters().recovery_replay_records.fetch_add(prepared.size());
    // Early lock release makes prepare order == write order, so the last
    // committed prepared snapshot is the durable state. The TA is the
    // commit authority and survives actor kills; the fallback timeout is
    // insurance only (roots decide in bounded time).
    std::optional<Value> recovered = std::move(base);
    for (auto& [tid, snapshot] : prepared) {
      auto decided = rt.agent().WaitDecided(tid);
      auto bounded = AwaitWithFallback<Status>(
          runtime().timers(), decided, std::chrono::milliseconds(10000),
          Status::TxnAborted(AbortReason::kActorFailed,
                             "undecided at reactivation"));
      const Status s = co_await bounded;
      if (s.ok()) recovered = std::move(snapshot);
    }
    if (recovered.has_value()) state_ = std::move(*recovered);
    rt.counters().recovery_time_us.fetch_add(
        MicrosBetween(scan_start, Now()));
  }
  recovering_ = false;
  std::chrono::steady_clock::time_point killed_at;
  if (rt.ClearKillMark(id(), &killed_at)) {
    rt.counters().reactivations.fetch_add(1);
    rt.counters().reactivation_us.fetch_add(MicrosBetween(killed_at, Now()));
  }
  co_return;
}

Task<bool> OtxnActor::MaybeCheckpoint() {
  DcheckOnStrand("MaybeCheckpoint");
  auto& rt = ortx();
  auto* cp = rt.log_manager().checkpoints();
  if (cp == nullptr || !rt.log_manager().enabled()) co_return false;
  // Quiescent turn boundary: no dirty (uncommitted) writes in state_ and no
  // transaction between invocation and decision here — state_ is exactly
  // the committed image, and every prepare record this actor ever logged
  // belongs to a decided transaction, so the checkpoint supersedes them.
  const bool quiescent = !failed() && !recovering_ && write_stack_.empty() &&
                         wrote_.empty() && txn_local_.empty() &&
                         lock_.IsFree();
  if (!quiescent) {
    cp->OnCheckpointSkipped(id());
    co_return false;
  }
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  record.actor = id();
  record.state = state_.Encode();
  auto append = rt.log_manager().LoggerFor(id()).Append(std::move(record));
  const Status s = co_await append;
  if (!s.ok()) cp->OnCheckpointSkipped(id());
  co_return s.ok();
}

Task<Value*> OtxnActor::GetState(TxnContext& ctx, AccessMode mode) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  DcheckOnStrand("GetState");
  auto& rt = ortx();
  if (failed() || recovering_) {
    throw TxnAbort(Status::TxnAborted(
        AbortReason::kActorFailed, "actor " + id().ToString() + " unavailable"));
  }
  if (IsTombstoned(ctx.tid)) {
    throw TxnAbort(Status::TxnAborted(AbortReason::kCascading,
                                      "transaction already aborted"));
  }
  // 2PL with timeout-based deadlock handling (§5.2.2: OrleansTxn uses a
  // timeout mechanism, not wait-die).
  Status s = co_await AwaitStatusWithTimeout(runtime().timers(),
                                             lock_.Acquire(ctx.tid, mode),
                                             rt.config().lock_wait_timeout);
  if (s.IsTimedOut()) {
    throw TxnAbort(Status::TxnAborted(AbortReason::kActActConflict,
                                      "lock wait timed out"));
  }
  if (!s.ok()) throw TxnAbort(s);

  // Early lock release left dirty, uncommitted data in state_: pick up
  // commit dependencies on those writers.
  for (const auto& w : write_stack_) {
    if (w.tid != ctx.tid) ctx.info->AddDependency(w.tid);
  }
  if (mode == AccessMode::kReadWrite && wrote_.insert(ctx.tid).second) {
    write_stack_.push_back(DirtyWrite{ctx.tid, state_});
    ctx.info->MarkWrote(id());
  }
  co_return &state_;
}

Task<Value> OtxnActor::CallActor(TxnContext& ctx, const ActorId& target,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                 FuncCall call) {
  // Issue-time registration: an abort must reach actors whose invocations
  // are still in flight (their tombstones then reject the late arrival).
  ctx.info->RegisterParticipant(target);
  if (target == id()) {
    co_return co_await InvokeTxn(ctx, std::move(call));
  }
  auto future = runtime().Call<OtxnActor>(
      target, [ctx, call = std::move(call)](OtxnActor& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
  co_return co_await future;
}

Future<Value> OtxnActor::CallActorAsync(TxnContext& ctx, const ActorId& target,
                                        FuncCall call) {
  ctx.info->RegisterParticipant(target);  // see CallActor
  if (target == id()) {
    return InvokeTxn(ctx, std::move(call)).Start(strand());
  }
  return runtime().Call<OtxnActor>(
      target, [ctx, call = std::move(call)](OtxnActor& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
}

Task<Value> OtxnActor::InvokeTxn(TxnContext ctx, FuncCall call) {
  DcheckOnStrand("InvokeTxn");
  if (failed() || recovering_) {
    throw TxnAbort(Status::TxnAborted(
        AbortReason::kActorFailed, "actor " + id().ToString() + " unavailable"));
  }
  auto method = methods_.find(call.method);
  if (method == methods_.end()) {
    throw TxnAbort(Status::InvalidArgument("unknown method: " + call.method));
  }
  if (IsTombstoned(ctx.tid)) {
    throw TxnAbort(Status::TxnAborted(AbortReason::kCascading,
                                      "transaction already aborted"));
  }
  ctx.info->RegisterParticipant(id());
  txn_local_[ctx.tid].active++;
  Value result;
  std::exception_ptr error;
  try {
    result = co_await method->second(ctx, std::move(call.input));
  } catch (...) {
    error = std::current_exception();
  }
  auto it = txn_local_.find(ctx.tid);
  if (it != txn_local_.end()) {
    it->second.active--;
    if (it->second.abort_pending && it->second.active <= 0) {
      DoAbortLocal(ctx.tid);
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
  co_return result;
}

Task<bool> OtxnActor::Prepare(uint64_t tid) {
  DcheckOnStrand("Prepare");
  if (failed() || recovering_ || IsTombstoned(tid)) co_return false;
  if (txn_local_.find(tid) == txn_local_.end() && wrote_.count(tid) == 0 &&
      !lock_.IsHeldBy(tid)) {
    // Unknown tid: a fresh activation standing in for a killed one must not
    // persist a snapshot that is missing the transaction's writes.
    co_return false;
  }
  // Early lock release: locks drop before the commit decision is durable.
  lock_.Release(tid);
  auto& rt = ortx();
  if (rt.log_manager().enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActPrepare;
    record.id = tid;
    record.actor = id();
    if (wrote_.count(tid) > 0) {
      // Early lock release means state_ may already carry dirty writes of
      // *later* writers this transaction never read (so it holds no commit
      // dependency on them, and their aborts are invisible to recovery's
      // replay). Persist the image as of this transaction's own write: the
      // next dirty writer's before-image, or state_ when it is the newest
      // writer. Committed earlier writes are included either way.
      const Value* image = &state_;
      for (size_t i = 0; i < write_stack_.size(); ++i) {
        if (write_stack_[i].tid != tid) continue;
        if (i + 1 < write_stack_.size()) {
          image = &write_stack_[i + 1].before_image;
        }
        break;
      }
      record.state = image->Encode();
    }
    Status ls = co_await rt.log_manager().LoggerFor(id()).Append(record);
    if (!ls.ok()) co_return false;
  }
  co_return true;
}

Task<void> OtxnActor::Commit(uint64_t tid) {
  DcheckOnStrand("Commit");
  for (auto it = write_stack_.begin(); it != write_stack_.end(); ++it) {
    if (it->tid == tid) {
      write_stack_.erase(it);
      break;
    }
  }
  wrote_.erase(tid);
  txn_local_.erase(tid);
  lock_.Release(tid);  // defensive; normally released at Prepare
  auto& rt = ortx();
  // The threshold request always fires mid-transaction (it rides this
  // transaction's own prepare flush), so MaybeCheckpoint skipped. The
  // decision point is the first turn boundary that can be quiescent: poke
  // so a standing over-threshold lag re-requests now.
  if (auto* cp = rt.log_manager().checkpoints()) cp->Poke(id());
  if (rt.log_manager().enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActCommit;
    record.id = tid;
    record.actor = id();
    // Fire-and-forget: the TA's decision table is the commit authority and
    // recovery consults it (WaitDecided); this record is advisory, so a
    // lost append degrades recovery speed, never correctness.
    // coro-lint: allow(discarded-task)
    rt.log_manager().LoggerFor(id()).Append(std::move(record));
  }
  co_return;
}

Task<void> OtxnActor::Abort(uint64_t tid) {
  DcheckOnStrand("Abort");
  Tombstone(tid);
  auto it = txn_local_.find(tid);
  if (it != txn_local_.end() && it->second.active > 0) {
    it->second.abort_pending = true;  // rollback deferred until it unwinds
    co_return;
  }
  DoAbortLocal(tid);
  co_return;
}

void OtxnActor::Tombstone(uint64_t tid) {
  if (aborted_txns_.insert(tid).second) {
    aborted_txns_fifo_.push_back(tid);
    if (aborted_txns_fifo_.size() > kMaxTombstones) {
      aborted_txns_.erase(aborted_txns_fifo_.front());
      aborted_txns_fifo_.pop_front();
    }
  }
}

void OtxnActor::DoAbortLocal(uint64_t tid) {
  for (size_t i = 0; i < write_stack_.size(); ++i) {
    if (write_stack_[i].tid != tid) continue;
    // Roll back to this writer's before-image; every later entry belongs to
    // a dependent that the TA cascades an abort to as well.
    state_ = write_stack_[i].before_image;
    for (size_t j = i; j < write_stack_.size(); ++j) {
      wrote_.erase(write_stack_[j].tid);
    }
    write_stack_.resize(i);
    break;
  }
  wrote_.erase(tid);
  txn_local_.erase(tid);
  lock_.Release(tid);
  // Same decision-point poke as Commit: the skipped mid-transaction
  // checkpoint request gets a quiescent retry window here.
  if (auto* cp = ortx().log_manager().checkpoints()) cp->Poke(id());
}

// ---------------------------------------------------------------------------
// OtxnRuntime
// ---------------------------------------------------------------------------

OtxnRuntime::OtxnRuntime(OtxnConfig config, Env* env)
    : config_(config),
      // Single submission class: the whole budget is the "ACT" bucket and
      // the degradation threshold is moot.
      admission_(AdmissionController::Options{
          .pact_tokens = 0,
          .act_tokens = config.max_inflight_txns,
          .degrade_threshold = 1.0}),
      shed_future_([] {
        Promise<TxnResult> promise;
        TxnResult shed;
        shed.status = Status::Overloaded("act budget");
        promise.Set(std::move(shed));
        return promise.GetFuture();
      }()) {
  if (env == nullptr) {
    owned_env_ = std::make_unique<MemEnv>();
    env = owned_env_.get();
  }
  env_ = env;
  ActorRuntime::Options options;
  options.num_workers = config.num_workers;
  options.mailbox_capacity = config.mailbox_capacity;
  options.seed = config.seed;
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
    cp->SetRequestCheckpointFn([this](const ActorId& id) {
      // coro-lint: allow(discarded-task) — fire-and-forget turn; the
      // CheckpointManager learns the outcome via its own hooks.
      runtime_->Call<OtxnActor>(
          id, [](OtxnActor& a) { return a.MaybeCheckpoint(); });
    });
  }
  runtime_->set_app_context(this);
  ta_strand_ = runtime_->NewStrand();
}

OtxnRuntime::~OtxnRuntime() { Shutdown(); }

void OtxnRuntime::Shutdown() { runtime_->Shutdown(); }

void OtxnRuntime::KillActor(const ActorId& id) {
  {
    MutexLock lock(&kill_mu_);
    kill_marks_[id] = std::chrono::steady_clock::now();
  }
  counters_.actor_kills.fetch_add(1);
  // coro-lint: allow(discarded-task) — ActorRuntime::KillActor returns
  // bool; the Future-returning KillActor is SnapperRuntime's.
  runtime_->KillActor(id);
}

void OtxnRuntime::SyncWalCounters() {
  const auto* cp = log_manager_->checkpoints();
  if (cp == nullptr) return;
  const CheckpointStats& stats = cp->stats();
  counters_.checkpoints_taken.store(stats.checkpoints_durable.load());
  counters_.checkpoint_lag_bytes.store(stats.lag_bytes.load());
  counters_.wal_segments_truncated.store(stats.segments_truncated.load());
  counters_.wal_bytes_truncated.store(stats.bytes_truncated.load());
}

bool OtxnRuntime::IsActorKilled(const ActorId& id) const {
  // Marks are set by the harness kill thread and read by turns: recorded
  // under an active trace session, forced on replay (mirrors
  // SnapperContext's kill marks).
  bool physical;
  {
    MutexLock lock(&kill_mu_);
    physical = kill_marks_.count(id) > 0;
  }
  if (!trace::Active()) return physical;
  return trace::DecisionBool(trace::Site::kKillMarkCheck, physical);
}

bool OtxnRuntime::ClearKillMark(
    const ActorId& id, std::chrono::steady_clock::time_point* killed_at) {
  MutexLock lock(&kill_mu_);
  auto it = kill_marks_.find(id);
  const bool physical = it != kill_marks_.end();
  const bool decided =
      trace::Active()
          ? trace::DecisionBool(trace::Site::kKillMarkClear, physical)
          : physical;
  if (!decided) return false;
  // The timestamp feeds only the reactivation-latency counter, which is
  // excluded from replay comparison; a forced-true clear with no physical
  // mark reports "now".
  *killed_at =
      physical ? it->second : std::chrono::steady_clock::now();
  if (physical) kill_marks_.erase(it);
  return true;
}

uint32_t OtxnRuntime::RegisterActorType(
    std::string name,
    std::function<std::shared_ptr<OtxnActor>(uint64_t)> factory) {
  return runtime_->RegisterType(
      std::move(name),
      [factory = std::move(factory)](uint64_t key)
          -> std::shared_ptr<ActorBase> { return factory(key); });
}

Future<TxnResult> OtxnRuntime::Submit(const ActorId& first, std::string method,
                                      Value input) {
  Status admit = admission_.Admit(AdmissionController::TxnClass::kAct);
  // Allocation-free shed: a copy of the pre-resolved kOverloaded future.
  if (!admit.ok()) return shed_future_;
  FuncCall call{std::move(method), std::move(input)};
  auto task = RunTxn(first, std::move(call));
  auto future = task.Start(*ta_strand_);
  future.OnReady(
      [this]() { admission_.Release(AdmissionController::TxnClass::kAct); });
  return future;
}

Task<TxnResult> OtxnRuntime::RunTxn(ActorId first, FuncCall call) {
  TxnResult out;
  const TimePoint t0 = Now();

  // I2: the TA assigns the tid (an in-memory call, like Orleans' TA).
  TxnContext ctx;
  ctx.tid = agent_.Begin();
  ctx.mode = TxnMode::kAct;
  ctx.root_actor = first;
  ctx.info = std::make_shared<SharedTxnInfo>();
  const TimePoint t1 = Now();
  out.timings.start_us = MicrosBetween(t0, t1);

  Value result;
  Status failure;
  try {
    auto exec_future = runtime_->Call<OtxnActor>(
        first, [ctx, call = std::move(call)](OtxnActor& a) mutable {
          return a.InvokeTxn(ctx, std::move(call));
        });
    result = co_await exec_future;
  } catch (...) {
    failure = StatusFromExceptionPtr(std::current_exception());
  }
  const TimePoint t2 = Now();
  out.timings.exec_us = MicrosBetween(t1, t2);

  const TxnExeInfo info = ctx.info->Snapshot();

  if (failure.ok()) {
    // Early-lock-release dependencies must commit first; an aborted
    // dependency cascades (the price of ELR, §1).
    for (uint64_t dep : ctx.info->Dependencies()) {
      auto decided = agent_.WaitDecided(dep);
      Status s = co_await decided;
      if (!s.ok()) {
        failure = s;
        break;
      }
    }
  }

  if (failure.ok()) {
    // TA-coordinated 2PC: unlike Snapper's ACT, even the first accessed
    // actor pays Prepare/Commit messages (§5.2.3).
    if (log_manager_->enabled()) {
      LogRecord record;
      record.type = LogRecordType::kActCoordPrepare;
      record.id = ctx.tid;
      for (const auto& [actor, _] : info.participants) {
        record.participants.push_back(actor);
      }
      Status ls = co_await log_manager_->LoggerForCoordinator(0).Append(record);
      if (!ls.ok()) {
        failure = Status::TxnAborted(AbortReason::kSystemFailure,
                                     "CoordPrepare log failed");
      }
    }
  }

  if (failure.ok()) {
    // Droppable fan-out: a vote that never arrives counts as a "no" after
    // the lock-wait timeout, so the TA always decides in bounded time.
    std::vector<Future<bool>> votes;
    for (const auto& [actor, _] : info.participants) {
      counters_.act_prepares.fetch_add(1);
      votes.push_back(runtime_->Call<OtxnActor>(
          actor, [tid = ctx.tid](OtxnActor& a) { return a.Prepare(tid); },
          MsgGuard::kDroppable));
    }
    bool all_yes = true;
    auto* counters = &counters_;
    for (auto& vote : votes) {
      // Hoisted out of the co_await full-expression (GCC 12 miscompiles
      // non-trivial temporaries held across a suspension).
      auto bounded = AwaitWithFallback<bool>(
          runtime_->timers(), vote, config_.lock_wait_timeout, false,
          [counters]() { counters->watchdog_act_aborts.fetch_add(1); });
      const bool yes = co_await bounded;
      all_yes = yes && all_yes;
    }
    if (!all_yes) {
      failure = Status::TxnAborted(AbortReason::kCascading,
                                   "participant voted no");
    }
  }

  if (failure.ok() && log_manager_->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActCoordCommit;
    record.id = ctx.tid;
    Status ls = co_await log_manager_->LoggerForCoordinator(0).Append(record);
    if (!ls.ok()) {
      failure = Status::TxnAborted(AbortReason::kSystemFailure,
                                   "CoordCommit log failed");
    }
  }

  if (failure.ok()) {
    agent_.NotifyCommitted(ctx.tid);
    // Droppable + bounded: a lost Commit leaves stale dirty-write residue
    // on the participant, which the TA's decision table resolves on the
    // next dependency wait or at reactivation.
    std::vector<Future<void>> acks;
    for (const auto& [actor, _] : info.participants) {
      counters_.act_commits.fetch_add(1);
      acks.push_back(runtime_->Call<OtxnActor>(
          actor, [tid = ctx.tid](OtxnActor& a) { return a.Commit(tid); },
          MsgGuard::kDroppable));
    }
    for (auto& ack : acks) {
      auto bounded = AwaitWithFallback<void>(
          runtime_->timers(), ack, config_.lock_wait_timeout, Unit{});
      co_await bounded;
    }
    out.timings.commit_us = MicrosBetween(t2, Now());
    out.value = std::move(result);
    co_return out;
  }

  // Presumed abort + cascade cleanup. Droppable + bounded like the commit
  // acks: cleanup failures are non-fatal.
  agent_.NotifyAborted(ctx.tid);
  std::vector<Future<void>> acks;
  for (const auto& [actor, _] : info.participants) {
    counters_.act_aborts.fetch_add(1);
    acks.push_back(runtime_->Call<OtxnActor>(
        actor, [tid = ctx.tid](OtxnActor& a) { return a.Abort(tid); },
        MsgGuard::kDroppable));
  }
  for (auto& ack : acks) {
    auto bounded = AwaitWithFallback<void>(
        runtime_->timers(), ack, config_.lock_wait_timeout, Unit{});
    co_await bounded;
  }
  out.timings.commit_us = MicrosBetween(t2, Now());
  out.status = failure;
  co_return out;
}

}  // namespace snapper::otxn
