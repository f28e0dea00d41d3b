#include "snapper/transactional_actor.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "snapper/coordinator.h"
#include "wal/log_format.h"

namespace snapper {

namespace {

/// kNoBid-aware max.
uint64_t MaxBid(uint64_t a, uint64_t b) {
  if (a == kNoBid) return b;
  if (b == kNoBid) return a;
  return std::max(a, b);
}

using TimePoint = std::chrono::steady_clock::time_point;

TimePoint Now() { return std::chrono::steady_clock::now(); }

uint32_t MicrosBetween(TimePoint from, TimePoint to) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Decodes a state image `actor` encoded itself. Such an image always
/// decodes; one that does not is a program bug, and rolling back to a null
/// state would silently fork history, so fail loudly instead.
Value DecodeImage(std::string_view image, const ActorId& actor) {
  Value state;
  if (!state.DecodeFrom(&image) || !image.empty()) {
    std::fprintf(stderr, "snapper: undecodable state image on actor %s\n",
                 actor.ToString().c_str());
    std::fflush(stderr);
    std::abort();
  }
  return state;
}

}  // namespace

void TransactionalActor::InstallImage(std::string image) {
  state_ = DecodeImage(image, id());
  committed_image_ = std::move(image);
}

Value TransactionalActor::committed_state_for_test() const {
  return DecodeImage(committed_image_, id());
}

void TransactionalActor::OnActivate() {
  const bool bare = runtime().app_context() == nullptr;  // bare-runtime tests
  auto recovered = bare ? std::nullopt : sctx().TakeRecoveredState(id());
  if (recovered.has_value()) {
    InstallImage(std::move(*recovered));
  } else {
    state_ = InitialState();
    committed_image_ = state_.Encode();
  }
  if (bare) return;
  sctx().RegisterTransactionalActor(id());
  if (sctx().IsActorKilled(id())) {
    // Fresh activation standing in for a killed one: serve nothing until the
    // runtime reinstalls the durable state (FinishReactivation) — serving
    // InitialState here would fork history.
    recovering_ = true;
  }
}

void TransactionalActor::OnKill() {
  if (runtime().app_context() == nullptr) return;  // bare-runtime tests
  const Status status = Status::TxnAborted(
      AbortReason::kActorFailed, "actor " + id().ToString() + " killed");
  // This zombie activation will never take another turn of useful work;
  // everything parked on it must fail now so no caller blocks forever, and
  // the global abort round's quiesce must not wait on it.
  lock_.FailAllWaiters(status);
  // SNAPPER-ANALYZE-ALLOW(discarded-task): LocalScheduleManager's
  // AbortUncommitted returns void; only ours is a Task.
  schedule_.AbortUncommitted(status, [](uint64_t) { return false; });
  NotifyQuiesce();
}

Task<void> TransactionalActor::FinishReactivation(
    std::optional<std::string> image, uint64_t generation) {
  DcheckOnStrand("FinishReactivation");
  std::chrono::steady_clock::time_point killed_at;
  if (!sctx().ClearKillMark(id(), generation, &killed_at)) {
    co_return;  // a newer kill superseded this reactivation
  }
  if (image.has_value()) InstallImage(std::move(*image));
  recovering_ = false;
  sctx().counters.reactivations.fetch_add(1);
  sctx().counters.reactivation_us.fetch_add(MicrosBetween(killed_at, Now()));
  co_return;
}

Status TransactionalActor::StatusFromException(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const TxnAbort& abort) {
    return abort.status();
  } catch (const std::exception& ex) {
    return Status::TxnAborted(AbortReason::kUserAbort, ex.what());
  } catch (...) {
    return Status::TxnAborted(AbortReason::kUserAbort, "unknown exception");
  }
}

// ---------------------------------------------------------------------------
// User-facing API
// ---------------------------------------------------------------------------

Task<Value*> TransactionalActor::GetState(TxnContext& ctx, AccessMode mode) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  DcheckOnStrand("GetState");
  if (failed() || recovering_) {
    // A zombie activation (or one whose durable state is not reinstalled
    // yet) must never hand out a state pointer.
    throw TxnAbort(Status::TxnAborted(
        AbortReason::kActorFailed, "actor " + id().ToString() + " unavailable"));
  }
  switch (ctx.mode) {
    case TxnMode::kPact:
      // Gating already happened at invocation entry (§4.2.3); record writer
      // status for the BatchComplete snapshot decision.
      if (mode == AccessMode::kReadWrite) schedule_.SetBatchWrote(ctx.bid);
      co_return &state_;

    case TxnMode::kAct: {
      if (IsTombstonedAct(ctx.tid)) {
        throw TxnAbort(Status::TxnAborted(AbortReason::kCascading,
                                          "ACT already aborted"));
      }
      Future<Status> acquired = lock_.Acquire(ctx.tid, mode);
      // A queued request is a pending wait the hybrid deadlock rule may end.
      if (ctx.info && !acquired.ready()) ctx.info->AddPendingWait(acquired);
      Status s = co_await AwaitStatusWithTimeout(
          runtime().timers(), acquired, sctx().config.act_wait_timeout);
      if (s.IsTimedOut()) {
        // The backstop for deadlocks the rule does not claim (§4.4.2):
        // ACTs lose to PACTs.
        sctx().counters.act_wait_timeouts.fetch_add(1);
        throw TxnAbort(Status::TxnAborted(AbortReason::kPactActDeadlock,
                                          "lock wait timed out"));
      }
      if (!s.ok()) throw TxnAbort(s);
      if (mode == AccessMode::kReadWrite) {
        ActLocal& local = act_local_[ctx.tid];
        if (local.before_image.empty()) local.before_image = state_.Encode();
        if (ctx.info) ctx.info->MarkWrote(id());
      }
      co_return &state_;
    }

    case TxnMode::kNt:
      co_return &state_;
  }
  co_return &state_;  // unreachable
}

Task<Value> TransactionalActor::CallActor(TxnContext& ctx,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                          const ActorId& target,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                          FuncCall call) {
  // Register the callee at issue time, not arrival time: if the transaction
  // aborts while this call is still in flight, the root must know to send
  // the callee an abort (whose tombstone then rejects the late invocation).
  if (ctx.mode == TxnMode::kAct && ctx.info) {
    ctx.info->RegisterParticipant(target);
  }
  if (target == id()) {
    // Local call: still a distinct access, scheduled like any other.
    co_return co_await InvokeTxn(ctx, std::move(call));
  }
  auto future = runtime().Call<TransactionalActor>(
      target,
      [ctx, call = std::move(call)](TransactionalActor& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
  co_return co_await future;
}

Future<Value> TransactionalActor::CallActorAsync(TxnContext& ctx,
                                                 const ActorId& target,
                                                 FuncCall call) {
  if (ctx.mode == TxnMode::kAct && ctx.info) {
    ctx.info->RegisterParticipant(target);  // see CallActor
  }
  if (target == id()) {
    return InvokeTxn(ctx, std::move(call)).Start(strand());
  }
  return runtime().Call<TransactionalActor>(
      target,
      [ctx, call = std::move(call)](TransactionalActor& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
}

// ---------------------------------------------------------------------------
// Invocation wrappers (callee side)
// ---------------------------------------------------------------------------

Task<Value> TransactionalActor::InvokeTxn(TxnContext ctx, FuncCall call) {
  DcheckOnStrand("InvokeTxn");
  if (failed() || recovering_) {
    const Status st = Status::TxnAborted(
        AbortReason::kActorFailed, "actor " + id().ToString() + " unavailable");
    if (ctx.mode == TxnMode::kPact && ctx.bid != kNoBid) {
      // A PACT invocation landing on a dead/recovering activation can never
      // complete its access; abort the batch deterministically instead of
      // silently dropping it (the global schedule must not hang on us).
      // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget abort round.
      sctx().abort_controller->RequestAbort(ctx.bid, st);
    }
    throw TxnAbort(st);
  }
  if (ctx.mode != TxnMode::kNt) {
    if (aborting_ ||
        ctx.epoch < sctx().abort_controller->epoch()) {
      throw TxnAbort(Status::TxnAborted(AbortReason::kCascading,
                                        "transaction epoch is stale"));
    }
  }
  auto method = methods_.find(call.method);
  if (method == methods_.end()) {
    throw TxnAbort(
        Status::InvalidArgument("unknown method: " + call.method));
  }
  switch (ctx.mode) {
    case TxnMode::kPact:
      co_return co_await InvokePact(ctx, method->second,
                                    std::move(call.input));
    case TxnMode::kAct:
      co_return co_await InvokeAct(ctx, method->second, std::move(call.input));
    case TxnMode::kNt: {
      co_return co_await method->second(ctx, std::move(call.input));
    }
  }
  co_return Value();  // unreachable
}

Task<Value> TransactionalActor::InvokePact(TxnContext ctx,
                                           const Method& method, Value input) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  Status turn = co_await schedule_.WaitPactTurn(ctx.bid, ctx.tid);
  if (!turn.ok()) throw TxnAbort(turn);

  active_invocations_++;
  Value result;
  std::exception_ptr error;
  try {
    result = co_await method(ctx, std::move(input));
  } catch (...) {
    error = std::current_exception();
  }

  if (error != nullptr) {
    // An exception escaped a PACT invocation: the whole batch (and all
    // speculative successors) must be rolled back (§4.2.4). Snapper detects
    // this at the actor that observed the exception — even if user code
    // upstream catches it — and the access is NOT counted (the batch can
    // never complete).
    Status cause = StatusFromException(error);
    if (!(cause.IsTxnAborted() &&
          cause.abort_reason() == AbortReason::kCascading)) {
      // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget; awaiting
      // the round here would deadlock the quiesce phase (this invocation
      // is still active).
      sctx().abort_controller->RequestAbort(ctx.bid, cause);
    }
    active_invocations_--;
    NotifyQuiesce();
    std::rethrow_exception(error);
  }

  auto outcome = schedule_.CompletePactAccess(ctx.bid, ctx.tid);
  if (outcome.batch_completed) OnSubBatchComplete(ctx.bid);
  active_invocations_--;
  NotifyQuiesce();
  co_return result;
}

Task<Value> TransactionalActor::InvokeAct(TxnContext ctx, const Method& method,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                          Value input) {
  assert(ctx.info != nullptr && "ACT context without SharedTxnInfo");
  if (IsTombstonedAct(ctx.tid)) {
    // The transaction was already aborted here; this invocation arrived
    // late (message order is nondeterministic) and must not re-register.
    throw TxnAbort(
        Status::TxnAborted(AbortReason::kCascading, "ACT already aborted"));
  }
  ctx.info->RegisterParticipant(id());
  if (schedule_.RegisterAct(ctx.tid, ctx.info)) {
    sctx().counters.act_deadlocks_detected.fetch_add(1);
  }

  Status turn = co_await AwaitStatusWithTimeout(
      runtime().timers(), schedule_.WaitActTurn(ctx.tid),
      sctx().config.act_wait_timeout);
  if (turn.IsTimedOut()) {
    sctx().counters.act_wait_timeouts.fetch_add(1);
    throw TxnAbort(Status::TxnAborted(AbortReason::kPactActDeadlock,
                                      "schedule wait timed out"));
  }
  if (!turn.ok()) throw TxnAbort(turn);
  if (IsTombstonedAct(ctx.tid)) {
    throw TxnAbort(
        Status::TxnAborted(AbortReason::kCascading, "ACT already aborted"));
  }

  active_invocations_++;
  act_local_[ctx.tid].active++;
  Value result;
  std::exception_ptr error;
  try {
    result = co_await method(ctx, std::move(input));
  } catch (...) {
    error = std::current_exception();
  }

  if (error == nullptr && !IsTombstonedAct(ctx.tid)) {
    // BeforeSet/AfterSet contribution taken when the invocation finishes
    // (§4.4.3). The actor's committed-ACT watermark folds transitive
    // Tj -> Ti dependencies into the BeforeSet.
    const uint64_t before =
        MaxBid(schedule_.ClosestBatchBefore(ctx.tid), act_bs_watermark_);
    const uint64_t after = schedule_.FirstBatchAfter(ctx.tid);
    ctx.info->SetScheduleObservation(id(), before, after);
  }

  OnActInvocationExit(ctx.tid);
  active_invocations_--;
  NotifyQuiesce();
  if (error != nullptr) std::rethrow_exception(error);
  co_return result;
}

void TransactionalActor::OnActInvocationExit(uint64_t tid) {
  auto it = act_local_.find(tid);
  if (it == act_local_.end()) return;  // already cleaned up (global abort)
  it->second.active--;
  if (it->second.abort_pending && it->second.active <= 0) {
    DoAbortActLocal(tid);
  }
}

// ---------------------------------------------------------------------------
// Client entry
// ---------------------------------------------------------------------------

Task<TxnResult> TransactionalActor::StartTxn(TxnMode mode, FuncCall call,
                                             ActorAccessInfo info) {
  switch (mode) {
    case TxnMode::kPact:
      co_return co_await StartPact(std::move(call), std::move(info));
    case TxnMode::kAct:
      co_return co_await StartAct(std::move(call));
    case TxnMode::kNt:
      co_return co_await StartNt(std::move(call));
  }
  co_return TxnResult{Status::Internal("bad mode"), Value()};
}

Task<TxnResult> TransactionalActor::StartPact(FuncCall call,
                                              ActorAccessInfo info) {
  TxnResult out;
  const TimePoint t0 = Now();
  TxnContext ctx;
  try {
    auto coordinator = sctx().CoordinatorFor(id());
    // NOTE: the Call is hoisted out of the co_await full-expression — GCC 12
    // miscompiles the cleanup of non-trivial temporaries (here: the
    // move-capturing lambda) held across a suspension, destroying them twice.
    auto ctx_future = runtime().Call<CoordinatorActor>(
        coordinator,
        [root = id(), info = std::move(info)](CoordinatorActor& c) mutable {
          return c.NewPact(root, std::move(info));
        });
    ctx = co_await ctx_future;
  } catch (...) {
    out.status = StatusFromException(std::current_exception());
    co_return out;
  }
  const TimePoint t1 = Now();
  out.timings.start_us = MicrosBetween(t0, t1);

  Value result;
  try {
    result = co_await InvokeTxn(ctx, std::move(call));
  } catch (...) {
    // The failing invocation already triggered the global abort; the client
    // sees the root cause.
    out.status = StatusFromException(std::current_exception());
    co_return out;
  }
  const TimePoint t2 = Now();
  out.timings.exec_us = MicrosBetween(t1, t2);

  // The PACT executed; its result is released when the batch commits
  // (paper §4.2.4: actors return results to clients on BatchCommit).
  Status outcome = co_await WaitBatchOutcome(ctx.bid);
  out.timings.commit_us = MicrosBetween(t2, Now());
  if (!outcome.ok()) {
    out.status = outcome;
    co_return out;
  }
  out.value = std::move(result);
  co_return out;
}

Future<Status> TransactionalActor::WaitBatchOutcome(uint64_t bid) {
  // The sequencer resolves its waiters at commit and at BeginAbort — the
  // latter covers batches the coordinator abandoned (dead participant,
  // liveness deadline), which this actor never hears about directly.
  return sctx().sequencer.WaitCommitted(bid);
}

Task<TxnResult> TransactionalActor::StartAct(FuncCall call) {
  TxnResult out;
  const TimePoint t0 = Now();
  TxnContext ctx;
  try {
    auto coordinator = sctx().CoordinatorFor(id());
    // Hoisted out of the co_await full-expression (GCC 12 temporary-cleanup
    // bug; see StartPact).
    auto ctx_future = runtime().Call<CoordinatorActor>(
        coordinator,
        [root = id()](CoordinatorActor& c) { return c.NewAct(root); });
    ctx = co_await ctx_future;
  } catch (...) {
    out.status = StatusFromException(std::current_exception());
    co_return out;
  }
  ctx.info = std::make_shared<SharedTxnInfo>();
  const TimePoint t1 = Now();
  out.timings.start_us = MicrosBetween(t0, t1);

  Value result;
  Status failure;
  try {
    result = co_await InvokeTxn(ctx, std::move(call));
  } catch (...) {
    failure = StatusFromException(std::current_exception());
  }
  const TimePoint t2 = Now();
  out.timings.exec_us = MicrosBetween(t1, t2);

  const TxnExeInfo info = ctx.info->Snapshot();
  if (failure.ok()) {
    failure = co_await CommitActAsRoot(ctx.tid, info);
  }
  if (!failure.ok()) {
    co_await AbortActAsRoot(ctx.tid, info);
    out.timings.commit_us = MicrosBetween(t2, Now());
    out.status = failure;
    co_return out;
  }
  out.timings.commit_us = MicrosBetween(t2, Now());
  out.value = std::move(result);
  co_return out;
}

Task<TxnResult> TransactionalActor::StartNt(FuncCall call) {
  TxnResult out;
  TxnContext ctx;
  ctx.mode = TxnMode::kNt;
  ctx.root_actor = id();
  const TimePoint t0 = Now();
  try {
    out.value = co_await InvokeTxn(ctx, std::move(call));
  } catch (...) {
    out.status = StatusFromException(std::current_exception());
  }
  out.timings.exec_us = MicrosBetween(t0, Now());
  co_return out;
}

// ---------------------------------------------------------------------------
// ACT commit/abort (root = 2PC coordinator, §4.3.3)
// ---------------------------------------------------------------------------

Task<Status> TransactionalActor::CommitActAsRoot(uint64_t tid,
                                                 const TxnExeInfo& info) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  auto& ctx = sctx();
  const uint64_t max_bs = info.MaxBeforeSet();

  // A doomed ACT (SharedTxnInfo) would fail the check below; abort it under
  // the rule's reason.
  if (info.doomed) {
    co_return Status::TxnAborted(AbortReason::kPactActDeadlock,
                                 "PACT-ACT deadlock");
  }

  // Serializability check (§4.4.3, Theorem 4.2 condition 3).
  if (info.AfterSetIncomplete()) {
    // Optimization: pass if the BeforeSet is empty or fully committed —
    // every batch in the (unknown) AfterSet has not started executing, so
    // its bid exceeds max(BS).
    const bool bs_committed =
        max_bs == kNoBid || ctx.sequencer.IsCommitted(max_bs);
    if (!bs_committed) {
      co_return Status::TxnAborted(AbortReason::kIncompleteAfterSet,
                                   "AfterSet incomplete, BeforeSet pending");
    }
  } else {
    const uint64_t min_as = info.MinAfterSet();
    if (max_bs != kNoBid && max_bs >= min_as) {
      co_return Status::TxnAborted(AbortReason::kSerializabilityCheck,
                                   "max(BS) >= min(AS)");
    }
  }

  // Commit-wait (§4.4.4): all BeforeSet batches must commit first.
  if (max_bs != kNoBid && !ctx.sequencer.IsCommitted(max_bs)) {
    Status s = co_await AwaitStatusWithTimeout(
        runtime().timers(), ctx.sequencer.WaitCommitted(max_bs),
        ctx.config.act_wait_timeout);
    if (s.IsTimedOut()) {
      ctx.counters.act_wait_timeouts.fetch_add(1);
      co_return Status::TxnAborted(AbortReason::kPactActDeadlock,
                                   "commit-wait timed out");
    }
    if (!s.ok()) co_return s;
  }

  // --- 2PC, this actor acting as coordinator (Fig. 3b / Fig. 7) ---
  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActCoordPrepare;
    record.id = tid;
    record.actor = id();
    for (const auto& [actor, _] : info.participants) {
      record.participants.push_back(actor);
    }
    Status ls = co_await ctx.log_manager->LoggerFor(id()).Append(record);
    if (!ls.ok()) co_return Status::TxnAborted(AbortReason::kSystemFailure,
                                               "CoordPrepare log failed");
  }

  // Prepare phase. The root is its own participant (no messages, §5.2.3).
  // Fan-out messages are droppable: a vote that never arrives counts as a
  // "no" after act_wait_timeout, so the root always decides in bounded time.
  std::vector<Future<bool>> votes;
  for (const auto& [actor, _] : info.participants) {
    if (actor == id()) continue;
    ctx.counters.act_prepares.fetch_add(1);
    votes.push_back(runtime().Call<TransactionalActor>(
        actor,
        [tid](TransactionalActor& a) { return a.ActPrepare(tid); },
        MsgGuard::kDroppable));
  }
  bool all_yes = co_await PrepareActLocal(tid);
  auto* counters = &ctx.counters;
  for (auto& vote : votes) {
    // Hoisted out of the co_await full-expression (GCC 12, see StartPact).
    auto bounded = AwaitWithFallback<bool>(
        runtime().timers(), vote, ctx.config.act_wait_timeout, false,
        [counters]() { counters->watchdog_act_aborts.fetch_add(1); });
    const bool yes = co_await bounded;
    all_yes = yes && all_yes;
  }
  if (!all_yes) {
    co_return Status::TxnAborted(AbortReason::kCascading,
                                 "participant voted no");
  }

  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActCoordCommit;
    record.id = tid;
    record.actor = id();
    Status ls = co_await ctx.log_manager->LoggerFor(id()).Append(record);
    if (!ls.ok()) co_return Status::TxnAborted(AbortReason::kSystemFailure,
                                               "CoordCommit log failed");
  }

  // The decision is durable; record it so a participant whose ActCommit
  // message is lost can re-resolve its prepared state from here (the
  // prepared-ACT watchdog).
  ctx.RecordActDecision(tid, /*committed=*/true, max_bs);

  // Commit phase: apply locally, then notify participants. max(BS) rides
  // along for their BeforeSet watermarks (§4.4.3). Droppable: a lost commit
  // notification is recovered by the participant's watchdog.
  CommitActLocal(tid, max_bs);
  for (const auto& [actor, _] : info.participants) {
    if (actor == id()) continue;
    ctx.counters.act_commits.fetch_add(1);
    // SNAPPER-ANALYZE-ALLOW(discarded-task): one-way commit notification.
    runtime().Call<TransactionalActor>(
        actor,
        [tid, max_bs](TransactionalActor& a) {
          return a.ActCommit(tid, max_bs);
        },
        MsgGuard::kDroppable);
  }
  co_return Status::OK();
}

Task<void> TransactionalActor::AbortActAsRoot(uint64_t tid,
                                              const TxnExeInfo& info) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
  auto& ctx = sctx();
  // Record the abort before fanning out: a prepared participant whose
  // ActAbort message is lost re-resolves from this table (presumed abort
  // anyway); an unprepared one keeps the ACT until the next abort round
  // aborts it locally (AbortUnpreparedActs).
  ctx.RecordActDecision(tid, /*committed=*/false, kNoBid);
  std::vector<Future<void>> acks;
  for (const auto& [actor, _] : info.participants) {
    if (actor == id()) continue;
    ctx.counters.act_aborts.fetch_add(1);
    acks.push_back(runtime().Call<TransactionalActor>(
        actor, [tid](TransactionalActor& a) { return a.ActAbort(tid); },
        MsgGuard::kDroppable));
  }
  AbortActLocal(tid);
  // Presumed abort (§4.3.3): no abort logging; just await the cleanups so
  // locks are free before the client retries. Bounded: a dropped ack must
  // not park the root forever (cleanup failures are non-fatal here).
  for (auto& ack : acks) {
    // Hoisted out of the co_await full-expression (GCC 12, see StartPact).
    auto bounded = AwaitWithFallback<void>(
        runtime().timers(), ack, ctx.config.act_wait_timeout, Unit{});
    co_await bounded;
  }
  co_return;
}

// ---------------------------------------------------------------------------
// ACT participant side
// ---------------------------------------------------------------------------

Task<bool> TransactionalActor::ActPrepare(uint64_t tid) {
  co_return co_await PrepareActLocal(tid);
}

Task<bool> TransactionalActor::PrepareActLocal(uint64_t tid) {
  DcheckOnStrand("PrepareActLocal");
  if (aborting_ || failed() || recovering_) co_return false;
  auto local = act_local_.find(tid);
  if (local == act_local_.end() && !lock_.IsHeldBy(tid)) {
    // This actor no longer knows the transaction (cleared by a global
    // abort): refuse.
    co_return false;
  }
  prepared_acts_.insert(tid);
  auto& ctx = sctx();
  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActPrepare;
    record.id = tid;
    record.actor = id();
    const bool wrote =
        local != act_local_.end() && !local->second.before_image.empty();
    if (wrote) {
      // The ACT holds this actor's write lock until it commits, so these
      // bytes stay the image the commit installs.
      local->second.prepared_image = state_.Encode();
      record.state = local->second.prepared_image;
    }
    Status ls =
        co_await ctx.log_manager->LoggerFor(id()).Append(std::move(record));
    if (!ls.ok()) {
      prepared_acts_.erase(tid);
      NotifyQuiesce();
      co_return false;
    }
  }
  // Prepared and durable: if the 2PC outcome message never arrives, the
  // watchdog re-resolves from the runtime's decision table.
  ArmPreparedActWatchdog(tid, 0);
  co_return true;
}

void TransactionalActor::ArmPreparedActWatchdog(uint64_t tid, int attempt) {
  const auto deadline = sctx().config.act_resolution_deadline;
  if (deadline.count() <= 0) return;
  auto self = std::static_pointer_cast<TransactionalActor>(shared_from_this());
  runtime().timers().Schedule(deadline, [self, tid, attempt]() {
    self->strand().Post(
        [self, tid, attempt]() { self->ResolveStuckPreparedAct(tid, attempt); });
  });
}

void TransactionalActor::ResolveStuckPreparedAct(uint64_t tid, int attempt) {
  if (failed()) return;                         // zombie: nothing to resolve
  if (prepared_acts_.count(tid) == 0) return;   // outcome arrived meanwhile
  const auto [decision, final_max_bs] = sctx().LookupActDecision(tid);
  switch (decision) {
    case SnapperContext::ActDecision::kCommitted:
      sctx().counters.watchdog_act_resolutions.fetch_add(1);
      CommitActLocal(tid, final_max_bs);
      return;
    case SnapperContext::ActDecision::kAborted:
      sctx().counters.watchdog_act_resolutions.fetch_add(1);
      AbortActLocal(tid);
      return;
    case SnapperContext::ActDecision::kUnknown:
      if (attempt + 1 < kMaxPreparedActChecks) {
        ArmPreparedActWatchdog(tid, attempt + 1);
        return;
      }
      // The root never decided (e.g. it was killed mid-2PC): presumed
      // abort (§4.3.3) — an undecided transaction is an aborted one.
      sctx().counters.watchdog_act_resolutions.fetch_add(1);
      AbortActLocal(tid);
      return;
  }
}

Task<void> TransactionalActor::ActCommit(uint64_t tid, uint64_t final_max_bs) {
  if (act_local_.find(tid) == act_local_.end() &&
      prepared_acts_.count(tid) == 0) {
    // Duplicate delivery (message fault injection) or a commit addressed to
    // a previous activation: must not promote unrelated state.
    co_return;
  }
  CommitActLocal(tid, final_max_bs);
  co_return;
}

void TransactionalActor::CommitActLocal(uint64_t tid, uint64_t final_max_bs) {
  DcheckOnStrand("CommitActLocal");
  const uint64_t seq = schedule_.ActSeq(tid);
  if (seq == LocalSchedule::kNoSeq || seq >= last_committed_seq_) {
    auto local = act_local_.find(tid);
    if (local != act_local_.end() && !local->second.prepared_image.empty()) {
      committed_image_ = std::move(local->second.prepared_image);
    } else {
      committed_image_ = state_.Encode();
    }
    if (seq != LocalSchedule::kNoSeq) last_committed_seq_ = seq;
  }
  act_bs_watermark_ = MaxBid(act_bs_watermark_, final_max_bs);

  auto& ctx = sctx();
  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kActCommit;
    record.id = tid;
    record.actor = id();
    // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget; the commit
    // decision is already durable at the 2PC coordinator (CoordCommit), and
    // this record only speeds up recovery.
    ctx.log_manager->LoggerFor(id()).Append(std::move(record));
  }

  lock_.Release(tid);
  schedule_.FinishAct(tid);
  prepared_acts_.erase(tid);
  act_local_.erase(tid);
  NotifyQuiesce();
  // See ReceiveBatchCommit: re-evaluate the checkpoint threshold now that
  // the prepared snapshot is decided.
  if (auto* cp = ctx.log_manager->checkpoints()) cp->Poke(id());
}

Task<void> TransactionalActor::ActAbort(uint64_t tid) {
  AbortActLocal(tid);
  co_return;
}

void TransactionalActor::TombstoneAct(uint64_t tid) {
  if (aborted_acts_.insert(tid).second) {
    aborted_acts_fifo_.push_back(tid);
    if (aborted_acts_fifo_.size() > kMaxActTombstones) {
      aborted_acts_.erase(aborted_acts_fifo_.front());
      aborted_acts_fifo_.pop_front();
    }
  }
}

void TransactionalActor::AbortActLocal(uint64_t tid) {
  DcheckOnStrand("AbortActLocal");
  TombstoneAct(tid);  // blocks late re-registration and new state access
  auto local = act_local_.find(tid);
  if (local != act_local_.end() && local->second.active > 0) {
    // A method of this transaction is still running here (the root's abort
    // raced the fan-out): roll back only after it unwinds, or it would
    // scribble on restored state through its GetState pointer.
    local->second.abort_pending = true;
    return;
  }
  DoAbortActLocal(tid);
}

void TransactionalActor::DoAbortActLocal(uint64_t tid) {
  auto local = act_local_.find(tid);
  if (local != act_local_.end()) {
    if (!local->second.before_image.empty()) {
      state_ = DecodeImage(local->second.before_image, id());
    }
    act_local_.erase(local);
  }
  lock_.Release(tid);
  schedule_.FinishAct(tid);
  prepared_acts_.erase(tid);
  NotifyQuiesce();
}

// ---------------------------------------------------------------------------
// PACT batch protocol (actor side)
// ---------------------------------------------------------------------------

Task<void> TransactionalActor::ReceiveBatch(BatchMsg msg) {
  DcheckOnStrand("ReceiveBatch");
  if (failed() || recovering_) {
    // The sub-batch can never complete here. Request a deterministic abort
    // of the batch instead of dropping the message: dropping would leave
    // the coordinator waiting for an ack that never comes (a hang when the
    // batch deadline is disabled).
    // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget abort round.
    sctx().abort_controller->RequestAbort(
        msg.bid,
        Status::TxnAborted(AbortReason::kActorFailed,
                           "sub-batch sent to failed actor " +
                               id().ToString()));
    co_return;
  }
  // Drop dead batches: marked aborted or committed already, formed just
  // before an abort round started (stale epoch), or duplicated by message
  // fault injection (AddBatch is not idempotent).
  if (sctx().sequencer.IsAborted(msg.bid) ||
      sctx().sequencer.IsCommitted(msg.bid) ||
      msg.epoch < sctx().abort_controller->epoch() ||
      batch_owner_.count(msg.bid) > 0) {
    co_return;
  }
  batch_owner_[msg.bid] = msg.coordinator;
  if (const size_t doomed = schedule_.AddBatch(std::move(msg))) {
    sctx().counters.act_deadlocks_detected.fetch_add(doomed);
  }
  co_return;
}

void TransactionalActor::OnSubBatchComplete(uint64_t bid) {
  PactSnapshot snapshot;
  snapshot.seq = schedule_.BatchSeq(bid);
  if (schedule_.BatchWrote(bid)) snapshot.image = state_.Encode();
  pact_snapshots_[bid] = std::move(snapshot);
  LogAndAckSubBatch(bid).Start(strand());
}

Task<void> TransactionalActor::LogAndAckSubBatch(uint64_t bid) {
  if (failed()) co_return;  // a zombie must not ack completions
  auto& ctx = sctx();
  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kBatchComplete;
    record.id = bid;
    record.actor = id();
    auto it = pact_snapshots_.find(bid);
    if (it != pact_snapshots_.end()) record.state = it->second.image;
    Status ls =
        co_await ctx.log_manager->LoggerFor(id()).Append(std::move(record));
    if (!ls.ok()) {
      // Never ack an unlogged completion (§4.2.4) — but never leave the
      // batch dangling either: the coordinator is waiting for this ack, so
      // without it the batch (and every successor chained behind it) would
      // hang forever. Fail the batch through a global abort round; the
      // round resolves the pending client futures with the abort status.
      // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget abort round.
      ctx.abort_controller->RequestAbort(bid, ls);
      co_return;
    }
  }
  if (failed()) co_return;  // killed while the append was in flight
  auto owner = batch_owner_.find(bid);
  if (owner == batch_owner_.end()) co_return;  // aborted meanwhile
  ctx.counters.batch_completes.fetch_add(1);
  // SNAPPER-ANALYZE-ALLOW(discarded-task): one-way ack. Droppable: a lost
  // ack is recovered by the coordinator's batch deadline (deterministic
  // BatchAbort), never by blocking the chain.
  runtime().Call<CoordinatorActor>(
      ctx.CoordinatorId(owner->second),
      [bid, self = id()](CoordinatorActor& c) {
        return c.AckBatchComplete(bid, self);
      },
      MsgGuard::kDroppable);
  co_return;
}

Task<void> TransactionalActor::ReceiveBatchCommit(uint64_t bid) {
  DcheckOnStrand("ReceiveBatchCommit");
  auto it = pact_snapshots_.find(bid);
  if (it != pact_snapshots_.end()) {
    if (it->second.seq >= last_committed_seq_) {
      if (!it->second.image.empty()) {
        committed_image_ = std::move(it->second.image);
      }
      last_committed_seq_ = it->second.seq;
    }
    pact_snapshots_.erase(it);
  }
  schedule_.MarkBatchCommitted(bid);
  batch_owner_.erase(bid);
  // The commit promoted durable snapshot bytes into committed_image_ without
  // a new append; if the actor now goes idle above the lag threshold, this
  // is the last chance to ask for a checkpoint until its next write.
  if (auto* cp = sctx().log_manager->checkpoints()) cp->Poke(id());
  co_return;
}

// ---------------------------------------------------------------------------
// Asynchronous checkpointing (wal/checkpoint.h)
// ---------------------------------------------------------------------------

bool TransactionalActor::QuiescentForCheckpoint() const {
  // Quiescent turn boundary: nothing undecided lives on this actor —
  // committed_image_ is the full image of every decided transaction, and
  // every state record this actor ever logged belongs to a decided
  // transaction, so a checkpoint of committed_image_ supersedes all of
  // them. (An in-flight sub-batch or prepared ACT would make the
  // checkpoint's coverage ambiguous, so we simply defer.)
  return !failed() && !recovering_ && !aborting_ &&
         active_invocations_ == 0 && pact_snapshots_.empty() &&
         act_local_.empty() && prepared_acts_.empty() && lock_.IsFree();
}

LogRecord TransactionalActor::MakeCheckpointRecord() const {
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  record.actor = id();
  record.state = committed_image_;
  return record;
}

Task<bool> TransactionalActor::MaybeCheckpoint() {
  DcheckOnStrand("MaybeCheckpoint");
  auto& ctx = sctx();
  auto* cp = ctx.log_manager->checkpoints();
  if (cp == nullptr || !ctx.log_manager->enabled()) co_return false;
  if (!QuiescentForCheckpoint()) {
    cp->OnCheckpointSkipped(id());
    co_return false;
  }
  // The append is posted from this turn, so it lands in the actor's log
  // stream before any state record of a later turn — later writes correctly
  // stay in the replay suffix. Other turns run while the flush is in
  // flight; nothing stops the world.
  const Status s = co_await ctx.log_manager->LoggerFor(id()).Append(
      MakeCheckpointRecord());
  if (!s.ok()) cp->OnCheckpointSkipped(id());
  co_return s.ok();
}

Task<bool> TransactionalActor::CheckpointAndDeactivate() {
  DcheckOnStrand("CheckpointAndDeactivate");
  auto& ctx = sctx();
  if (!ctx.log_manager->enabled() || !QuiescentForCheckpoint()) {
    co_return false;
  }
  const Status s = co_await ctx.log_manager->LoggerFor(id()).Append(
      MakeCheckpointRecord());
  // Work may have arrived while the append was in flight; deactivating now
  // would abandon it. Stay resident unless still fully quiescent.
  if (!s.ok() || !QuiescentForCheckpoint()) co_return false;
  ctx.StageRecoveredState(id(), committed_image_);
  ctx.counters.cold_deactivations.fetch_add(1);
  // Deactivate without a kill mark: the next call activates a fresh
  // instance whose OnActivate picks up the staged state directly — no
  // recovering_ window, no WAL replay. Self-eviction is safe: the runtime
  // pins this zombie until Shutdown and posts OnKill as a separate turn.
  // SNAPPER-ANALYZE-ALLOW(discarded-task): ActorRuntime::KillActor returns
  // bool.
  runtime().KillActor(id());
  co_return true;
}

// ---------------------------------------------------------------------------
// Global cascading abort (actor-local phase, §4.2.4)
// ---------------------------------------------------------------------------

bool TransactionalActor::QuiescedForAbort() const {
  // A killed activation is quiesced by definition: its in-flight work can
  // never unwind (the frames were abandoned), and the round must not wait.
  if (failed()) return true;
  return active_invocations_ == 0 && prepared_acts_.empty() && lock_.IsFree();
}

void TransactionalActor::AbortUnpreparedActs() {
  std::set<uint64_t> tids;
  for (const auto& [tid, local] : act_local_) tids.insert(tid);
  for (uint64_t tid : lock_.holder_tids()) tids.insert(tid);
  for (uint64_t tid : tids) {
    if (prepared_acts_.count(tid) > 0) continue;
    TombstoneAct(tid);
    DoAbortActLocal(tid);
  }
}

void TransactionalActor::NotifyQuiesce() {
  if (quiesce_waiters_.empty()) return;
  auto waiters = std::move(quiesce_waiters_);
  quiesce_waiters_.clear();
  for (auto& p : waiters) p.TrySet(Unit{});
}

Task<void> TransactionalActor::AbortUncommitted(Status status) {
  DcheckOnStrand("AbortUncommitted");
  aborting_ = true;
  auto& ctx = sctx();
  auto* sequencer = &ctx.sequencer;

  auto dropped = schedule_.AbortUncommitted(
      status, [sequencer](uint64_t bid) { return sequencer->IsCommitted(bid); });
  lock_.FailAllWaiters(status);

  // Quiesce: wait for in-flight invocations to unwind and prepared ACTs to
  // resolve (their 2PC outcomes arrive as later turns on this strand, or
  // from the prepared-ACT watchdog). Once nothing runs here, an ACT that is
  // not prepared here dies locally: the round dooms it anyway (a later
  // ActPrepare refuses, see PrepareActLocal), and its ActAbort is
  // droppable, so the round must not wait for that message.
  while (true) {
    if (active_invocations_ == 0) AbortUnpreparedActs();
    if (QuiescedForAbort()) break;
    Promise<Unit> p;
    auto f = p.GetFuture();
    quiesce_waiters_.push_back(std::move(p));
    co_await f;
  }

  // Promote committed-but-locally-unapplied snapshots (their BatchCommit
  // message may still be in flight — or dropped by fault injection, so
  // self-heal: apply the commit locally too; MarkBatchCommitted is
  // idempotent and a late ReceiveBatchCommit then no-ops).
  for (auto it = pact_snapshots_.begin(); it != pact_snapshots_.end();) {
    if (sequencer->IsCommitted(it->first)) {
      if (it->second.seq >= last_committed_seq_) {
        if (!it->second.image.empty()) {
          committed_image_ = std::move(it->second.image);
        }
        last_committed_seq_ = it->second.seq;
      }
      schedule_.MarkBatchCommitted(it->first);
      batch_owner_.erase(it->first);
      it = pact_snapshots_.erase(it);
    } else {
      it = pact_snapshots_.erase(it);
    }
  }
  for (uint64_t bid : dropped) batch_owner_.erase(bid);

  // A killed activation skips the quiesce; its ACT bookkeeping is dead.
  act_local_.clear();

  state_ = DecodeImage(committed_image_, id());
  aborting_ = false;
  co_return;
}

}  // namespace snapper
