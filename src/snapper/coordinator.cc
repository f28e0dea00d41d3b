#include "snapper/coordinator.h"

#include <cassert>

#include "snapper/transactional_actor.h"
#include "wal/log_format.h"

namespace snapper {

void CoordinatorActor::EmitBatchMsgTo(const ActorId& actor,
                                      const BatchMsg& msg) {
  // Droppable: a lost (or duplicated) sub-batch is caught by the batch
  // deadline watchdog / the receiver's duplicate guard.
  runtime().Call<TransactionalActor>(
      actor,
      [msg](TransactionalActor& a) { return a.ReceiveBatch(msg); },
      MsgGuard::kDroppable);
}

void CoordinatorActor::EmitBatchCommitTo(const ActorId& actor, uint64_t bid) {
  // Droppable: ReceiveBatchCommit is idempotent, and an actor that never
  // hears it self-heals during the next abort round (sequencer-committed
  // batches are promoted there).
  runtime().Call<TransactionalActor>(
      actor,
      [bid](TransactionalActor& a) { return a.ReceiveBatchCommit(bid); },
      MsgGuard::kDroppable);
}

Task<TxnContext> CoordinatorActor::NewPact(ActorId root, ActorAccessInfo info) {
  if (info.empty()) {
    throw TxnAbort(Status::InvalidArgument("empty actorAccessInfo"));
  }
  for (const auto& [actor, count] : info) {
    if (count < 1) {
      throw TxnAbort(Status::InvalidArgument(
          "actorAccessInfo count must be >= 1 for " + actor.ToString()));
    }
  }
  if (info.find(root) == info.end()) {
    throw TxnAbort(Status::InvalidArgument(
        "actorAccessInfo must include the first actor"));
  }
  PendingPact pending;
  pending.root = root;
  pending.info = std::move(info);
  auto future = pending.ctx_promise.GetFuture();
  pending_pacts_.push_back(std::move(pending));
  co_return co_await future;
}

Task<TxnContext> CoordinatorActor::NewAct(ActorId root) {
  auto& controller = *sctx().abort_controller;
  if (!controller.paused() && act_pool_next_ < act_pool_end_ &&
      act_pool_epoch_ == controller.epoch()) {
    TxnContext ctx;
    ctx.tid = act_pool_next_++;
    ctx.mode = TxnMode::kAct;
    ctx.epoch = act_pool_epoch_;
    ctx.root_actor = root;
    num_acts_assigned_++;
    co_return ctx;
  }
  PendingAct pending;
  pending.root = root;
  auto future = pending.ctx_promise.GetFuture();
  pending_acts_.push_back(std::move(pending));
  co_return co_await future;
}

void CoordinatorActor::ServeActRequests(uint64_t epoch) {
  while (!pending_acts_.empty() && act_pool_next_ < act_pool_end_) {
    PendingAct pending = std::move(pending_acts_.front());
    pending_acts_.pop_front();
    TxnContext ctx;
    ctx.tid = act_pool_next_++;
    ctx.mode = TxnMode::kAct;
    ctx.epoch = epoch;
    ctx.root_actor = pending.root;
    num_acts_assigned_++;
    pending.ctx_promise.Set(std::move(ctx));
  }
}

Task<void> CoordinatorActor::ReceiveToken(Token token) {
  auto& controller = *sctx().abort_controller;
  const uint64_t epoch = controller.epoch();
  if (token.epoch < epoch) {
    // A global abort happened since this token's chain state was built:
    // reset the chain (§4.2.5's fresh-token semantics). tids stay monotone.
    token.epoch = epoch;
    token.last_emitted_bid = kNoBid;
    token.prev_bids.clear();
    prev_bid_removals_.clear();
  }
  // Apply deferred prev_bid removals for batches this coordinator committed.
  for (const auto& [actor, bid] : prev_bid_removals_) {
    auto it = token.prev_bids.find(actor);
    if (it != token.prev_bids.end() && it->second == bid) {
      token.prev_bids.erase(it);
    }
  }
  prev_bid_removals_.clear();

  // Refill the ACT tid pool and serve queued ACT requests (§4.3.1).
  if (act_pool_epoch_ != token.epoch) {
    act_pool_epoch_ = token.epoch;
    act_pool_next_ = act_pool_end_ = 0;
  }
  const uint64_t available = act_pool_end_ - act_pool_next_;
  if (available < kActPoolTarget) {
    const uint64_t refill = kActPoolTarget - available;
    if (act_pool_next_ == act_pool_end_) {
      act_pool_next_ = token.next_tid;
      act_pool_end_ = token.next_tid + refill;
    } else {
      // Pool is a contiguous suffix of previously allocated tids; extend it
      // only if still adjacent, otherwise start a fresh range.
      if (act_pool_end_ == token.next_tid) {
        act_pool_end_ += refill;
      } else {
        act_pool_next_ = token.next_tid;
        act_pool_end_ = token.next_tid + refill;
      }
    }
    token.next_tid += refill;
  }
  if (!controller.paused()) {
    ServeActRequests(token.epoch);
    const auto now = std::chrono::steady_clock::now();
    // The only wall-clock read that steers control flow in the commit path:
    // recorded under an active trace session and forced on replay, so batch
    // boundaries land exactly where the recorded run cut them.
    const bool cut_batch = trace::DecisionBool(
        trace::Site::kBatchCut,
        !pending_pacts_.empty() &&
            now - last_batch_time_ >= sctx().config.min_batch_interval);
    if (cut_batch) {
      last_batch_time_ = now;
      const uint64_t bid = FormBatch(token);
      // Pass the token onward before logging/emitting (§4.2.1: the token is
      // forwarded immediately once the batch is formed).
      PassToken(std::move(token), /*formed_batch=*/true);
      LogAndEmitBatch(bid).Start(strand());
      co_return;
    }
  }
  PassToken(std::move(token), /*formed_batch=*/false);
  co_return;
}

uint64_t CoordinatorActor::FormBatch(Token& token) {
  BatchState batch;
  batch.bid = token.next_tid;  // bid == tid of the first PACT (§4.2.2)
  batch.epoch = token.epoch;

  std::map<ActorId, BatchMsg> subs;
  while (!pending_pacts_.empty()) {
    PendingPact pending = std::move(pending_pacts_.front());
    pending_pacts_.pop_front();
    TxnContext ctx;
    ctx.tid = token.next_tid++;
    ctx.bid = batch.bid;
    ctx.mode = TxnMode::kPact;
    ctx.epoch = token.epoch;
    ctx.root_actor = pending.root;
    num_pacts_assigned_++;
    for (const auto& [actor, count] : pending.info) {
      auto [it, inserted] = subs.try_emplace(actor);
      it->second.entries.push_back(SubBatchEntry{ctx.tid, count});
    }
    batch.ctx_promises.push_back(std::move(pending.ctx_promise));
    batch.ctxs.push_back(std::move(ctx));
  }

  for (auto& [actor, msg] : subs) {
    msg.bid = batch.bid;
    msg.coordinator = index_;
    msg.epoch = token.epoch;
    auto prev = token.prev_bids.find(actor);
    msg.prev_bid = prev == token.prev_bids.end() ? kNoBid : prev->second;
    token.prev_bids[actor] = batch.bid;
    batch.participants.push_back(actor);
    batch.pending_acks.insert(actor);
  }
  batch.sub_batches = std::move(subs);

  batch.prev_bid = token.last_emitted_bid;
  sctx().sequencer.RegisterEmitted(batch.bid, token.last_emitted_bid, index_);
  token.last_emitted_bid = batch.bid;

  const uint64_t bid = batch.bid;
  num_batches_formed_++;
  batches_.emplace(bid, std::move(batch));
  return bid;
}

Task<void> CoordinatorActor::LogAndEmitBatch(uint64_t bid) {
  auto it = batches_.find(bid);
  if (it == batches_.end()) co_return;
  auto& ctx = sctx();

  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kBatchInfo;
    record.id = bid;
    record.participants = it->second.participants;
    record.prev_id = it->second.prev_bid;
    Status s =
        co_await ctx.log_manager->LoggerForCoordinator(index_).Append(record);
    it = batches_.find(bid);  // re-validate after suspension
    if (it == batches_.end()) co_return;
    if (!s.ok()) {
      // Storage failure before the batch became durable: it was never
      // emitted, but it is already registered in the sequencer chain and the
      // token already carries its prev_bid entries, so successors would wait
      // on it forever. Fail this batch's clients and reset the chain through
      // a global abort round (epoch bump).
      const Status aborted = Status::TxnAborted(
          AbortReason::kSystemFailure, "BatchInfo log failed: " + s.ToString());
      for (auto& p : it->second.ctx_promises) {
        p.SetException(std::make_exception_ptr(TxnAbort(aborted)));
      }
      batches_.erase(it);
      // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget abort round.
      ctx.abort_controller->RequestAbort(bid, s);
      co_return;
    }
  }

  // A global abort may have struck between formation and durability: the
  // sequencer already marked this batch aborted; do not emit it.
  if (ctx.sequencer.IsAborted(bid)) {
    Status aborted =
        Status::TxnAborted(AbortReason::kCascading, "batch aborted pre-emit");
    for (auto& p : it->second.ctx_promises) {
      p.SetException(std::make_exception_ptr(TxnAbort(aborted)));
    }
    batches_.erase(it);
    co_return;
  }

  BatchState& batch = it->second;
  for (auto& [actor, msg] : batch.sub_batches) {
    ctx.counters.batch_msgs.fetch_add(1);
    EmitBatchMsgTo(actor, msg);
  }
  batch.sub_batches.clear();
  for (size_t i = 0; i < batch.ctx_promises.size(); ++i) {
    batch.ctx_promises[i].Set(batch.ctxs[i]);
  }
  batch.ctx_promises.clear();
  batch.ctxs.clear();
  ArmBatchDeadline(bid);
  co_return;
}

void CoordinatorActor::ArmBatchDeadline(uint64_t bid) {
  const auto deadline = sctx().config.batch_deadline;
  if (deadline.count() <= 0) return;
  auto self = std::static_pointer_cast<CoordinatorActor>(shared_from_this());
  runtime().timers().Schedule(deadline, [self, bid]() {
    self->strand().Post([self, bid]() {
      auto it = self->batches_.find(bid);
      if (it == self->batches_.end() || it->second.commit_requested) return;
      // Still waiting on BatchComplete acks past the deadline: a
      // participant died or a protocol message was lost. Abort rather than
      // wedge the bid-ordered commit chain.
      self->sctx().counters.watchdog_batch_aborts.fetch_add(1);
      self->AbortStuckBatch(
          bid, Status::TxnAborted(AbortReason::kSystemFailure,
                                  "batch deadline exceeded"));
    });
  });
}

Task<void> CoordinatorActor::OnActorFailed(ActorId actor) {
  std::vector<uint64_t> stuck;
  for (const auto& [bid, batch] : batches_) {
    if (batch.commit_requested) continue;
    for (const ActorId& p : batch.participants) {
      if (p == actor) {
        stuck.push_back(bid);
        break;
      }
    }
  }
  for (uint64_t bid : stuck) {
    AbortStuckBatch(bid,
                    Status::TxnAborted(AbortReason::kActorFailed,
                                       "participant " + actor.ToString() +
                                           " failed"));
  }
  co_return;
}

void CoordinatorActor::AbortStuckBatch(uint64_t bid, const Status& cause) {
  auto it = batches_.find(bid);
  if (it == batches_.end() || it->second.commit_requested) return;
  auto& ctx = sctx();

  if (ctx.log_manager->enabled()) {
    // Durable abort decision: without it, recovery's all-completes rule
    // could commit this batch (every participant's BatchComplete may well
    // be on disk — the *ack* is what got lost). Fire-and-forget: the
    // in-memory abort below decides regardless, and a crash racing this
    // append leaves the batch in-doubt like any other crash race.
    LogRecord record;
    record.type = LogRecordType::kBatchAbort;
    record.id = bid;
    // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget; the in-memory
    // abort below decides regardless (see above).
    ctx.log_manager->LoggerForCoordinator(index_).Append(std::move(record));
  }

  // Clients whose contexts are still pending (the BatchInfo write is still
  // in flight) would otherwise never resolve.
  for (auto& p : it->second.ctx_promises) {
    p.SetException(std::make_exception_ptr(TxnAbort(cause)));
  }
  batches_.erase(it);
  // SNAPPER-ANALYZE-ALLOW(discarded-task): fire-and-forget abort round.
  ctx.abort_controller->RequestAbort(bid, cause);
}

Task<void> CoordinatorActor::AckBatchComplete(uint64_t bid, ActorId from) {
  auto it = batches_.find(bid);
  if (it == batches_.end()) co_return;  // aborted or unknown: ignore
  it->second.pending_acks.erase(from);
  if (!it->second.pending_acks.empty() || it->second.commit_requested) {
    co_return;  // still waiting, or a duplicated final ack
  }
  it->second.commit_requested = true;

  // All participants voted complete: commit in bid order (§4.2.4). The
  // callback may fire on any thread; hop back onto this coordinator's
  // strand.
  auto self = std::static_pointer_cast<CoordinatorActor>(shared_from_this());
  sctx().sequencer.RequestCommit(bid, [self, bid](Status s) {
    self->strand().Post([self, bid, s]() {
      if (s.ok()) {
        self->CommitBatch(bid).StartInline();
      } else {
        self->batches_.erase(bid);  // chain aborted underneath us
      }
    });
  });
  co_return;
}

Task<void> CoordinatorActor::CommitBatch(uint64_t bid) {
  auto it = batches_.find(bid);
  if (it == batches_.end()) co_return;
  auto& ctx = sctx();

  if (ctx.log_manager->enabled()) {
    LogRecord record;
    record.type = LogRecordType::kBatchCommit;
    record.id = bid;
    // Every BatchCommit record goes to one commit logger, in chain order:
    // the successor is released only once this append has been posted, so
    // its record queues behind this one. Per-logger FIFO durability then
    // makes this record's durability imply every predecessor's, and
    // consecutive batches share one group sync instead of taking one each.
    Future<Status> durable =
        ctx.log_manager->LoggerForCoordinator(kCommitLogger).Append(record);
    ctx.sequencer.ReleaseSuccessor(bid);
    // The commit decision is already durable at this point: every
    // participant's BatchComplete record is on disk (that is what made the
    // batch commit-eligible) and the chain committed in order, which is
    // exactly recovery's all-completes rule. The BatchCommit record only
    // accelerates recovery, so a failed write must not abort the batch —
    // aborting here would diverge from what recovery reconstructs. Commit
    // regardless of the append's outcome.
    co_await durable;
    it = batches_.find(bid);
    if (it == batches_.end()) co_return;
  }
  ctx.sequencer.MarkCommitted(bid);

  for (const ActorId& actor : it->second.participants) {
    ctx.counters.batch_commits.fetch_add(1);
    EmitBatchCommitTo(actor, bid);
    prev_bid_removals_.emplace_back(actor, bid);
  }
  batches_.erase(it);
  co_return;
}

void CoordinatorActor::PassToken(Token token, bool formed_batch) {
  auto& ctx = sctx();
  ctx.counters.token_passes.fetch_add(1);
  const ActorId next = ctx.CoordinatorId(index_ + 1);
  auto* runtime = &this->runtime();
  auto send = [runtime, next, token = std::move(token)]() mutable {
    runtime->Call<CoordinatorActor>(
        next, [token = std::move(token)](CoordinatorActor& c) mutable {
          return c.ReceiveToken(std::move(token));
        });
  };
  if (formed_batch || !pending_acts_.empty()) {
    send();
  } else if (!pending_pacts_.empty()) {
    // Batch-interval gated: pace the ring so a full cycle takes roughly one
    // batching epoch.
    const auto hop = ctx.config.min_batch_interval /
                     static_cast<int64_t>(ctx.config.num_coordinators);
    runtime->timers().Schedule(
        std::max(hop, ctx.config.idle_token_delay), std::move(send));
  } else {
    // Idle ring: damp the circulation rate.
    runtime->timers().Schedule(ctx.config.idle_token_delay, std::move(send));
  }
}

}  // namespace snapper
