#include "snapper/local_schedule.h"

#include <gtest/gtest.h>

namespace snapper {
namespace {

BatchMsg Batch(uint64_t bid, uint64_t prev,
               std::vector<SubBatchEntry> entries) {
  BatchMsg msg;
  msg.bid = bid;
  msg.prev_bid = prev;
  msg.entries = std::move(entries);
  return msg;
}

TEST(LocalScheduleTest, FirstBatchGatesInTidOrder) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}, {2, 1}}));
  auto g2 = sched.WaitPactTurn(1, 2);
  auto g1 = sched.WaitPactTurn(1, 1);
  EXPECT_TRUE(g1.ready());
  EXPECT_TRUE(g1.Peek().ok());
  EXPECT_FALSE(g2.ready());
  auto out = sched.CompletePactAccess(1, 1);
  EXPECT_TRUE(out.txn_completed);
  EXPECT_FALSE(out.batch_completed);
  EXPECT_TRUE(g2.ready());
  out = sched.CompletePactAccess(1, 2);
  EXPECT_TRUE(out.batch_completed);
}

TEST(LocalScheduleTest, MultiAccessPactNeedsAllAccesses) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 3}, {2, 1}}));
  auto a1 = sched.WaitPactTurn(1, 1);
  auto a2 = sched.WaitPactTurn(1, 1);
  auto a3 = sched.WaitPactTurn(1, 1);
  auto next = sched.WaitPactTurn(1, 2);
  EXPECT_TRUE(a1.ready() && a2.ready() && a3.ready());
  EXPECT_FALSE(next.ready());
  sched.CompletePactAccess(1, 1);
  sched.CompletePactAccess(1, 1);
  EXPECT_FALSE(next.ready());
  auto out = sched.CompletePactAccess(1, 1);
  EXPECT_TRUE(out.txn_completed);
  EXPECT_TRUE(next.ready());
}

TEST(LocalScheduleTest, ExcessAccessIsRejected) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  auto a1 = sched.WaitPactTurn(1, 1);
  auto a2 = sched.WaitPactTurn(1, 1);  // over-declared use
  EXPECT_TRUE(a1.Peek().ok());
  ASSERT_TRUE(a2.ready());
  EXPECT_EQ(a2.Peek().code(), StatusCode::kInvalidArgument);
}

TEST(LocalScheduleTest, UndeclaredTidIsRejected) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  auto g = sched.WaitPactTurn(1, 99);
  ASSERT_TRUE(g.ready());
  EXPECT_EQ(g.Peek().code(), StatusCode::kInvalidArgument);
}

TEST(LocalScheduleTest, InvocationBeforeBatchParksUntilArrival) {
  LocalSchedule sched;
  auto g = sched.WaitPactTurn(1, 1);  // batch not yet here
  EXPECT_FALSE(g.ready());
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  EXPECT_TRUE(g.ready());
  EXPECT_TRUE(g.Peek().ok());
}

TEST(LocalScheduleTest, OutOfOrderBatchesParkUntilConnectable) {
  LocalSchedule sched;
  sched.AddBatch(Batch(8, /*prev=*/2, {{8, 1}}));  // B8 before B2: vacancy
  EXPECT_EQ(sched.num_parked_batches(), 1u);
  EXPECT_EQ(sched.num_nodes(), 0u);
  auto g8 = sched.WaitPactTurn(8, 8);
  EXPECT_FALSE(g8.ready());
  sched.AddBatch(Batch(2, kNoBid, {{2, 1}}));
  EXPECT_EQ(sched.num_parked_batches(), 0u);
  EXPECT_EQ(sched.num_nodes(), 2u);
  auto g2 = sched.WaitPactTurn(2, 2);
  EXPECT_TRUE(g2.ready());
  EXPECT_FALSE(g8.ready());  // B2 must complete first
  sched.CompletePactAccess(2, 2);
  EXPECT_TRUE(g8.ready());  // speculative pipelining: B2 completed, not committed
}

TEST(LocalScheduleTest, ChainOfThreeConnectsTransitively) {
  LocalSchedule sched;
  sched.AddBatch(Batch(9, 5, {{9, 1}}));
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  EXPECT_EQ(sched.num_parked_batches(), 2u);
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  EXPECT_EQ(sched.num_nodes(), 3u);
  EXPECT_EQ(sched.tail_bid(), 9u);
}

TEST(LocalScheduleTest, ActWaitsForPreviousBatchCompletion) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  auto act = sched.WaitActTurn(100);
  EXPECT_FALSE(act.ready());  // rule (1): previous batch must complete
  sched.WaitPactTurn(1, 1);
  sched.CompletePactAccess(1, 1);
  EXPECT_TRUE(act.ready());
  EXPECT_TRUE(act.Peek().ok());
}

TEST(LocalScheduleTest, ActOnEmptyScheduleRunsImmediately) {
  LocalSchedule sched;
  auto act = sched.WaitActTurn(100);
  EXPECT_TRUE(act.ready());
}

TEST(LocalScheduleTest, BatchWaitsForPreviousActsToFinish) {
  LocalSchedule sched;
  sched.RegisterAct(100);
  auto act = sched.WaitActTurn(100);
  EXPECT_TRUE(act.ready());
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  auto g = sched.WaitPactTurn(1, 1);
  EXPECT_FALSE(g.ready());  // rule (2): previous ACT must commit/abort
  sched.FinishAct(100);
  EXPECT_TRUE(g.ready());
}

TEST(LocalScheduleTest, ConcurrentActsShareOneSet) {
  LocalSchedule sched;
  sched.RegisterAct(100);
  sched.RegisterAct(200);
  auto a1 = sched.WaitActTurn(100);
  auto a2 = sched.WaitActTurn(200);
  EXPECT_TRUE(a1.ready());
  EXPECT_TRUE(a2.ready());
  EXPECT_EQ(sched.num_nodes(), 1u);  // both in the tail ACT set (Fig. 8)
}

TEST(LocalScheduleTest, ActAfterBatchFormsNewSet) {
  LocalSchedule sched;
  sched.RegisterAct(100);
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.RegisterAct(200);
  EXPECT_EQ(sched.num_nodes(), 3u);  // {T100} B1 {T200}
  // T200 must wait for B1's completion; T100 runs immediately.
  EXPECT_TRUE(sched.WaitActTurn(100).ready());
  EXPECT_FALSE(sched.WaitActTurn(200).ready());
}

TEST(LocalScheduleTest, BeforeAndAfterSetContributions) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.RegisterAct(100);
  EXPECT_EQ(sched.ClosestBatchBefore(100), 1u);
  EXPECT_EQ(sched.FirstBatchAfter(100), kNoBid);  // incomplete AfterSet
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  EXPECT_EQ(sched.FirstBatchAfter(100), 5u);
  // An ACT arriving now slots between B5 and the tail.
  sched.RegisterAct(200);
  EXPECT_EQ(sched.ClosestBatchBefore(200), 5u);
  EXPECT_EQ(sched.FirstBatchAfter(200), kNoBid);
}

TEST(LocalScheduleTest, BeforeSetEmptyWhenActFirst) {
  LocalSchedule sched;
  sched.RegisterAct(100);
  EXPECT_EQ(sched.ClosestBatchBefore(100), kNoBid);
}

TEST(LocalScheduleTest, CommitPopsHeadInOrder) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  sched.WaitPactTurn(1, 1);
  sched.CompletePactAccess(1, 1);
  sched.WaitPactTurn(5, 5);
  sched.CompletePactAccess(5, 5);
  EXPECT_EQ(sched.num_nodes(), 2u);
  // Out-of-order commit arrival: B5 first. Node stays until B1 commits.
  sched.MarkBatchCommitted(5);
  EXPECT_EQ(sched.num_nodes(), 2u);
  sched.MarkBatchCommitted(1);
  EXPECT_EQ(sched.num_nodes(), 0u);
}

TEST(LocalScheduleTest, SeqIsMonotonePerNode) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.RegisterAct(100);
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  EXPECT_LT(sched.BatchSeq(1), sched.ActSeq(100));
  EXPECT_LT(sched.ActSeq(100), sched.BatchSeq(5));
  EXPECT_EQ(sched.BatchSeq(42), LocalSchedule::kNoSeq);
}

TEST(LocalScheduleTest, WroteFlag) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  EXPECT_FALSE(sched.BatchWrote(1));
  sched.SetBatchWrote(1);
  EXPECT_TRUE(sched.BatchWrote(1));
}

TEST(LocalScheduleTest, AbortDropsUncommittedAndFailsGates) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  sched.AddBatch(Batch(9, 5, {{9, 1}}));
  sched.WaitPactTurn(1, 1);
  sched.CompletePactAccess(1, 1);
  sched.MarkBatchCommitted(1);  // B1 committed and popped
  auto g5 = sched.WaitPactTurn(5, 5);
  sched.CompletePactAccess(5, 5);
  auto g9 = sched.WaitPactTurn(9, 9);
  EXPECT_TRUE(g9.ready());  // speculative
  auto g9b = sched.WaitPactTurn(9, 9);  // second (excess) waiter parked/failed

  Status abort = Status::TxnAborted(AbortReason::kCascading, "abort");
  auto dropped = sched.AbortUncommitted(
      abort, [](uint64_t bid) { return bid == 1; });
  EXPECT_EQ(dropped, (std::vector<uint64_t>{5, 9}));
  EXPECT_TRUE(sched.Empty());
  EXPECT_EQ(sched.tail_bid(), kNoBid);
}

TEST(LocalScheduleTest, AbortSparesCommittedBatches) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  sched.AddBatch(Batch(5, 1, {{5, 1}}));
  sched.WaitPactTurn(1, 1);
  sched.CompletePactAccess(1, 1);
  // B1 is globally committed but its local commit message lags.
  Status abort = Status::TxnAborted(AbortReason::kCascading, "abort");
  auto dropped =
      sched.AbortUncommitted(abort, [](uint64_t bid) { return bid == 1; });
  EXPECT_EQ(dropped, (std::vector<uint64_t>{5}));
  // B1 is spared (not in `dropped`): marked committed and popped right away;
  // the late commit message is then a no-op.
  EXPECT_TRUE(sched.Empty());
  sched.MarkBatchCommitted(1);
  EXPECT_TRUE(sched.Empty());
}

TEST(LocalScheduleTest, AbortClearsParkedBatchesAndPreArrivalWaiters) {
  LocalSchedule sched;
  sched.AddBatch(Batch(8, 2, {{8, 1}}));  // parked
  auto g = sched.WaitPactTurn(12, 12);    // pre-arrival
  Status abort = Status::TxnAborted(AbortReason::kCascading, "abort");
  auto dropped = sched.AbortUncommitted(abort, [](uint64_t) { return false; });
  EXPECT_EQ(dropped, (std::vector<uint64_t>{8}));
  ASSERT_TRUE(g.ready());
  EXPECT_EQ(g.Peek().abort_reason(), AbortReason::kCascading);
  EXPECT_TRUE(sched.Empty());
}

TEST(LocalScheduleTest, FreshChainStartsAfterAbort) {
  LocalSchedule sched;
  sched.AddBatch(Batch(1, kNoBid, {{1, 1}}));
  Status abort = Status::TxnAborted(AbortReason::kCascading, "abort");
  sched.AbortUncommitted(abort, [](uint64_t) { return false; });
  // Post-abort, the next batch arrives with prev_bid == kNoBid.
  sched.AddBatch(Batch(20, kNoBid, {{20, 1}}));
  EXPECT_EQ(sched.num_nodes(), 1u);
  EXPECT_TRUE(sched.WaitPactTurn(20, 20).ready());
}

TEST(LocalScheduleTest, FullHybridInterleaving) {
  // Fig. 8's A3: B2, {T0, T5}, B6.
  LocalSchedule sched;
  sched.AddBatch(Batch(2, kNoBid, {{2, 1}, {3, 1}}));
  sched.RegisterAct(100);
  sched.RegisterAct(105);
  sched.AddBatch(Batch(6, 2, {{6, 1}}));

  auto t100 = sched.WaitActTurn(100);
  auto t105 = sched.WaitActTurn(105);
  auto g6 = sched.WaitPactTurn(6, 6);
  EXPECT_FALSE(t100.ready());
  EXPECT_FALSE(t105.ready());
  EXPECT_FALSE(g6.ready());

  sched.WaitPactTurn(2, 2);
  sched.CompletePactAccess(2, 2);
  sched.WaitPactTurn(2, 3);
  sched.CompletePactAccess(2, 3);  // B2 complete
  // Both ACTs unblocked together; B6 still gated by uncommitted ACTs.
  EXPECT_TRUE(t100.ready());
  EXPECT_TRUE(t105.ready());
  EXPECT_FALSE(g6.ready());

  sched.FinishAct(100);
  EXPECT_FALSE(g6.ready());
  sched.FinishAct(105);
  EXPECT_TRUE(g6.ready());
}

// --- Hybrid deadlock rule (Fig. 9) ------------------------------------------
// Two schedules stand for two actors; one SharedTxnInfo is the ACT's.

bool Doomed(const Future<Status>& wait) {
  return wait.ready() && wait.Peek().IsTxnAborted() &&
         wait.Peek().abort_reason() == AbortReason::kPactActDeadlock;
}

class HybridDeadlockRuleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint64_t kAfterBid = 5;  // b': behind the ACT on A
  uint64_t before_bid() const { return GetParam(); }  // b: ahead on B

  LocalSchedule a_, b_;
  std::shared_ptr<SharedTxnInfo> info_ = std::make_shared<SharedTxnInfo>();
};

TEST_P(HybridDeadlockRuleTest, AfterThenBefore) {
  a_.RegisterAct(100, info_);
  EXPECT_TRUE(a_.WaitActTurn(100).Peek().ok());
  EXPECT_EQ(a_.AddBatch(Batch(kAfterBid, kNoBid, {{kAfterBid, 1}})), 0u);
  b_.AddBatch(Batch(before_bid(), kNoBid, {{before_bid(), 1}}));
  EXPECT_TRUE(b_.RegisterAct(100, info_));
  EXPECT_TRUE(Doomed(b_.WaitActTurn(100)));  // parked after the doom
  EXPECT_TRUE(info_->Snapshot().doomed);
}

TEST_P(HybridDeadlockRuleTest, BeforeThenAfter) {
  b_.AddBatch(Batch(before_bid(), kNoBid, {{before_bid(), 1}}));
  EXPECT_FALSE(b_.RegisterAct(100, info_));
  auto gate = b_.WaitActTurn(100);
  EXPECT_FALSE(gate.ready());  // rule (1): the batch has not completed
  a_.RegisterAct(100, info_);
  EXPECT_EQ(a_.AddBatch(Batch(kAfterBid, kNoBid, {{kAfterBid, 1}})), 1u);
  EXPECT_TRUE(Doomed(gate));
}

INSTANTIATE_TEST_SUITE_P(BeforeBids, HybridDeadlockRuleTest,
                         ::testing::Values(5u, 9u),  // b == b', b > b'
                         [](const auto& info) {
                           return info.param == 5u ? std::string("SameBatch")
                                                   : std::string("LaterBatch");
                         });

TEST(HybridDeadlockRule, SilentWhenEveryAfterBidExceedsEveryBeforeBid) {
  LocalSchedule a, b;
  auto info = std::make_shared<SharedTxnInfo>();
  b.AddBatch(Batch(4, kNoBid, {{4, 1}}));
  EXPECT_FALSE(b.RegisterAct(100, info));
  auto gate = b.WaitActTurn(100);
  a.RegisterAct(100, info);
  EXPECT_EQ(a.AddBatch(Batch(5, kNoBid, {{5, 1}})), 0u);
  EXPECT_FALSE(gate.ready());
  b.WaitPactTurn(4, 4);
  b.CompletePactAccess(4, 4);  // B4 completes: rule (1) opens the gate
  ASSERT_TRUE(gate.ready());
  EXPECT_TRUE(gate.Peek().ok());
  EXPECT_FALSE(info->Snapshot().doomed);
}

TEST(HybridDeadlockRule, SilentForFinishedMember) {
  LocalSchedule a, b;
  auto done = std::make_shared<SharedTxnInfo>();
  auto live = std::make_shared<SharedTxnInfo>();
  a.RegisterAct(100, done);
  a.RegisterAct(200, live);
  a.FinishAct(100);  // the set stays: T200 is unfinished
  EXPECT_EQ(a.AddBatch(Batch(5, kNoBid, {{5, 1}})), 0u);
  b.AddBatch(Batch(9, kNoBid, {{9, 1}}));
  EXPECT_FALSE(b.RegisterAct(100, done));  // B5 is in T200's AfterSet only
  EXPECT_TRUE(b.RegisterAct(200, live));
  EXPECT_FALSE(done->Snapshot().doomed);
}

TEST(HybridDeadlockRule, ResolvesEveryPendingWaitExactlyOnce) {
  LocalSchedule a, b, c;
  auto info = std::make_shared<SharedTxnInfo>();
  b.AddBatch(Batch(9, kNoBid, {{9, 1}}));
  c.AddBatch(Batch(7, kNoBid, {{7, 1}}));
  b.RegisterAct(100, info);
  c.RegisterAct(100, info);
  auto gate_b = b.WaitActTurn(100);
  auto gate_c = c.WaitActTurn(100);
  Promise<Status> lock_wait;  // stands for a queued ActorLock request
  info->AddPendingWait(lock_wait.GetFuture());
  EXPECT_FALSE(gate_b.ready() || gate_c.ready());

  a.RegisterAct(100, info);
  EXPECT_EQ(a.AddBatch(Batch(5, kNoBid, {{5, 1}})), 1u);
  EXPECT_TRUE(Doomed(gate_b));
  EXPECT_TRUE(Doomed(gate_c));
  EXPECT_TRUE(Doomed(lock_wait.GetFuture()));
  // Later dooming observations of either kind find the ACT already doomed.
  LocalSchedule d, e;
  e.RegisterAct(100, info);
  EXPECT_EQ(e.AddBatch(Batch(3, kNoBid, {{3, 1}})), 0u);
  d.AddBatch(Batch(11, kNoBid, {{11, 1}}));
  EXPECT_FALSE(d.RegisterAct(100, info));
  EXPECT_TRUE(Doomed(d.WaitActTurn(100)));
  // The schedule's own resolution loses to the doom.
  b.WaitPactTurn(9, 9);
  b.CompletePactAccess(9, 9);
  EXPECT_TRUE(Doomed(gate_b));
}

}  // namespace
}  // namespace snapper
