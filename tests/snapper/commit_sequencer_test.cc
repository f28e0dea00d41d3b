#include "snapper/commit_sequencer.h"

#include <gtest/gtest.h>

namespace snapper {
namespace {

TEST(CommitSequencerTest, ChainHeadCommitsImmediately) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  Status got = Status::Internal("unset");
  seq.RequestCommit(1, [&](Status s) { got = s; });
  EXPECT_TRUE(got.ok());
  seq.MarkCommitted(1);
  EXPECT_TRUE(seq.IsCommitted(1));
  EXPECT_EQ(seq.LastCommittedBid(), 1u);
}

TEST(CommitSequencerTest, CommitWaitsForPredecessor) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(5, 1, /*coordinator=*/0);
  bool b5_released = false;
  seq.RequestCommit(5, [&](Status s) { b5_released = s.ok(); });
  EXPECT_FALSE(b5_released);  // bid order: B1 first (§4.2.4)
  Status s1 = Status::Internal("unset");
  seq.RequestCommit(1, [&](Status s) { s1 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_FALSE(b5_released);  // B1 is committing, not committed
  seq.MarkCommitted(1);
  EXPECT_TRUE(b5_released);
  seq.MarkCommitted(5);
  EXPECT_TRUE(seq.IsCommitted(5));
}

// The pipelined chain: queuing B1's BatchCommit record (ReleaseSuccessor)
// releases B5 — not B1's own release to commit, and not B1's durability.
TEST(CommitSequencerTest, SuccessorReleasedWhenPredecessorQueued) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(5, 1, /*coordinator=*/1);
  bool b5_released = false;
  seq.RequestCommit(5, [&](Status s) { b5_released = s.ok(); });
  Status s1 = Status::Internal("unset");
  seq.RequestCommit(1, [&](Status s) { s1 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_FALSE(b5_released);  // B1 may commit; its record is not queued yet
  seq.ReleaseSuccessor(1);
  EXPECT_TRUE(b5_released);
  EXPECT_FALSE(seq.IsCommitted(1));  // queued, not durable
  // A successor asking after the release commits at once.
  seq.RegisterEmitted(9, 5, /*coordinator=*/0);
  seq.ReleaseSuccessor(5);
  bool b9_released = false;
  seq.RequestCommit(9, [&](Status s) { b9_released = s.ok(); });
  EXPECT_TRUE(b9_released);
  EXPECT_EQ(seq.LastCommittedBid(), kNoBid);
}

// Two coordinator strands resume from one group sync, so MarkCommitted may
// run out of bid order. FIFO durability makes every bid below the
// watermark durable: both read committed, and every waiter resolves OK.
TEST(CommitSequencerTest, OutOfOrderMarkCommittedKeepsBothCommitted) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(5, 1, /*coordinator=*/1);
  auto w1 = seq.WaitCommitted(1);
  auto w5 = seq.WaitCommitted(5);
  seq.RequestCommit(1, [](Status s) { ASSERT_TRUE(s.ok()); });
  seq.ReleaseSuccessor(1);
  seq.RequestCommit(5, [](Status s) { ASSERT_TRUE(s.ok()); });
  seq.ReleaseSuccessor(5);
  seq.MarkCommitted(5);
  EXPECT_TRUE(seq.IsCommitted(5));
  EXPECT_TRUE(seq.IsCommitted(1));
  ASSERT_TRUE(w1.ready());
  ASSERT_TRUE(w5.ready());
  EXPECT_TRUE(w1.Peek().ok());
  EXPECT_TRUE(w5.Peek().ok());
  EXPECT_TRUE(seq.WaitCommitted(1).ready());
  seq.MarkCommitted(1);
  EXPECT_TRUE(seq.IsCommitted(1));
  EXPECT_TRUE(seq.IsCommitted(5));
  EXPECT_EQ(seq.LastCommittedBid(), 5u);
  EXPECT_EQ(seq.num_committed_batches(), 2u);
}

// Several batches can be committing at once (queued records, one not yet
// queued). A global abort spares all of them and aborts only the undecided
// successor; its drain resolves at the last MarkCommitted, in any order.
TEST(CommitSequencerTest, AbortSparesEveryQueuedBatchAndDrainsAtLast) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(3, 1, /*coordinator=*/1);
  seq.RegisterEmitted(5, 3, /*coordinator=*/0);
  seq.RegisterEmitted(7, 5, /*coordinator=*/1);
  seq.RequestCommit(1, [](Status s) { ASSERT_TRUE(s.ok()); });
  seq.ReleaseSuccessor(1);
  seq.RequestCommit(3, [](Status s) { ASSERT_TRUE(s.ok()); });
  seq.ReleaseSuccessor(3);
  seq.RequestCommit(5, [](Status s) { ASSERT_TRUE(s.ok()); });
  // B5 is committing but its record is not queued: B7 waits behind it.
  bool b7_aborted = false;
  seq.RequestCommit(7, [&](Status s) { b7_aborted = s.IsTxnAborted(); });
  EXPECT_FALSE(b7_aborted);
  auto outcome =
      seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  EXPECT_EQ(outcome.aborted, (std::map<uint64_t, uint64_t>{{7, 1}}));
  EXPECT_TRUE(b7_aborted);
  for (uint64_t bid : {1u, 3u, 5u}) EXPECT_FALSE(seq.IsAborted(bid)) << bid;
  seq.ReleaseSuccessor(5);  // B5's record queues during the round
  seq.MarkCommitted(3);
  EXPECT_FALSE(outcome.committing_drained.ready());
  seq.MarkCommitted(5);
  EXPECT_FALSE(outcome.committing_drained.ready());
  seq.MarkCommitted(1);
  EXPECT_TRUE(outcome.committing_drained.ready());
  for (uint64_t bid : {1u, 3u, 5u}) EXPECT_TRUE(seq.IsCommitted(bid)) << bid;
  EXPECT_FALSE(seq.IsCommitted(7));
}

TEST(CommitSequencerTest, LongChainCommitsInOrder) {
  CommitSequencer seq;
  std::vector<uint64_t> bids = {3, 7, 12, 20};
  uint64_t prev = kNoBid;
  for (uint64_t b : bids) {
    seq.RegisterEmitted(b, prev, /*coordinator=*/0);
    prev = b;
  }
  std::vector<uint64_t> commit_order;
  // Request in reverse to prove ordering comes from the chain.
  for (auto it = bids.rbegin(); it != bids.rend(); ++it) {
    uint64_t bid = *it;
    seq.RequestCommit(bid, [&, bid](Status s) {
      ASSERT_TRUE(s.ok());
      commit_order.push_back(bid);
      seq.MarkCommitted(bid);
    });
  }
  EXPECT_EQ(commit_order, bids);
}

TEST(CommitSequencerTest, IsCommittedSemantics) {
  CommitSequencer seq;
  EXPECT_FALSE(seq.IsCommitted(1));
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RequestCommit(1, [](Status) {});
  seq.MarkCommitted(1);
  EXPECT_TRUE(seq.IsCommitted(1));
  EXPECT_FALSE(seq.IsAborted(1));
}

TEST(CommitSequencerTest, WaitCommittedResolvesOnCommit) {
  CommitSequencer seq;
  seq.RegisterEmitted(4, kNoBid, /*coordinator=*/0);
  auto f = seq.WaitCommitted(4);
  EXPECT_FALSE(f.ready());
  seq.RequestCommit(4, [](Status) {});
  seq.MarkCommitted(4);
  ASSERT_TRUE(f.ready());
  EXPECT_TRUE(f.Peek().ok());
  // Already committed: resolves immediately.
  EXPECT_TRUE(seq.WaitCommitted(4).ready());
}

TEST(CommitSequencerTest, AbortMarksAllUndecided) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(5, 1, /*coordinator=*/1);
  auto waiter = seq.WaitCommitted(5);
  bool b5_cb_aborted = false;
  seq.RequestCommit(5, [&](Status s) { b5_cb_aborted = s.IsTxnAborted(); });
  auto outcome =
      seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  // Each aborted batch names the coordinator that formed it.
  EXPECT_EQ(outcome.aborted, (std::map<uint64_t, uint64_t>{{1, 0}, {5, 1}}));
  EXPECT_TRUE(outcome.committing_drained.ready());  // nothing was committing
  EXPECT_TRUE(b5_cb_aborted);
  ASSERT_TRUE(waiter.ready());
  EXPECT_TRUE(waiter.Peek().IsTxnAborted());
  EXPECT_TRUE(seq.IsAborted(1));
  EXPECT_TRUE(seq.IsAborted(5));
  EXPECT_FALSE(seq.IsCommitted(1));
}

TEST(CommitSequencerTest, AbortSparesCommittingBatch) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(5, 1, /*coordinator=*/0);
  // B1's commit callback fired: it is now committing.
  seq.RequestCommit(1, [](Status s) { ASSERT_TRUE(s.ok()); });
  auto outcome =
      seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  EXPECT_EQ(outcome.aborted, (std::map<uint64_t, uint64_t>{{5, 0}}));
  EXPECT_FALSE(outcome.committing_drained.ready());
  EXPECT_FALSE(seq.IsAborted(1));
  seq.MarkCommitted(1);  // commit completes during the abort round
  EXPECT_TRUE(outcome.committing_drained.ready());
  EXPECT_TRUE(seq.IsCommitted(1));
}

TEST(CommitSequencerTest, CommittedBelowWatermarkStaysCommittedAfterAbort) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RequestCommit(1, [](Status) {});
  seq.MarkCommitted(1);
  seq.RegisterEmitted(5, 1, /*coordinator=*/0);
  seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  EXPECT_TRUE(seq.IsCommitted(1));
  EXPECT_TRUE(seq.IsAborted(5));
  // bid 5 < a later committed bid must still read as aborted.
  seq.RegisterEmitted(9, kNoBid, /*coordinator=*/0);  // fresh chain after abort
  seq.RequestCommit(9, [](Status) {});
  seq.MarkCommitted(9);
  EXPECT_TRUE(seq.IsCommitted(9));
  EXPECT_FALSE(seq.IsCommitted(5));
  EXPECT_TRUE(seq.IsAborted(5));
}

TEST(CommitSequencerTest, WaitCommittedOnAbortedBid) {
  CommitSequencer seq;
  seq.RegisterEmitted(3, kNoBid, /*coordinator=*/0);
  seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  auto f = seq.WaitCommitted(3);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.Peek().abort_reason(), AbortReason::kCascading);
}

TEST(CommitSequencerTest, Counters) {
  CommitSequencer seq;
  seq.RegisterEmitted(1, kNoBid, /*coordinator=*/0);
  seq.RegisterEmitted(2, 1, /*coordinator=*/0);
  seq.RequestCommit(1, [](Status) {});
  seq.MarkCommitted(1);
  seq.BeginAbort(Status::TxnAborted(AbortReason::kCascading, "x"));
  EXPECT_EQ(seq.num_committed_batches(), 1u);
  EXPECT_EQ(seq.num_aborted_batches(), 1u);
}

}  // namespace
}  // namespace snapper
