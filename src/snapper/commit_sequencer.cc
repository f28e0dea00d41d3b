#include "snapper/commit_sequencer.h"

#include <algorithm>

namespace snapper {

void CommitSequencer::RegisterEmitted(uint64_t bid, uint64_t prev_bid,
                                      uint64_t coordinator) {
  MutexLock lock(&mu_);
  emitted_[bid] = Emitted{prev_bid, coordinator};
}

bool CommitSequencer::IsCommittedLocked(uint64_t bid) const {
  return watermark_ != kNoBid && bid <= watermark_ && aborted_.count(bid) == 0;
}

bool CommitSequencer::IsReleasedLocked(uint64_t bid) const {
  return released_ != kNoBid && bid <= released_ && aborted_.count(bid) == 0;
}

bool CommitSequencer::IsCommitted(uint64_t bid) const {
  MutexLock lock(&mu_);
  return IsCommittedLocked(bid);
}

bool CommitSequencer::IsAborted(uint64_t bid) const {
  MutexLock lock(&mu_);
  return aborted_.count(bid) > 0;
}

void CommitSequencer::RequestCommit(uint64_t bid,
                                    std::function<void(Status)> cb) {
  Status immediate;
  bool fire = false;
  {
    MutexLock lock(&mu_);
    if (aborted_.count(bid) > 0) {
      immediate = Status::TxnAborted(AbortReason::kCascading, "batch aborted");
      fire = true;
    } else {
      auto it = emitted_.find(bid);
      const uint64_t prev = it == emitted_.end() ? kNoBid : it->second.prev_bid;
      if (prev == kNoBid || IsReleasedLocked(prev)) {
        emitted_.erase(bid);
        committing_.insert(bid);  // protected from aborts from here on
        immediate = Status::OK();
        fire = true;
      } else {
        pending_[bid] = std::move(cb);
      }
    }
  }
  if (fire) cb(immediate);
}

std::function<void(Status)> CommitSequencer::ReleaseSuccessorLocked(
    uint64_t bid) {
  released_ = (released_ == kNoBid) ? bid : std::max(released_, bid);
  // The (single, linear-chain) successor's pending request, if it came in
  // before this release.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    auto emitted = emitted_.find(it->first);
    if (emitted != emitted_.end() && emitted->second.prev_bid == bid) {
      std::function<void(Status)> cb = std::move(it->second);
      emitted_.erase(emitted);
      committing_.insert(it->first);
      pending_.erase(it);
      return cb;
    }
  }
  return nullptr;
}

void CommitSequencer::ReleaseSuccessor(uint64_t bid) {
  std::function<void(Status)> successor_cb;
  {
    MutexLock lock(&mu_);
    successor_cb = ReleaseSuccessorLocked(bid);
  }
  if (successor_cb) successor_cb(Status::OK());
}

void CommitSequencer::MarkCommitted(uint64_t bid) {
  std::function<void(Status)> successor_cb;
  std::vector<Promise<Status>> resolved;
  std::vector<Promise<Unit>> drained;
  {
    MutexLock lock(&mu_);
    watermark_ = (watermark_ == kNoBid) ? bid : std::max(watermark_, bid);
    num_committed_++;
    committing_.erase(bid);
    emitted_.erase(bid);  // defensive: normally erased at cb-fire time
    successor_cb = ReleaseSuccessorLocked(bid);
    // Resolve WaitCommitted futures now covered by the watermark.
    for (auto it = waiters_.begin();
         it != waiters_.end() && it->first <= watermark_;) {
      if (aborted_.count(it->first) == 0) {
        for (auto& p : it->second) resolved.push_back(std::move(p));
        it = waiters_.erase(it);
      } else {
        ++it;  // aborted bids were resolved at abort time; defensive skip
      }
    }
    if (committing_.empty() && !drain_waiters_.empty()) {
      drained.swap(drain_waiters_);
    }
  }
  for (auto& p : resolved) p.TrySet(Status::OK());
  if (successor_cb) successor_cb(Status::OK());
  for (auto& p : drained) p.TrySet(Unit{});
}

CommitSequencer::AbortOutcome CommitSequencer::BeginAbort(
    const Status& status) {
  AbortOutcome outcome;
  std::vector<std::function<void(Status)>> cbs;
  std::vector<Promise<Status>> resolved;
  Promise<Unit> drain;
  outcome.committing_drained = drain.GetFuture();
  {
    MutexLock lock(&mu_);
    for (const auto& [bid, emitted] : emitted_) {
      aborted_.insert(bid);
      outcome.aborted.emplace(bid, emitted.coordinator);
      auto w = waiters_.find(bid);
      if (w != waiters_.end()) {
        for (auto& p : w->second) resolved.push_back(std::move(p));
        waiters_.erase(w);
      }
    }
    for (auto& [_, cb] : pending_) cbs.push_back(std::move(cb));
    pending_.clear();
    emitted_.clear();
    // Defensive sweep: fail any remaining waiters on undecided bids outside
    // the protected committing set — e.g. a commit-wait registered against a
    // bid whose registration a previous round already wiped. No future round
    // would cover them, so without this they would hang forever.
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      const uint64_t bid = it->first;
      const bool undecided = watermark_ == kNoBid || bid > watermark_ ||
                             aborted_.count(bid) > 0;
      if (undecided && committing_.count(bid) == 0) {
        aborted_.insert(bid);
        for (auto& p : it->second) resolved.push_back(std::move(p));
        it = waiters_.erase(it);
      } else {
        ++it;
      }
    }
    if (committing_.empty()) {
      drain.TrySet(Unit{});
    } else {
      drain_waiters_.push_back(std::move(drain));
    }
  }
  for (auto& p : resolved) p.TrySet(status);
  for (auto& cb : cbs) cb(status);
  return outcome;
}

Future<Status> CommitSequencer::WaitCommitted(uint64_t bid) {
  Promise<Status> promise;
  auto future = promise.GetFuture();
  {
    MutexLock lock(&mu_);
    if (aborted_.count(bid) > 0) {
      promise.TrySet(Status::TxnAborted(AbortReason::kCascading,
                                        "dependency batch aborted"));
      return future;
    }
    if (IsCommittedLocked(bid)) {
      promise.TrySet(Status::OK());
      return future;
    }
    waiters_[bid].push_back(std::move(promise));
  }
  return future;
}

uint64_t CommitSequencer::LastCommittedBid() const {
  MutexLock lock(&mu_);
  return watermark_;
}

uint64_t CommitSequencer::num_committed_batches() const {
  MutexLock lock(&mu_);
  return num_committed_;
}

uint64_t CommitSequencer::num_aborted_batches() const {
  MutexLock lock(&mu_);
  return aborted_.size();
}

}  // namespace snapper
