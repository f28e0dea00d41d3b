#include "snapper/local_schedule.h"

#include <algorithm>
#include <cassert>

namespace snapper {

size_t LocalSchedule::AddBatch(BatchMsg msg) {
  // prev_bid == kNoBid means "no uncommitted predecessor": the coordinator
  // only omits the link when every earlier batch on this actor has committed
  // (its token entry was removed, §4.2.2) — and committed implies arrived,
  // so appending after the current tail preserves the chain order even if
  // the predecessor's BatchCommit message is still in flight.
  if (msg.prev_bid != tail_bid_ && msg.prev_bid != kNoBid) {
    // Vacancy: predecessor not here yet (Fig. 4b).
    pending_batches_[msg.prev_bid] = std::move(msg);
    return 0;
  }
  size_t doomed = AppendBatchNode(std::move(msg));
  // Chain any parked successors that are now connectable.
  for (;;) {
    auto it = pending_batches_.find(tail_bid_);
    if (it == pending_batches_.end()) break;
    BatchMsg next = std::move(it->second);
    pending_batches_.erase(it);
    doomed += AppendBatchNode(std::move(next));
  }
  Pump();
  return doomed;
}

size_t LocalSchedule::AppendBatchNode(BatchMsg msg) {
  // Right behind an ACT set, the batch joins each unfinished member's
  // AfterSet; later batches only follow it, with larger bids.
  size_t doomed = 0;
  if (!nodes_.empty() && nodes_.back().kind == Node::Kind::kActSet) {
    for (const auto& [_, member] : nodes_.back().members) {
      if (member.info && member.info->ObserveBatchAfter(msg.bid)) ++doomed;
    }
  }
  Node node;
  node.kind = Node::Kind::kBatch;
  node.seq = next_seq_++;
  node.bid = msg.bid;
  node.entries.reserve(msg.entries.size());
  for (const auto& e : msg.entries) {
    PactEntry entry;
    entry.tid = e.tid;
    entry.declared = e.num_accesses;
    node.entries.push_back(std::move(entry));
  }
  std::sort(node.entries.begin(), node.entries.end(),
            [](const PactEntry& a, const PactEntry& b) { return a.tid < b.tid; });
  // Adopt invocations that arrived before this BatchMsg.
  for (auto it = pre_arrival_waiters_.lower_bound({msg.bid, 0});
       it != pre_arrival_waiters_.end() && it->first.first == msg.bid;
       it = pre_arrival_waiters_.erase(it)) {
    const uint64_t tid = it->first.second;
    auto entry = std::find_if(node.entries.begin(), node.entries.end(),
                              [tid](const PactEntry& e) { return e.tid == tid; });
    if (entry == node.entries.end()) {
      for (auto& p : it->second) {
        p.TrySet(Status::InvalidArgument(
            "PACT invocation on actor not in its actorAccessInfo"));
      }
      continue;
    }
    for (auto& p : it->second) entry->waiters.push_back(std::move(p));
  }
  tail_bid_ = msg.bid;
  nodes_.push_back(std::move(node));
  return doomed;
}

LocalSchedule::NodeList::iterator LocalSchedule::FindBatch(uint64_t bid) {
  return std::find_if(nodes_.begin(), nodes_.end(), [bid](const Node& n) {
    return n.kind == Node::Kind::kBatch && n.bid == bid;
  });
}

LocalSchedule::NodeList::const_iterator LocalSchedule::FindBatch(
    uint64_t bid) const {
  return std::find_if(nodes_.begin(), nodes_.end(), [bid](const Node& n) {
    return n.kind == Node::Kind::kBatch && n.bid == bid;
  });
}

LocalSchedule::NodeList::iterator LocalSchedule::FindActSet(uint64_t tid) {
  return std::find_if(nodes_.begin(), nodes_.end(), [tid](const Node& n) {
    return n.kind == Node::Kind::kActSet && n.members.count(tid) > 0;
  });
}

LocalSchedule::NodeList::const_iterator LocalSchedule::FindActSet(
    uint64_t tid) const {
  return std::find_if(nodes_.begin(), nodes_.end(), [tid](const Node& n) {
    return n.kind == Node::Kind::kActSet && n.members.count(tid) > 0;
  });
}

Future<Status> LocalSchedule::WaitPactTurn(uint64_t bid, uint64_t tid) {
  Promise<Status> promise;
  auto future = promise.GetFuture();
  auto node = FindBatch(bid);
  if (node == nodes_.end()) {
    // BatchMsg not yet arrived (or still parked): park the invocation.
    pre_arrival_waiters_[{bid, tid}].push_back(std::move(promise));
    return future;
  }
  auto entry = std::find_if(node->entries.begin(), node->entries.end(),
                            [tid](const PactEntry& e) { return e.tid == tid; });
  if (entry == node->entries.end()) {
    promise.Set(Status::InvalidArgument(
        "PACT invocation on actor not in its actorAccessInfo"));
    return future;
  }
  entry->waiters.push_back(std::move(promise));
  Pump();
  return future;
}

LocalSchedule::AccessOutcome LocalSchedule::CompletePactAccess(uint64_t bid,
                                                               uint64_t tid) {
  AccessOutcome outcome;
  auto node = FindBatch(bid);
  if (node == nodes_.end()) return outcome;  // batch aborted concurrently
  auto entry = std::find_if(node->entries.begin(), node->entries.end(),
                            [tid](const PactEntry& e) { return e.tid == tid; });
  if (entry == node->entries.end()) return outcome;
  entry->done++;
  if (entry->done >= entry->declared) outcome.txn_completed = true;
  // Advance the cursor over fully-completed entries (skipping degenerate
  // zero-access declarations defensively).
  while (node->cursor < node->entries.size() &&
         node->entries[node->cursor].done >=
             node->entries[node->cursor].declared) {
    node->cursor++;
  }
  if (!node->completed && node->cursor >= node->entries.size()) {
    node->completed = true;
    outcome.batch_completed = true;
  }
  Pump();
  return outcome;
}

void LocalSchedule::SetBatchWrote(uint64_t bid) {
  auto node = FindBatch(bid);
  if (node != nodes_.end()) node->wrote = true;
}

bool LocalSchedule::BatchWrote(uint64_t bid) const {
  auto node = FindBatch(bid);
  return node != nodes_.end() && node->wrote;
}

void LocalSchedule::MarkBatchCommitted(uint64_t bid) {
  auto node = FindBatch(bid);
  if (node != nodes_.end()) node->committed = true;
  PopFinishedHead();
  Pump();
}

uint64_t LocalSchedule::BatchSeq(uint64_t bid) const {
  auto node = FindBatch(bid);
  return node == nodes_.end() ? kNoSeq : node->seq;
}

uint64_t LocalSchedule::ActSeq(uint64_t tid) const {
  auto node = FindActSet(tid);
  return node == nodes_.end() ? kNoSeq : node->seq;
}

bool LocalSchedule::RegisterAct(uint64_t tid,
                                std::shared_ptr<SharedTxnInfo> info) {
  if (FindActSet(tid) != nodes_.end()) return false;
  // The deadlock rule's "before": the last batch node, at most one ACT set
  // back from the tail.
  uint64_t before = kNoBid;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    if (it->kind == Node::Kind::kBatch) {
      before = it->bid;
      break;
    }
  }
  const bool doomed =
      info != nullptr && before != kNoBid && info->ObserveBatchBefore(before);
  if (nodes_.empty() || nodes_.back().kind != Node::Kind::kActSet) {
    Node node;
    node.kind = Node::Kind::kActSet;
    node.seq = next_seq_++;
    nodes_.push_back(std::move(node));
  }
  nodes_.back().members.emplace(tid, ActMember{false, std::move(info)});
  return doomed;
}

Future<Status> LocalSchedule::WaitActTurn(uint64_t tid) {
  RegisterAct(tid);
  Promise<Status> promise;
  auto future = promise.GetFuture();
  auto node = FindActSet(tid);
  node->act_waiters[tid].push_back(std::move(promise));
  Pump();
  const auto& info = node->members.at(tid).info;
  if (info != nullptr && !future.ready()) info->AddPendingWait(future);
  return future;
}

void LocalSchedule::FinishAct(uint64_t tid) {
  auto node = FindActSet(tid);
  if (node == nodes_.end()) return;  // already cleared by a global abort
  node->members[tid] = ActMember{true, nullptr};
  auto waiters = node->act_waiters.find(tid);
  if (waiters != node->act_waiters.end()) {
    for (auto& p : waiters->second) {
      p.TrySet(Status::TxnAborted(AbortReason::kCascading, "ACT finished"));
    }
    node->act_waiters.erase(waiters);
  }
  PopFinishedHead();
  Pump();
}

uint64_t LocalSchedule::ClosestBatchBefore(uint64_t tid) const {
  auto node = FindActSet(tid);
  if (node == nodes_.end()) return kNoBid;
  while (node != nodes_.begin()) {
    --node;
    if (node->kind == Node::Kind::kBatch) return node->bid;
  }
  return kNoBid;
}

uint64_t LocalSchedule::FirstBatchAfter(uint64_t tid) const {
  auto node = FindActSet(tid);
  if (node == nodes_.end()) return kNoBid;
  for (++node; node != nodes_.end(); ++node) {
    if (node->kind == Node::Kind::kBatch) return node->bid;
  }
  return kNoBid;
}

std::vector<uint64_t> LocalSchedule::AbortUncommitted(
    const Status& status, const std::function<bool(uint64_t)>& is_committed) {
  std::vector<uint64_t> dropped;
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    if (it->kind == Node::Kind::kBatch) {
      if (is_committed(it->bid)) {
        it->committed = true;
        ++it;
        continue;
      }
      dropped.push_back(it->bid);
      for (auto& entry : it->entries) {
        for (auto& p : entry.waiters) p.TrySet(status);
      }
      it = nodes_.erase(it);
    } else {
      for (auto& [_, waiters] : it->act_waiters) {
        for (auto& p : waiters) p.TrySet(status);
      }
      it = nodes_.erase(it);
    }
  }
  for (auto& [key, waiters] : pre_arrival_waiters_) {
    for (auto& p : waiters) p.TrySet(status);
  }
  pre_arrival_waiters_.clear();
  for (auto& [_, msg] : pending_batches_) dropped.push_back(msg.bid);
  pending_batches_.clear();
  // Fresh epoch: the next batch arrives with prev_bid == kNoBid (§4.2.5's
  // "new token" reset applied to the local chain).
  tail_bid_ = kNoBid;
  PopFinishedHead();
  Pump();
  return dropped;
}

void LocalSchedule::PopFinishedHead() {
  while (!nodes_.empty()) {
    Node& head = nodes_.front();
    if (head.kind == Node::Kind::kBatch) {
      if (!head.committed) break;
    } else {
      if (!head.Done()) break;
    }
    nodes_.pop_front();
  }
}

void LocalSchedule::Pump() {
  bool prev_done = true;
  for (auto& node : nodes_) {
    if (!prev_done) break;
    if (node.kind == Node::Kind::kBatch) {
      if (!node.completed && node.cursor < node.entries.size()) {
        PactEntry& entry = node.entries[node.cursor];
        if (!entry.waiters.empty()) {
          auto waiters = std::move(entry.waiters);
          entry.waiters.clear();
          for (auto& p : waiters) {
            if (entry.started < entry.declared) {
              entry.started++;
              p.TrySet(Status::OK());
            } else {
              p.TrySet(Status::InvalidArgument(
                  "PACT exceeded its declared access count"));
            }
          }
        }
      }
    } else {
      if (!node.act_waiters.empty()) {
        auto waiters = std::move(node.act_waiters);
        node.act_waiters.clear();
        for (auto& [_, list] : waiters) {
          for (auto& p : list) p.TrySet(Status::OK());
        }
      }
    }
    prev_done = node.Done();
  }
}

}  // namespace snapper
