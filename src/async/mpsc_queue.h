// Intrusive multi-producer / single-consumer FIFO (Dmitry Vyukov's
// node-based MPSC queue).
//
// A node carries its own link (MpscNode), so queueing allocates nothing.
// Push is one atomic exchange plus one store and never waits; Pop is for one
// consumer at a time, and the caller provides that exclusion (a strand's
// scheduled flag, the executor's injection claim).
//
// Memory ordering: a producer swaps its node in as `head_` and then links
// the previous head to it with a release store. The consumer follows links
// with acquire loads, so whatever a producer wrote into its node before Push
// is visible to the thread that pops it.
//
// Between a producer's exchange and its link the queue is briefly unlinked:
// the node is in `head_` but not yet reachable from `tail_`, and neither are
// nodes pushed after it. Pop then returns nullptr although the queue is not
// empty; Empty() tells the two cases apart. The consumer must not wait for
// the link (the producer may be preempted there): it retries later, and the
// producer, which signals its consumer only after linking, makes sure a
// later retry happens.
#pragma once

#include <atomic>

namespace snapper {

/// The link every node an MpscQueue carries embeds.
struct MpscNode {
  std::atomic<MpscNode*> next{nullptr};
};

class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Appends `node`. Any thread. The exchange is seq_cst: the strand and
  /// executor protocols pair it with a flag in Dekker style.
  void Push(MpscNode* node) {
    node->next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(node, std::memory_order_seq_cst);
    prev->next.store(node, std::memory_order_release);
  }

  /// Consumer only. Removes and returns the oldest node, or returns nullptr
  /// when the queue is empty or its oldest node is not linked yet.
  MpscNode* Pop() {
    MpscNode* tail = tail_;
    MpscNode* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;
      tail_ = next;
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    // `tail` is the last linked node. If a producer has swapped in after it,
    // its link is still pending.
    if (tail != head_.load(std::memory_order_acquire)) return nullptr;
    // Put the stub behind the last node so that it can be handed out.
    Push(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    return nullptr;  // a producer got in between; its link is pending
  }

  /// Consumer only. True when nothing is queued, not even a node whose link
  /// is pending.
  bool Empty() const { return tail_ == &stub_ && HeadIsStub(); }

  /// Any thread. Once the consumer has seen Empty(), this stays true until
  /// the next Push: it lets a consumer that has given up its claim see
  /// whether anything arrived since, without touching consumer state.
  bool HeadIsStub() const {
    return head_.load(std::memory_order_seq_cst) == &stub_;
  }

 private:
  MpscNode stub_;
  std::atomic<MpscNode*> head_{&stub_};  // newest node; producers swap here
  MpscNode* tail_ = &stub_;              // oldest node; consumer only
};

}  // namespace snapper
