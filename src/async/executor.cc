#include "async/executor.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cassert>
#include <new>

#include "async/frame_pool.h"

// Concurrency protocols (no locks on the post/drain path):
//
// 1. Strand mailbox. Posters push turns onto the strand's MPSC queue and then
//    try to take the `scheduled_` claim; the one that takes it queues the
//    drain. The drain is the queue's only consumer. When it finds the queue
//    empty it gives the claim up and looks at the queue once more. The two
//    sides are a Dekker pair over seq_cst operations:
//      poster:  push (seq_cst exchange of head)  ->  read scheduled_
//      drain:   store scheduled_ = false          ->  read head
//    At least one side sees the other's write. Either the poster sees the
//    claim free and queues a drain, or the drain sees the new node and takes
//    the claim back (or finds that another poster already did).
//
// 2. Run queues. Only its owner pushes to a worker's ring; the owner and
//    thieves pop from its head by CAS. Jobs posted from other threads, and
//    drains that used up their budget, go to the injection queue: an MPSC
//    queue that a worker pops only while holding `inject_claimed_`. A worker
//    that finds the claim taken does not wait for it; it looks elsewhere.
//
// 3. Park/wake. A job is published (ring tail store, or `inject_len_`
//    increment plus injection push) and then NotifyOne runs a seq_cst fence and
//    reads `searching_` and the workers' park states. A worker about to park
//    first stores kParked and stops counting itself as searching, then runs
//    a seq_cst fence and searches once more. By the fences, either that last
//    search sees the job or the notifier sees the parked worker. The
//    notifier then wakes it, unless another worker is still searching; that
//    worker's own last search before parking comes after the notifier's
//    fence, so it sees the job. Three cases leave a job in the injection
//    queue where a search cannot take it, and each has an owner:
//      - its producer has swapped it in but not linked it yet. The producer
//        runs NotifyOne after linking;
//      - another worker holds the claim. That worker runs NotifyOne after
//        releasing it if jobs remain;
//      - another worker has popped ahead of it. If jobs remain, that worker
//        runs NotifyOne.
//    So a worker parks only when someone is bound to wake it or to find the
//    job. No worker spins: a search visits each queue once and then parks.

namespace snapper {

namespace {

thread_local Strand* tls_current_strand = nullptr;

// Worker park states (Worker::state, also the futex word).
constexpr uint32_t kRunning = 0;
constexpr uint32_t kParked = 1;
constexpr uint32_t kNotified = 2;

// Blocks while `*word == expected`. Spurious returns are allowed; callers
// re-check their condition.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT_PRIVATE,
          expected, nullptr, nullptr, 0);
}

void FutexWake(std::atomic<uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE_PRIVATE, 1,
          nullptr, nullptr, 0);
}

/// A worker with local work still takes from the injection queue every this
/// many jobs, so outside posts do not wait out its whole backlog.
constexpr uint32_t kInjectInterval = 4;

}  // namespace

struct Executor::FnJob : Job {
  explicit FnJob(std::function<void()> f) : fn(std::move(f)) {}
  std::function<void()> fn;
};

struct Executor::Worker {
  /// Ring capacity. A push that finds the ring full goes to the injection
  /// queue instead.
  static constexpr uint64_t kRingSize = 1024;

  Worker(Executor* o, size_t i) : owner(o), index(i) {}

  /// Owner only. False when the ring is full.
  bool TryPush(Job* job) {
    const uint64_t t = tail.load(std::memory_order_relaxed);
    // Acquire: a thief's read of the slot about to be reused happened
    // before its CAS on `head`, which this load reads.
    if (t - head.load(std::memory_order_acquire) >= kRingSize) return false;
    slots[t % kRingSize].store(job, std::memory_order_relaxed);
    tail.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Owner or thief: takes the oldest job. A slot is read before the CAS
  /// that claims it; the CAS fails if the owner could have reused the slot
  /// meanwhile, since reuse needs `head` to have moved past it.
  Job* Pop() {
    uint64_t h = head.load(std::memory_order_acquire);
    for (;;) {
      if (h == tail.load(std::memory_order_acquire)) return nullptr;
      Job* job = slots[h % kRingSize].load(std::memory_order_relaxed);
      if (head.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return job;
      }
    }
  }

  Executor* const owner;
  const size_t index;
  /// Jobs this worker has taken; every kInjectInterval-th one comes from
  /// the injection queue first. Owner only.
  uint32_t tick = 0;
  alignas(64) std::atomic<uint32_t> state{kRunning};
  alignas(64) std::atomic<uint64_t> head{0};
  alignas(64) std::atomic<uint64_t> tail{0};
  std::atomic<Job*> slots[kRingSize] = {};
  std::thread thread;
};

thread_local Executor::Worker* Executor::tls_worker_ = nullptr;

Executor::Executor(size_t num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }
  // Start the threads once every worker exists: a searching worker visits
  // all of them.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(*worker); });
  }
}

Executor::~Executor() {
  Stop();
  // A post that checked stopping_ just before Stop() set it may have landed
  // after the workers left. Release it unrun.
  for (auto& w : workers_) {
    while (Job* job = w->Pop()) ReleaseJob(job);
  }
  while (MpscNode* node = inject_.Pop()) ReleaseJob(static_cast<Job*>(node));
}

void Executor::Post(std::function<void()> fn) {
  if (stopping_.load(std::memory_order_acquire)) return;
  QueueJob(new (frame_pool::Allocate(sizeof(FnJob))) FnJob(std::move(fn)));
}

void Executor::PostDrain(std::shared_ptr<Strand> strand) {
  if (stopping_.load(std::memory_order_acquire)) return;
  Strand* s = strand.get();
  s->drain_ref_ = std::move(strand);
  QueueJob(&s->drain_job_);
}

void Executor::QueueJob(Job* job) {
  Worker* w = tls_worker_;
  if (w != nullptr && w->owner == this && w->TryPush(job)) {
    NotifyOne();
    return;
  }
  Inject(job);
}

void Executor::Inject(Job* job) {
  inject_len_.fetch_add(1, std::memory_order_relaxed);
  inject_.Push(job);
  NotifyOne();
}

Executor::Job* Executor::PopInjected() {
  if (inject_len_.load(std::memory_order_acquire) == 0) return nullptr;
  if (inject_claimed_.exchange(true, std::memory_order_acquire)) {
    return nullptr;  // the holder runs NotifyOne if jobs remain
  }
  MpscNode* node = inject_.Pop();
  inject_claimed_.store(false, std::memory_order_release);
  if (node == nullptr) return nullptr;  // its producer notifies after linking
  if (inject_len_.fetch_sub(1, std::memory_order_acq_rel) > 1) NotifyOne();
  return static_cast<Job*>(node);
}

Executor::Job* Executor::Search(const Worker& thief) {
  if (Job* job = PopInjected()) return job;
  const size_t n = workers_.size();
  for (size_t i = 1; i < n; ++i) {
    if (Job* job = workers_[(thief.index + i) % n]->Pop()) return job;
  }
  return nullptr;
}

void Executor::NotifyOne() {
  for (;;) {
    // Orders the caller's publish before the reads below (see the top of
    // this file).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (searching_.load(std::memory_order_relaxed) != 0) return;
    bool any_parked = false;
    for (const auto& w : workers_) {
      if (w->state.load(std::memory_order_relaxed) == kParked) {
        any_parked = true;
        break;
      }
    }
    if (!any_parked) return;
    // Count the worker about to be woken as searching before waking it, so
    // that concurrent notifiers leave it to that one.
    uint32_t none = 0;
    if (!searching_.compare_exchange_strong(none, 1,
                                            std::memory_order_seq_cst)) {
      return;
    }
    for (const auto& w : workers_) {
      uint32_t parked = kParked;
      if (w->state.compare_exchange_strong(parked, kNotified,
                                           std::memory_order_acq_rel)) {
        FutexWake(&w->state);
        return;
      }
    }
    // Someone else woke it first. Give the count back and look again: a
    // worker that parked after the scan may have missed a job that another
    // notifier left to the count just given back.
    searching_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void Executor::StopSearching() {
  if (searching_.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
  // The last searcher hands the search on if jobs are left. A notifier that
  // skipped its wake-up because it counted this searcher read the count
  // before the decrement above, so by the fences this check sees its job.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool queued = inject_len_.load(std::memory_order_relaxed) != 0;
  for (const auto& w : workers_) {
    queued = queued || w->head.load(std::memory_order_relaxed) !=
                           w->tail.load(std::memory_order_relaxed);
  }
  if (queued) NotifyOne();
}

Executor::Job* Executor::FindWork(Worker& w) {
  searching_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    if (Job* job = Search(w)) {
      StopSearching();
      return job;
    }
    // Park: announce it and stop counting as a searcher, fence, search once
    // more (the Dekker pair with NotifyOne, top of this file).
    w.state.store(kParked, std::memory_order_relaxed);
    searching_.fetch_sub(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    Job* job = Search(w);
    if (job != nullptr || stopping_.load(std::memory_order_relaxed)) {
      uint32_t parked = kParked;
      if (w.state.compare_exchange_strong(parked, kRunning,
                                          std::memory_order_acq_rel)) {
        searching_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // A notifier got here first and has counted us as searching.
        w.state.store(kRunning, std::memory_order_relaxed);
      }
      if (job != nullptr) {
        StopSearching();
        return job;
      }
      // Stopping. Leave only once no injected job is left either: one that
      // is counted but cannot be popped yet (claim held, link pending) is
      // still owed a run, and nobody would wake a parked worker for it.
      if (inject_len_.load(std::memory_order_acquire) == 0) {
        searching_.fetch_sub(1, std::memory_order_relaxed);
        return nullptr;
      }
      continue;
    }
    while (w.state.load(std::memory_order_acquire) == kParked) {
      FutexWait(&w.state, kParked);
    }
    // Woken, and counted as searching by the waker.
    w.state.store(kRunning, std::memory_order_relaxed);
  }
}

void Executor::Stop() {
  stopping_.store(true, std::memory_order_seq_cst);
  // Every parked worker must see stopping_: Park checks it after its fence.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (auto& w : workers_) {
    searching_.fetch_add(1, std::memory_order_relaxed);
    uint32_t parked = kParked;
    if (w->state.compare_exchange_strong(parked, kNotified,
                                         std::memory_order_acq_rel)) {
      FutexWake(&w->state);
    } else {
      searching_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool Executor::InExecutor() const {
  return tls_worker_ != nullptr && tls_worker_->owner == this;
}

void Executor::RunJob(Job* job) {
  Strand* strand = job->strand;
  if (strand == nullptr) {
    static_cast<FnJob*>(job)->fn();
    ReleaseJob(job);
    return;
  }
  std::shared_ptr<Strand> ref = std::move(strand->drain_ref_);
  if (!strand->Drain() || stopping_.load(std::memory_order_acquire)) return;
  // The strand keeps its claim with turns left. Queue it behind the jobs
  // waiting in the injection queue, not at the head of this worker's own
  // run, so a long mailbox cannot hold back posts from outside the workers.
  strand->drain_ref_ = std::move(ref);
  Inject(&strand->drain_job_);
}

void Executor::ReleaseJob(Job* job) {
  if (job->strand == nullptr) {
    auto* fn_job = static_cast<FnJob*>(job);
    fn_job->~FnJob();
    frame_pool::Deallocate(fn_job, sizeof(FnJob));
    return;
  }
  // May destroy the strand, and with it its queued turns.
  std::shared_ptr<Strand> ref = std::move(job->strand->drain_ref_);
}

void Executor::WorkerLoop(Worker& w) {
  tls_worker_ = &w;
  for (;;) {
    Job* job = nullptr;
    if (++w.tick % kInjectInterval == 0) job = PopInjected();
    if (job == nullptr) job = w.Pop();
    if (job == nullptr) job = PopInjected();
    if (job == nullptr) job = FindWork(w);
    if (job == nullptr) break;
    RunJob(job);
  }
  tls_worker_ = nullptr;
}

// ---------------------------------------------------------------------------
// Strand
// ---------------------------------------------------------------------------

struct Strand::Turn : MpscNode {
  Turn(std::function<void()> f, trace::TurnTag t) : fn(std::move(f)), tag(t) {}

  static void Free(MpscNode* node) {
    auto* turn = static_cast<Turn*>(node);
    turn->~Turn();
    frame_pool::Deallocate(turn, sizeof(Turn));
  }

  std::function<void()> fn;
  trace::TurnTag tag;
};

Strand::~Strand() {
  // Turns left behind when Stop() dropped this strand's drain.
  while (MpscNode* node = mailbox_.Pop()) Turn::Free(node);
}

void Strand::Post(std::function<void()> fn) {
  PostTagged(std::move(fn), trace::NextPostTag());
}

void Strand::PostTagged(std::function<void()> fn, trace::TurnTag tag) {
  // Replay gating: a trace session may take ownership of the tagged turn and
  // release it (via EnqueueForReplay) when the recorded schedule says so.
  if (tag.traced() && trace::PostIntercepted(this, tag, &fn)) return;
  Enqueue(std::move(fn), tag);
}

void Strand::EnqueueForReplay(std::function<void()> fn, trace::TurnTag tag) {
  Enqueue(std::move(fn), tag);
}

void Strand::Enqueue(std::function<void()> fn, trace::TurnTag tag) {
  auto* turn = new (frame_pool::Allocate(sizeof(Turn))) Turn(std::move(fn), tag);
  const size_t depth = depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  size_t max = max_depth_.load(std::memory_order_relaxed);
  while (depth > max && !max_depth_.compare_exchange_weak(
                            max, depth, std::memory_order_relaxed)) {
  }
  mailbox_.Push(turn);
  // Dekker with Drain giving up the claim (top of this file): the push's
  // seq_cst exchange comes before this seq_cst read. The plain read skips
  // the RMW while a drain is already queued or running.
  if (scheduled_.load(std::memory_order_seq_cst) ||
      scheduled_.exchange(true, std::memory_order_seq_cst)) {
    return;
  }
  ScheduleDrain();
}

Strand* Strand::Current() { return tls_current_strand; }

void Strand::ScheduleDrain() { executor_->PostDrain(shared_from_this()); }

bool Strand::Drain() {
  Strand* prev = tls_current_strand;
  tls_current_strand = this;
  bool more = true;
  for (int i = 0; i < kDrainBudget; ++i) {
    MpscNode* node = mailbox_.Pop();
    if (node == nullptr) {
      // A poster is between its push and its link: keep the claim and come
      // back after other work rather than wait for it.
      if (!mailbox_.Empty()) break;
      // Give the claim up, then look once more: a poster that read the claim
      // as held before this store did not queue a drain. From here on only
      // atomics are read, since a new drain may already own the mailbox.
      scheduled_.store(false, std::memory_order_seq_cst);
      if (mailbox_.HeadIsStub() ||
          scheduled_.exchange(true, std::memory_order_seq_cst)) {
        more = false;
        break;
      }
      continue;  // took the claim back: a turn arrived
    }
    depth_.fetch_sub(1, std::memory_order_relaxed);
    auto* turn = static_cast<Turn*>(node);
    const trace::TurnTag tag = turn->tag;
    const bool current = tag.traced() && trace::TagIsCurrent(tag);
    trace::Hooks* hooks = current ? trace::GetHooks() : nullptr;
    if (hooks != nullptr) {
      // The one dispatch point every turn funnels through: record (or
      // verify) global turn order here, and run the body under the turn's
      // derived trace context so its draws are schedule-independent.
      hooks->BeginTurn(this, tag);
      {
        trace::CtxScope scope(trace::TurnCtx(tag));
        turn->fn();
      }
      hooks->EndTurn(this, tag);
    } else if (tag.traced() && !current && trace::Active()) {
      // A turn tagged by a *previous* session (leaked runtime) running
      // while a new session is attached: flag-scope the body so its draws
      // are visibly unattributed instead of polluting the new trace.
      trace::CtxScope scope(trace::kUnattributedCtxBit);
      turn->fn();
    } else {
      turn->fn();
    }
    Turn::Free(turn);
  }
  tls_current_strand = prev;
  return more;
}

}  // namespace snapper
