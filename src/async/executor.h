// Worker-pool executor and per-actor strands.
//
// The actor runtime maps every actor onto a Strand: a serialized execution
// context that guarantees at most one queued task of the actor runs at a
// time, while different actors' strands run in parallel on the pool. This is
// the C++ analogue of Orleans turn-based scheduling (paper §2): one strand
// task == one turn.
//
// Neither posting a turn nor running it takes a lock. A strand's mailbox is
// an intrusive MPSC queue with an atomic "scheduled" flag; the executor
// keeps one run queue per worker plus a shared injection queue, and parks
// idle workers on a futex. The lock-free protocols are argued where they
// are used, in executor.cc and mpsc_queue.h.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "async/mpsc_queue.h"
#include "common/trace_hooks.h"

namespace snapper {

class Strand;

/// Fixed-size thread pool. Most jobs are strand drains: Strand::ScheduleDrain
/// queues the strand itself (no callable is built, nothing is allocated), and
/// a worker runs that strand's turns. Arbitrary callables can be posted too
/// (a WAL logger's flusher jobs, tests).
///
/// Each worker has its own run queue. A job posted from a worker goes to that
/// worker's queue; a job posted from any other thread (clients, timers, WAL
/// flushers) goes to the shared injection queue. A worker takes from its own
/// queue, looks at the injection queue every few jobs and whenever its own
/// queue is empty, and steals from the other workers before it parks. At
/// most one parked worker is woken per post, and none while another worker
/// is already searching for work.
class Executor {
 public:
  /// Creates the pool with `num_threads` workers (>= 1). Threads start
  /// immediately.
  explicit Executor(size_t num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues `fn`. Safe from any thread, including pool workers.
  /// After Stop(), posts are silently dropped.
  void Post(std::function<void()> fn);

  /// Enqueues a drain of `strand` (see Strand). Same rules as Post. At most
  /// one drain of a strand may be queued at a time; Strand guarantees that
  /// through its scheduled flag.
  void PostDrain(std::shared_ptr<Strand> strand);

  /// Signals workers to exit once every queue is empty, and joins them: jobs
  /// queued before Stop() still run, later posts are dropped. Idempotent.
  void Stop();

  size_t num_threads() const { return workers_.size(); }

  /// True when called from one of this executor's worker threads.
  bool InExecutor() const;

 private:
  friend class Strand;

  /// A run-queue entry: a drain of `strand`, or (when `strand` is null) a
  /// posted callable (FnJob, executor.cc). A strand embeds its drain job, so
  /// queueing a drain allocates nothing.
  struct Job : MpscNode {
    Strand* strand = nullptr;
  };
  struct FnJob;
  struct Worker;

  /// Queues `job` on the calling worker's run queue, or on the injection
  /// queue from any other thread, then wakes a worker if one is needed.
  void QueueJob(Job* job);
  /// Queues `job` on the injection queue, behind everything waiting there.
  void Inject(Job* job);
  Job* PopInjected();
  /// Takes one job from anywhere but the thief's own run queue.
  Job* Search(const Worker& thief);
  /// Wakes one parked worker unless a worker is already searching.
  void NotifyOne();
  /// Searches, parking whenever a search comes up dry, until it finds a job;
  /// nullptr once the executor is stopping and no job is left anywhere.
  Job* FindWork(Worker& w);
  /// Ends the caller's search after it found a job; the last searcher
  /// wakes another worker if jobs are still queued.
  void StopSearching();
  void RunJob(Job* job);
  /// Frees a posted callable, or drops a drain's reference to its strand.
  /// After RunJob, or instead of it for posts orphaned by a racing Stop().
  static void ReleaseJob(Job* job);
  void WorkerLoop(Worker& w);

  /// The calling thread's worker, of whichever executor it belongs to.
  static thread_local Worker* tls_worker_;

  std::vector<std::unique_ptr<Worker>> workers_;

  /// Jobs posted from outside the workers, and drains that used up their
  /// turn budget. Multi-consumer through `inject_claimed_`: a worker pops
  /// only while it holds the claim, and one that finds it taken looks
  /// elsewhere instead of waiting.
  MpscQueue inject_;
  /// Jobs pushed to `inject_` and not yet popped, counted before the push so
  /// that it never undercounts.
  std::atomic<size_t> inject_len_{0};
  std::atomic<bool> inject_claimed_{false};

  /// Workers searching for work, counting a parked worker that has been
  /// woken but has not looked yet.
  std::atomic<uint32_t> searching_{0};
  std::atomic<bool> stopping_{false};
};

/// Serialized sub-executor: tasks posted to a Strand run in FIFO order and
/// never concurrently with each other. Reentrancy in the Orleans sense falls
/// out naturally: while a coroutine turn is suspended (awaiting), the strand
/// is free to run other queued turns of the same actor.
class Strand : public std::enable_shared_from_this<Strand> {
 public:
  explicit Strand(Executor* executor) : executor_(executor) {
    drain_job_.strand = this;
  }
  ~Strand();

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  /// Enqueues `fn` on this strand. Safe from any thread. One queued task ==
  /// one turn; under an active trace session the task carries a turn tag
  /// drawn from the poster's context (record), and a replay session may
  /// withhold it until the recorded schedule reaches its slot.
  void Post(std::function<void()> fn);

  /// Post with an explicit, caller-derived turn tag. Used where the tag must
  /// be a pure function of stable identity rather than of the posting
  /// thread's context (e.g. an actor's OnActivate turn is tagged by
  /// (actor id, activation generation) so racing activators agree).
  void PostTagged(std::function<void()> fn, trace::TurnTag tag);

  /// Replay-session release path: enqueues a previously withheld turn,
  /// bypassing the OnPost gate. Only TraceSession calls this.
  void EnqueueForReplay(std::function<void()> fn, trace::TurnTag tag);

  /// The strand currently executing on this thread, or nullptr if the caller
  /// is not inside a strand task. Used by coroutine awaiters to resume on the
  /// owning actor's context.
  static Strand* Current();

  Executor* executor() const { return executor_; }

  /// Tasks currently queued (the mailbox depth of an actor owning this
  /// strand). Admission checks read it before enqueueing new sheddable work.
  size_t QueueDepth() const {
    return depth_.load(std::memory_order_relaxed);
  }

  /// Largest queue depth ever observed right after an enqueue — the
  /// high-watermark the overload harness asserts against its bounds.
  size_t MaxQueueDepth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Trace identity of this strand (0 = untraced). Set once by the creator
  /// (ActorRuntime derives it from (actor id, activation generation)) before
  /// the strand's first turn.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Installs the per-turn state digest provider for divergence detection
  /// (called at activation, before the first turn; runs on this strand at
  /// turn boundaries). Return 0 for "no digest".
  void set_digest_fn(std::function<uint64_t()> fn) {
    digest_fn_ = std::move(fn);
  }

  /// Digest of the owning actor's state, or 0 if no provider is installed.
  /// Called by the trace session at EndTurn, on this strand.
  uint64_t RunDigest() const { return digest_fn_ ? digest_fn_() : 0; }

 private:
  friend class Executor;  // runs Drain for the drain jobs it dequeues

  struct Turn;  // a queued task: MpscNode + callable + tag (executor.cc)

  void Enqueue(std::function<void()> fn, trace::TurnTag tag);
  void ScheduleDrain();
  /// Runs up to kDrainBudget turns. Returns true when the strand still holds
  /// its scheduled claim with work left, and must be queued again.
  bool Drain();

  // Max tasks per drain before yielding the worker to other strands.
  static constexpr int kDrainBudget = 32;

  Executor* executor_;
  /// Written by the creator before the strand is shared; read-only after.
  uint64_t trace_id_ = 0;
  std::function<uint64_t()> digest_fn_;

  /// Queued turns. The consumer is whoever holds `scheduled_`.
  MpscQueue mailbox_;
  /// True while a drain is queued or running; the poster that flips it from
  /// false queues the drain (Strand::Enqueue and Drain in executor.cc).
  std::atomic<bool> scheduled_{false};
  /// Turns enqueued and not yet taken by a drain: counted before the push
  /// and uncounted after the pop, so it never undercounts.
  std::atomic<size_t> depth_{0};
  std::atomic<size_t> max_depth_{0};

  /// The one run-queue entry for this strand's drain, and the reference
  /// that keeps the strand alive while that entry is queued. Both belong to
  /// the holder of `scheduled_`.
  Executor::Job drain_job_;
  std::shared_ptr<Strand> drain_ref_;
};

}  // namespace snapper
