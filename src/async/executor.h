// Worker-pool executor and per-actor strands.
//
// The actor runtime maps every actor onto a Strand: a serialized execution
// context that guarantees at most one queued task of the actor runs at a
// time, while different actors' strands run in parallel on the pool. This is
// the C++ analogue of Orleans turn-based scheduling (paper §2): one strand
// task == one turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/trace_hooks.h"

namespace snapper {

class Strand;

/// Fixed-size thread pool with one FIFO job queue. Most jobs are strand
/// drains: Strand::ScheduleDrain queues the strand itself (a reference, no
/// callable is built), and a worker runs that strand's turns. Arbitrary
/// callables can be posted too (a WAL logger's flusher jobs, tests).
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

  /// Enqueues a drain of `strand` (see Strand). Same rules as Post.
  void PostDrain(std::shared_ptr<Strand> strand);

  /// Drains nothing; signals workers to exit once the queue empties and
  /// joins them. Idempotent.
  void Stop();

  size_t num_threads() const { return threads_.size(); }

  /// True when called from one of this executor's worker threads.
  bool InExecutor() const;

 private:
  /// A strand to drain, or (when `strand` is null) a callable to run.
  struct Job {
    std::shared_ptr<Strand> strand;
    std::function<void()> fn;
  };

  void AddJob(Job job);
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<Job> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Written only by the constructor, before any concurrency; joined by
  /// Stop() after stopping_ is set.
  std::vector<std::thread> threads_;
};

/// Serialized sub-executor: tasks posted to a Strand run in FIFO order and
/// never concurrently with each other. Reentrancy in the Orleans sense falls
/// out naturally: while a coroutine turn is suspended (awaiting), the strand
/// is free to run other queued turns of the same actor.
class Strand : public std::enable_shared_from_this<Strand> {
 public:
  explicit Strand(Executor* executor) : executor_(executor) {}

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
  size_t QueueDepth() const;

  /// Largest queue depth ever observed right after an enqueue — the
  /// high-watermark the overload harness asserts against its bounds.
  size_t MaxQueueDepth() const;

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

  struct TaggedTask {
    std::function<void()> fn;
    trace::TurnTag tag;
  };

  void Enqueue(std::function<void()> fn, trace::TurnTag tag);
  void ScheduleDrain();
  void Drain();

  // Max tasks per drain before yielding the worker to other strands.
  static constexpr int kDrainBudget = 32;

  Executor* executor_;
  /// Written by the creator before the strand is shared; read-only after.
  uint64_t trace_id_ = 0;
  std::function<uint64_t()> digest_fn_;
  mutable Mutex mu_;
  std::deque<TaggedTask> queue_ GUARDED_BY(mu_);
  bool scheduled_ GUARDED_BY(mu_) = false;  // a drain job is queued or running
  size_t max_depth_ GUARDED_BY(mu_) = 0;
};

}  // namespace snapper
