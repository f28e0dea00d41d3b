// Minimal virtual-actor runtime — the Orleans substitute (paper §2).
//
// Provides exactly the four properties Snapper relies on:
//   1. Virtual actors: identified by (type, key); activated on first use and
//      conceptually perpetual (this runtime never deactivates live actors).
//   2. Turn-based scheduling: each actor owns a Strand; one posted task = one
//      turn; turns of one actor never run concurrently.
//   3. Asynchronous RPC with futures: `Call` constructs a coroutine on the
//      target actor and starts it on the target's strand; the caller gets a
//      Future and may `co_await` it.
//   4. Reentrancy: while a turn is suspended awaiting, the strand is free to
//      run other turns of the same actor (Snapper requires this for its
//      deterministic scheduling, §3.1).
//
// Message timing is nondeterministic by construction (worker interleaving);
// `msg_faults()` adds seeded delivery delays (and, for droppable messages,
// loss and duplication) on top, used by the determinism property tests.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/trace_hooks.h"

#include "actor/message_faults.h"
#include "async/executor.h"
#include "async/future.h"
#include "async/task.h"
#include "async/timer.h"

namespace snapper {

/// Actor identity: a registered type plus a user-chosen 64-bit key
/// (the analogue of Orleans' user-defined actor identities).
struct ActorId {
  uint32_t type = 0;
  uint64_t key = 0;

  bool operator==(const ActorId& o) const {
    return type == o.type && key == o.key;
  }
  bool operator<(const ActorId& o) const {
    return type != o.type ? type < o.type : key < o.key;
  }
  std::string ToString() const {
    return std::to_string(type) + "/" + std::to_string(key);
  }
};

struct ActorIdHash {
  size_t operator()(const ActorId& id) const {
    uint64_t x = (static_cast<uint64_t>(id.type) << 56) ^ id.key;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

class ActorRuntime;

namespace internal {
/// Out-of-line failure path for SNAPPER_DCHECK_ON_STRAND: prints the
/// violation and aborts. Always compiled (tests enable the check per-target
/// while linking against a library built without it).
[[noreturn]] void StrandCheckFailed(const char* what,
                                    const std::string& actor_id);
}  // namespace internal

/// Base class of every actor. Owns the actor's strand; subclasses run all
/// state access on it.
class ActorBase : public std::enable_shared_from_this<ActorBase> {
 public:
  virtual ~ActorBase() = default;

  const ActorId& id() const { return id_; }
  ActorRuntime& runtime() const { return *runtime_; }
  Strand& strand() const { return *strand_; }

  /// Runtime enforcement of the "strand-confined, no lock" capability tier
  /// (DESIGN.md "Concurrency discipline"): aborts unless the calling thread
  /// is currently executing a turn of THIS actor's strand. Compiled in when
  /// SNAPPER_DCHECK_ON_STRAND is defined (Debug builds and
  /// -DSNAPPER_DCHECK_ON_STRAND=ON); zero-cost otherwise. `what` names the
  /// guarded entry point in the failure message.
  void DcheckOnStrand(const char* what) const {
#ifdef SNAPPER_DCHECK_ON_STRAND
    if (Strand::Current() != strand_.get()) {
      internal::StrandCheckFailed(what, id_.ToString());
    }
#else
    (void)what;
#endif
  }

  /// Called once on the actor's strand right after activation.
  virtual void OnActivate() {}

  /// Called as the kill turn on the (former) actor's strand after
  /// ActorRuntime::KillActor evicted it. Subclasses fail their pending
  /// waiters here so no one blocks on a dead activation forever.
  virtual void OnKill() {}

  /// True once this activation was fail-stop killed. Turns already queued on
  /// the strand still run (fail-stop granularity is the turn boundary);
  /// subclasses gate their entry points on this. The observation is
  /// cross-thread (the kill races running turns), so under an active trace
  /// session it is recorded and forced on replay.
  bool failed() const {
    const bool physical = failed_.load(std::memory_order_acquire);
    if (!trace::Active()) return physical;
    return trace::DecisionBool(trace::Site::kActorFailed, physical);
  }

  /// 1-based activation generation of this instance: the k-th activation of
  /// a given ActorId has generation k, across kills/reactivations. Stable
  /// across record and replay (generation is allocated per id, not per
  /// global activation order).
  uint64_t activation_gen() const { return activation_gen_; }

  /// Digest of the actor's replicated state for replay divergence detection
  /// (DESIGN.md §4g). Called at turn boundaries on the actor's strand while
  /// a trace session is active; 0 means "no digest". Override in
  /// state-bearing actors with a stable hash (trace::HashBytes) of the
  /// serialized state.
  virtual uint64_t StateDigest() const { return 0; }

 private:
  friend class ActorRuntime;
  ActorId id_;
  ActorRuntime* runtime_ = nullptr;
  std::shared_ptr<Strand> strand_;
  std::atomic<bool> failed_{false};
  /// Written once, pre-publication, by GetOrActivate.
  uint64_t activation_gen_ = 0;
};

/// In-process actor directory + scheduler.
class ActorRuntime {
 public:
  struct Options {
    /// Worker threads executing actor turns ("cores of the silo").
    size_t num_workers = 4;
    /// Bounded-mailbox high watermark: a kDroppable Call whose target strand
    /// already holds this many queued turns is shed with a typed
    /// Status::Overloaded failure instead of enqueued. kReliable
    /// (transactional, in-flight protocol) turns are never shed — dropping
    /// them mid-protocol would wedge commit chains; their volume is bounded
    /// upstream by admission control. 0 = unbounded.
    size_t mailbox_capacity = 0;
  };

  explicit ActorRuntime(Options options);
  ~ActorRuntime();

  ActorRuntime(const ActorRuntime&) = delete;
  ActorRuntime& operator=(const ActorRuntime&) = delete;

  /// Registers an actor type; `factory` constructs an instance for a key.
  /// Returns the type id to embed in ActorIds. Must be called before any
  /// activation of that type.
  uint32_t RegisterType(
      std::string name,
      std::function<std::shared_ptr<ActorBase>(uint64_t key)> factory);

  /// Returns the live actor, activating it on first use (virtual actor
  /// semantics). Thread-safe.
  std::shared_ptr<ActorBase> GetOrActivate(const ActorId& id);

  /// Typed variant; undefined behaviour if `A` mismatches the registered
  /// factory for `id.type`.
  template <typename A>
  std::shared_ptr<A> Get(const ActorId& id) {
    return std::static_pointer_cast<A>(GetOrActivate(id));
  }

  /// Asynchronous RPC: runs `fn(actor)` — which must return Task<T> — as
  /// turns on the target actor's strand. The returned future resolves with
  /// the task's result. Delivery order between distinct calls is
  /// unspecified.
  ///
  /// `guard` declares the message's delivery class for fault injection:
  /// kDroppable callers assert they survive loss and duplication of this
  /// message (see message_faults.h). A dropped message returns a future that
  /// never resolves — exactly what real loss looks like to the sender. A
  /// duplicated message runs `fn` twice; kDroppable call sites must capture
  /// by value and target idempotent receivers.
  template <typename A, typename Fn>
  auto Call(const ActorId& id, Fn fn, MsgGuard guard = MsgGuard::kReliable) {
    auto actor = Get<A>(id);
    using TaskT = std::invoke_result_t<Fn, A&>;
    using ResultT = typename TaskT::value_type;
    // Bounded mailbox (overload protection): shed sheddable messages once
    // the target's queue is at capacity, with a typed failure the sender can
    // distinguish from loss. Checked before fault injection so a shed
    // message is never also dropped/duplicated. The depth observation is
    // schedule-dependent, so it is a recorded decision under tracing.
    if (guard == MsgGuard::kDroppable && mailbox_capacity_ != 0) {
      const bool shed =
          trace::DecisionBool(trace::Site::kMailboxShed,
                              actor->strand_->QueueDepth() >= mailbox_capacity_);
      if (shed) {
        mailbox_rejections_.fetch_add(1, std::memory_order_relaxed);
        return MakeOverloadedFuture<ResultT>(id);
      }
    }
    uint32_t delay_ms = 0;
    // Whether faults are armed flips mid-run (the harness clears them while
    // trailing turns still execute), so the observation itself is recorded —
    // otherwise record and replay could disagree on whether this call drew a
    // fault verdict at all.
    const bool faults_active =
        trace::DecisionBool(trace::Site::kMsgFaultActive, msg_faults_.active());
    if (faults_active) {
      const auto d = msg_faults_.Decide(guard);
      if (d.drop) {
        // Simulated loss: take the future, then let the unstarted task
        // destruct — the coroutine frame is freed, the future stays pending.
        auto task = fn(*actor);
        return task.GetFuture();
      }
      if (d.duplicate) {
        fn(*actor).Start(*actor->strand_);  // second delivery, result dropped
      }
      delay_ms = d.delay_ms;
    }
    auto task = fn(*actor);
    if (delay_ms == 0) {
      return task.Start(actor->strand());
    }
    // Delay injection: hold the first turn back for the chosen interval.
    auto future = task.GetFuture();
    auto strand = actor->strand_;
    // Move the task into a shared slot the timer callback can start from.
    auto slot = std::make_shared<TaskT>(std::move(task));
    timers_.Schedule(std::chrono::milliseconds(delay_ms),
                     [slot, strand]() { slot->Start(*strand); });
    return future;
  }

  /// Posts a plain (non-coroutine) turn to the actor's strand.
  void Post(const ActorId& id, std::function<void()> fn) {
    GetOrActivate(id)->strand().Post(std::move(fn));
  }

  /// Creates a strand not owned by any actor (loggers, harness).
  std::shared_ptr<Strand> NewStrand() {
    return std::make_shared<Strand>(&executor_);
  }

  Executor& executor() { return executor_; }
  TimerService& timers() { return timers_; }

  /// Opaque application-level context (e.g. Snapper's shared component
  /// wiring), reachable from any actor via its runtime.
  void set_app_context(void* ctx) { app_context_ = ctx; }
  void* app_context() const { return app_context_; }

  size_t num_activations() const { return num_activations_.load(); }
  size_t num_workers() const { return executor_.num_threads(); }

  /// Message-fault injection hook applied inside Call. Always present;
  /// inactive (and nearly free) unless armed.
  MessageFaultInjector& msg_faults() { return msg_faults_; }

  /// Fail-stop kill of one activation: it is evicted from the directory (the
  /// next dispatch activates a fresh instance — Orleans reactivation), its
  /// `failed()` flag is set, and a final OnKill() turn is posted to its
  /// strand so it can fail pending waiters. Turns already queued keep
  /// running against the zombie instance; its gates reject them. Returns
  /// false if the actor had no live activation.
  bool KillActor(const ActorId& id);

  size_t num_kills() const { return num_kills_.load(); }

  /// Sheddable messages rejected by the bounded-mailbox check in Call.
  /// Every rejection surfaced a typed kOverloaded failure to its sender —
  /// the harness asserts shed work is never silently lost.
  size_t mailbox_rejections() const {
    return mailbox_rejections_.load(std::memory_order_relaxed);
  }

  /// Evicted (killed / crashed) activations still pinned for UAF safety.
  /// Bounded by kills per runtime lifetime; freed at Shutdown.
  size_t num_retired() const;

  /// Largest mailbox depth observed on any live actor's strand since it was
  /// activated — the bound the overload harness asserts against.
  size_t MaxMailboxDepth() const;

  /// Simulates losing all in-memory actor state (a silo crash): drops every
  /// activation. Subsequent calls re-activate fresh instances, which recover
  /// from the WAL (paper §4.2.5). Callers must quiesce in-flight work first.
  void CrashAllActors();

  /// Stops workers and timers. Pending turns are drained first.
  void Shutdown();

 private:
  /// A future pre-resolved with a typed kOverloaded error, returned from
  /// Call when the bounded-mailbox check sheds the message.
  template <typename T>
  Future<T> MakeOverloadedFuture(const ActorId& id) {
    auto state = MakeFutureState<T>();
    state->SetException(std::make_exception_ptr(StatusError(
        Status::Overloaded("mailbox full: actor " + id.ToString()))));
    return Future<T>(state);
  }

  Executor executor_;
  TimerService timers_;

  Mutex types_mu_;
  std::vector<std::function<std::shared_ptr<ActorBase>(uint64_t)>> factories_
      GUARDED_BY(types_mu_);
  std::vector<std::string> type_names_ GUARDED_BY(types_mu_);

  static constexpr size_t kShards = 64;
  struct Shard {
    Shard() { RegisterLockName(&mu, "ActorRuntime::Shard::mu"); }
    Mutex mu;
    std::unordered_map<ActorId, std::shared_ptr<ActorBase>, ActorIdHash> map
        GUARDED_BY(mu);
    /// Activation-generation counter per id: the k-th activation of an id
    /// has generation k (1-based). Never reset — survives kills and crashes,
    /// so an activation's identity (id, gen) is stable across record and
    /// replay regardless of global activation order.
    std::unordered_map<ActorId, uint64_t, ActorIdHash> gen GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Find-or-activate against live physical state (the untraced / record
  /// path, and the replay divergence fallback).
  std::shared_ptr<ActorBase> GetOrActivateLive(const ActorId& id, Shard& shard);
  /// Constructs activation `gen` of `id` and publishes it; returns the
  /// published activation (the racing winner on a lost race — same gen).
  std::shared_ptr<ActorBase> ConstructAndPublish(const ActorId& id,
                                                 Shard& shard, uint64_t gen);
  /// Replay path: resolves the *recorded* activation generation — waiting
  /// out not-yet-replayed kills, or digging a retired zombie out — so a
  /// replayed dispatch reaches the same instance the recorded one did.
  std::shared_ptr<ActorBase> ReplayActivation(const ActorId& id, Shard& shard,
                                              uint64_t want);

  /// Evicted (killed / crashed) activations, kept allocated until Shutdown:
  /// in-flight coroutine frames hold plain `this` references to their actor,
  /// so freeing a zombie while its strand still has queued turns would be a
  /// use-after-free. The gates behind failed() keep zombies inert; this list
  /// just pins their storage. Bounded by kills per runtime lifetime.
  mutable Mutex retired_mu_;
  std::vector<std::shared_ptr<ActorBase>> retired_ GUARDED_BY(retired_mu_);

  MessageFaultInjector msg_faults_;
  std::atomic<size_t> num_activations_{0};
  std::atomic<size_t> num_kills_{0};
  std::atomic<size_t> mailbox_rejections_{0};
  size_t mailbox_capacity_ = 0;  // copied from Options at construction
  void* app_context_ = nullptr;
};

}  // namespace snapper
