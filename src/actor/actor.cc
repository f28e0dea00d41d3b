#include "actor/actor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace snapper {

namespace internal {
void StrandCheckFailed(const char* what, const std::string& actor_id) {
  std::fprintf(stderr,
               "SNAPPER_DCHECK_ON_STRAND violation: %s on actor %s called "
               "off its owning strand\n",
               what, actor_id.c_str());
  std::fflush(stderr);
  std::abort();
}
}  // namespace internal

ActorRuntime::ActorRuntime(Options options)
    : executor_(options.num_workers),
      mailbox_capacity_(options.mailbox_capacity) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  RegisterLockName(&retired_mu_, "ActorRuntime::retired_mu_");
}

ActorRuntime::~ActorRuntime() { Shutdown(); }

uint32_t ActorRuntime::RegisterType(
    std::string name,
    std::function<std::shared_ptr<ActorBase>(uint64_t)> factory) {
  MutexLock lock(&types_mu_);
  factories_.push_back(std::move(factory));
  type_names_.push_back(std::move(name));
  return static_cast<uint32_t>(factories_.size() - 1);
}

namespace {
// Salts for (ActorIdHash, generation)-derived trace identities, so an
// activation's construction context, strand id and OnActivate turn tag are
// pure functions of *which activation* it is — independent of which caller
// won the activation race, on record and replay alike.
constexpr uint64_t kSaltActivationCtx = 0x61637469;  // "acti"
constexpr uint64_t kSaltActorStrand = 0x73747264;    // "strd"
constexpr uint64_t kSaltOnActivate = 0x6f6e6163;     // "onac"
}  // namespace

std::shared_ptr<ActorBase> ActorRuntime::GetOrActivate(const ActorId& id) {
  Shard& shard = *shards_[ActorIdHash()(id) % kShards];
  if (!trace::Replaying()) {
    auto actor = GetOrActivateLive(id, shard);
    if (trace::Active()) {
      // Record which activation this dispatch observed; replay routes the
      // same dispatch to the same (id, gen) instance — live or zombie.
      trace::DecisionU64(trace::Site::kActivateGen, actor->activation_gen_);
    }
    return actor;
  }
  const uint64_t want = trace::DecisionU64(trace::Site::kActivateGen, 0);
  if (want == 0) return GetOrActivateLive(id, shard);  // underrun: free-run
  return ReplayActivation(id, shard, want);
}

std::shared_ptr<ActorBase> ActorRuntime::GetOrActivateLive(const ActorId& id,
                                                           Shard& shard) {
  for (;;) {
    uint64_t gen;
    {
      MutexLock lock(&shard.mu);
      auto it = shard.map.find(id);
      if (it != shard.map.end()) return it->second;
      gen = shard.gen[id] + 1;
    }
    auto actor = ConstructAndPublish(id, shard, gen);
    if (actor != nullptr) return actor;
    // Candidate generation was consumed by a racing activate/kill cycle
    // while we constructed — re-resolve against current state.
  }
}

std::shared_ptr<ActorBase> ActorRuntime::ConstructAndPublish(const ActorId& id,
                                                             Shard& shard,
                                                             uint64_t gen) {
  // Construct outside the shard lock (factories may be heavy), then publish;
  // the loser of a racing double-activation is discarded before first use.
  std::function<std::shared_ptr<ActorBase>(uint64_t)> factory;
  {
    MutexLock lock(&types_mu_);
    assert(id.type < factories_.size() && "unregistered actor type");
    factory = factories_[id.type];
  }
  const uint64_t id_hash = ActorIdHash()(id);
  std::shared_ptr<ActorBase> actor;
  if (trace::Active()) {
    // Pin construction-time draws (futures created in member initializers)
    // to a context derived from the activation identity, not the caller —
    // unless the caller itself is unattributed (stale turn of a leaked
    // runtime): the pure-data activation context would re-attribute work
    // the session must not see.
    const uint64_t cur = trace::CurrentCtx();
    const bool attributed = cur != 0 && !trace::IsUnattributedCtx(cur);
    trace::CtxScope scope(
        attributed ? trace::MixCtx(id_hash, gen, kSaltActivationCtx) : cur);
    actor = factory(id.key);
  } else {
    actor = factory(id.key);
  }
  actor->id_ = id;
  actor->runtime_ = this;
  actor->activation_gen_ = gen;
  actor->strand_ = std::make_shared<Strand>(&executor_);
  // Digest binding is unconditional (near-free): RunDigest is only invoked
  // at turn boundaries while a trace session is attached. The raw pointer is
  // safe — evicted activations stay pinned in retired_ until Shutdown, after
  // the executor stops running turns.
  actor->strand_->set_digest_fn(
      [p = actor.get()]() { return p->StateDigest(); });
  if (trace::Active()) {
    const uint64_t strand_id = trace::MixCtx(id_hash, gen, kSaltActorStrand);
    actor->strand_->set_trace_id(strand_id);
    trace::NameStrand(strand_id, id.ToString() + "#" + std::to_string(gen));
  }
  {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) return it->second;
    uint64_t& g = shard.gen[id];
    if (g >= gen) return nullptr;  // candidate stale: an activate/kill cycle
                                   // consumed it while we constructed
    g = gen;
    shard.map.emplace(id, actor);
  }
  num_activations_.fetch_add(1);
  if (trace::Active()) {
    // The activation turn's identity is (id, gen)-derived for the same
    // reason as the strand id: either racer may end up publishing.
    actor->strand_->PostTagged(
        [actor]() { actor->OnActivate(); },
        trace::TurnTag{trace::MixCtx(id_hash, gen, kSaltOnActivate), 0,
                       trace::SessionGen()});
  } else {
    actor->strand_->Post([actor]() { actor->OnActivate(); });
  }
  return actor;
}

std::shared_ptr<ActorBase> ActorRuntime::ReplayActivation(const ActorId& id,
                                                          Shard& shard,
                                                          uint64_t want) {
  // SNAPPER-ANALYZE-ALLOW(nondet-clock): liveness watchdog only — the clock
  // bounds how long replay waits for the recorded activation before declaring
  // divergence and free-running; it never feeds replayed state or decisions.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  for (;;) {
    bool try_create = false;
    bool in_past = false;
    {
      MutexLock lock(&shard.mu);
      auto it = shard.map.find(id);
      if (it != shard.map.end()) {
        const uint64_t live = it->second->activation_gen_;
        if (live == want) return it->second;
        in_past = live > want;
        // live < want: the kill retiring `live` hasn't replayed yet; wait
        // for the harness (kills run off-turn, so this cannot self-deadlock
        // against the serial turn cursor).
      } else {
        const uint64_t next = shard.gen[id] + 1;
        if (next == want) {
          try_create = true;
        } else {
          in_past = next > want;
        }
      }
    }
    if (try_create) {
      auto actor = ConstructAndPublish(id, shard, want);
      if (actor != nullptr && actor->activation_gen_ == want) return actor;
      // SNAPPER-ANALYZE-ALLOW(nondet-clock): divergence-watchdog check only.
      if (std::chrono::steady_clock::now() >= deadline) break;
      continue;  // raced; re-resolve
    }
    if (in_past) {
      // The recorded dispatch reached an activation that has since been
      // killed: route to the zombie (its failed() gates keep it inert,
      // exactly as in the recorded run).
      MutexLock lock(&retired_mu_);
      for (auto rit = retired_.rbegin(); rit != retired_.rend(); ++rit) {
        if ((*rit)->id_ == id && (*rit)->activation_gen_ == want) {
          return *rit;
        }
      }
      // Not retired yet (eviction mid-publication) — wait and retry.
    }
    // SNAPPER-ANALYZE-ALLOW(nondet-clock): divergence-watchdog check only.
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Recorded activation never materialized — the run has diverged; fall back
  // to the live instance so replay free-runs rather than wedging.
  return GetOrActivateLive(id, shard);
}

bool ActorRuntime::KillActor(const ActorId& id) {
  Shard& shard = *shards_[ActorIdHash()(id) % kShards];
  std::shared_ptr<ActorBase> actor;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) return false;
    actor = std::move(it->second);
    shard.map.erase(it);
  }
  // Evicted first, flagged second: any dispatch racing the eviction either
  // reaches the zombie (whose gates check failed()) or activates a fresh
  // instance — never a half-dead hybrid.
  actor->failed_.store(true, std::memory_order_release);
  num_kills_.fetch_add(1);
  {
    MutexLock lock(&retired_mu_);
    retired_.push_back(actor);  // pin the zombie: frames hold raw `this`
  }
  actor->strand_->Post([actor]() { actor->OnKill(); });
  return true;
}

void ActorRuntime::CrashAllActors() {
  MutexLock retired_lock(&retired_mu_);
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (auto& [id, actor] : shard->map) {
      actor->failed_.store(true, std::memory_order_release);
      retired_.push_back(std::move(actor));
    }
    shard->map.clear();
  }
  num_activations_.store(0);
}

void ActorRuntime::Shutdown() {
  timers_.Stop();
  executor_.Stop();
  // Workers are parked: no frame can touch a zombie anymore.
  MutexLock lock(&retired_mu_);
  retired_.clear();
}

size_t ActorRuntime::num_retired() const {
  MutexLock lock(&retired_mu_);
  return retired_.size();
}

size_t ActorRuntime::MaxMailboxDepth() const {
  size_t max_depth = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (const auto& [id, actor] : shard->map) {
      max_depth = std::max(max_depth, actor->strand_->MaxQueueDepth());
    }
  }
  return max_depth;
}

}  // namespace snapper
