#include "common/trace_hooks.h"

#include <atomic>

namespace snapper::trace {

namespace {

std::atomic<Hooks*> g_hooks{nullptr};

/// Bumped on every non-null InstallHooks. Work pinned under an older value
/// (leaked runtimes, stale timer chains) is treated as unattributed.
std::atomic<uint64_t> g_session_gen{0};

/// Per-thread trace context. id == 0 means unattributed.
struct TlsCtx {
  uint64_t id = 0;
  uint64_t seq = 0;
};
thread_local TlsCtx tls_ctx;

/// Unattributed draws get unique ids (flagged) so record and replay both
/// recognize them and keep them out of the trace instead of silently
/// colliding with attributed contexts.
std::atomic<uint64_t> g_unattributed{1};

constexpr uint64_t kFlagMask = kTimerCtxBit | kUnattributedCtxBit;

// Derivation salts: one per draw kind, so a continuation, a timer callback,
// a future id and a turn context derived from the same (id, seq) never
// collide.
constexpr uint64_t kSaltThread = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSaltCont = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kSaltTimer = 0x94d049bb133111ebull;
constexpr uint64_t kSaltFuture = 0xd6e8feb86659fd93ull;
constexpr uint64_t kSaltTurn = 0xa0761d6478bd642full;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// True when the calling thread's draws should carry real identity: it has
/// a context, and that context is not itself an unattributed-lineage one
/// (a scope entered from an unattributed draw must stay unattributed, or
/// the flag would wash out after one derivation).
bool AttributedTls() {
  return tls_ctx.id != 0 && !IsUnattributedCtx(tls_ctx.id);
}

uint64_t DrawCtx(uint64_t salt) {
  if (!AttributedTls()) {
    // Unattributed thread: unique flagged root, fresh per draw.
    const uint64_t root =
        kUnattributedCtxBit |
        (SplitMix(g_unattributed.fetch_add(1, std::memory_order_relaxed)) &
         ~kFlagMask);
    return MixCtx(root, 0, salt) | kUnattributedCtxBit;
  }
  return MixCtx(tls_ctx.id, tls_ctx.seq++, salt);
}

}  // namespace

void InstallHooks(Hooks* hooks) {
  if (hooks != nullptr) {
    g_session_gen.fetch_add(1, std::memory_order_acq_rel);
  }
  g_hooks.store(hooks, std::memory_order_release);
}

uint64_t SessionGen() {
  return g_session_gen.load(std::memory_order_acquire);
}

bool TagIsCurrent(const TurnTag& tag) { return tag.gen == SessionGen(); }

Hooks* GetHooks() { return g_hooks.load(std::memory_order_acquire); }

bool Active() { return GetHooks() != nullptr; }

bool Replaying() {
  Hooks* h = GetHooks();
  return h != nullptr && h->replaying();
}

uint64_t MixCtx(uint64_t a, uint64_t b, uint64_t salt) {
  uint64_t m = SplitMix(a ^ SplitMix(b ^ salt)) & ~kFlagMask;
  return m != 0 ? m : 1;
}

void RegisterThread(const std::string& name) {
  uint64_t h = HashBytes(name.data(), name.size());
  tls_ctx.id = MixCtx(h, 0, kSaltThread);
  tls_ctx.seq = 0;
  if (Hooks* hooks = GetHooks()) hooks->OnThreadRoot(tls_ctx.id, name);
}

void UnregisterThread() {
  tls_ctx.id = 0;
  tls_ctx.seq = 0;
}

uint64_t CurrentCtx() { return tls_ctx.id; }

TurnTag NextPostTag() {
  if (!Active()) return {};
  const uint64_t gen = SessionGen();
  if (!AttributedTls()) {
    const uint64_t root =
        kUnattributedCtxBit |
        (SplitMix(g_unattributed.fetch_add(1, std::memory_order_relaxed)) &
         ~kFlagMask);
    return {root, 0, gen};
  }
  return {tls_ctx.id, tls_ctx.seq++, gen};
}

uint64_t TurnCtx(const TurnTag& tag) {
  // Unattributed lineage survives the turn boundary: the body of an
  // unattributed turn draws unattributed children, so the whole subtree
  // stays invisible. (The timer bit is deliberately *not* propagated — a
  // timer turn's body is ordinary recorded work.)
  return MixCtx(tag.ctx, tag.seq, kSaltTurn) |
         (tag.ctx & kUnattributedCtxBit);
}

uint64_t DeriveCtx() { return DrawCtx(kSaltCont); }

uint64_t DeriveTimerCtx() { return DrawCtx(kSaltTimer) | kTimerCtxBit; }

uint64_t NewFutureId() {
  if (!Active()) return 0;
  return DrawCtx(kSaltFuture);
}

CtxScope::CtxScope(uint64_t ctx)
    : saved_id_(tls_ctx.id), saved_seq_(tls_ctx.seq) {
  tls_ctx.id = ctx;
  tls_ctx.seq = 0;
}

CtxScope::~CtxScope() {
  tls_ctx.id = saved_id_;
  tls_ctx.seq = saved_seq_;
}

Pin PinContinuation() {
  if (!Active()) return {};
  return {DeriveCtx(), SessionGen()};
}

std::function<void()> WrapContinuation(std::function<void()> fn) {
  const Pin pin = PinContinuation();
  if (pin.ctx == 0) return fn;
  return [pin, fn = std::move(fn)]() { RunPinned(pin, fn); };
}

uint64_t DecisionU64(Site site, uint64_t physical) {
  Hooks* h = GetHooks();
  if (h == nullptr) return physical;
  // ctx 0 (an unscoped but legitimate thread, e.g. an Env callback) is a
  // valid key: such draws arrive in a deterministic per-site order, so they
  // record and replay like any other. Only flagged (stale/unattributed)
  // contexts are filtered, by the session itself.
  return h->OnDecision(site, CurrentCtx(), physical);
}

bool DecisionBool(Site site, bool physical) {
  return DecisionU64(site, physical ? 1 : 0) != 0;
}

bool TrySetAllowed(uint64_t future_id) {
  if (future_id == 0) return true;
  Hooks* h = GetHooks();
  if (h == nullptr || !h->replaying()) return true;
  return h->OnTrySet(future_id, CurrentCtx());
}

void TrySetOutcome(uint64_t future_id, bool won) {
  if (future_id == 0) return;
  Hooks* h = GetHooks();
  if (h == nullptr || h->replaying()) return;
  h->OnTrySetOutcome(future_id, CurrentCtx(), won);
}

bool ForceSuspend() { return Active(); }

bool PostIntercepted(Strand* strand, const TurnTag& tag,
                     std::function<void()>* fn) {
  Hooks* h = GetHooks();
  if (h == nullptr) return false;
  // A tag drawn under a previous session (leaked runtime still posting) is
  // not part of this session's schedule — let the strand enqueue normally.
  if (!TagIsCurrent(tag)) return false;
  return h->OnPost(strand, tag, fn);
}

void NameStrand(uint64_t strand_id, const std::string& name) {
  if (strand_id == 0) return;
  if (Hooks* h = GetHooks()) h->OnStrandBind(strand_id, name);
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace snapper::trace
