// Per-thread recycling allocator for coroutine frames and future states.
//
// Every actor message hop allocates a Task frame, a FutureState and a strand
// mailbox node, and the hop usually ends on a different worker from the one
// that started it, so
// the block is freed on a thread that did not allocate it. glibc's
// per-thread bins hold only a few blocks per size; once they fill, those
// frees fall through to its locked arena paths. This pool keeps a bounded
// free list per 32-byte size class on each thread instead. A block freed on
// a thread is cached there and serves that thread's next allocation of the
// same class; nothing is handed back across threads.
//
// Bounds are constants: requests above kMaxBytes, and frees that find their
// class already holding kMaxCachedPerClass blocks, go straight to the global
// heap. At thread exit the cache hands its blocks back to the heap, and any
// later free on that thread bypasses the pool.
//
// Under AddressSanitizer a cached block is poisoned, so a use-after-free of
// a recycled frame is reported while the block sits in the cache. Only its
// last word, the free-list link, stays readable: LeakSanitizer does not scan
// poisoned memory, and would report every block behind a poisoned link as
// leaked while its thread is alive. An ASan build also hands out a fresh
// block in place of a cached one (the cached block goes to ASan's
// quarantine): LeakSanitizer names a leak by the block's allocation stack,
// and scripts/lsan.supp recognizes the frames that crash tests abandon by
// the coroutine that allocated them.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SNAPPER_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SNAPPER_FRAME_POOL_ASAN 1
#endif
#endif

namespace snapper::frame_pool {

inline constexpr size_t kClassBytes = 32;
inline constexpr size_t kMaxBytes = 2048;
inline constexpr size_t kNumClasses = kMaxBytes / kClassBytes;
inline constexpr size_t kMaxCachedPerClass = 128;

namespace internal {

inline size_t ClassOf(size_t n) {
  return n == 0 ? 0 : (n - 1) / kClassBytes;
}
inline size_t BlockBytes(size_t cls) { return (cls + 1) * kClassBytes; }

/// Bytes of a cached block that are poisoned: all but the link.
inline size_t PoisonedBytes(size_t cls) {
  return BlockBytes(cls) - sizeof(void*);
}

/// The free-list link of a cached block, in its last word.
inline void*& LinkOf(void* block, size_t cls) {
  return *reinterpret_cast<void**>(static_cast<char*>(block) +
                                   PoisonedBytes(cls));
}

struct FreeList {
  void* head = nullptr;
  size_t count = 0;
};

enum class CacheState : unsigned char { kUnused, kLive, kReleased };

/// Trivially destructible, so it stays readable for the whole thread exit,
/// including after the releaser below has run.
struct ThreadCache {
  FreeList lists[kNumClasses];
  CacheState state = CacheState::kUnused;
};
inline thread_local ThreadCache tls_cache;

/// Hands the thread's cached blocks back to the heap at thread exit. Its
/// destructor is registered when the thread caches its first block.
struct CacheReleaser {
  bool armed = false;
  ~CacheReleaser() {
    ThreadCache& tc = tls_cache;
    tc.state = CacheState::kReleased;
    for (size_t c = 0; c < kNumClasses; ++c) {
      FreeList& fl = tc.lists[c];
      while (fl.head != nullptr) {
        void* p = fl.head;
        fl.head = LinkOf(p, c);
        ASAN_UNPOISON_MEMORY_REGION(p, PoisonedBytes(c));
        ::operator delete(p);
      }
      fl.count = 0;
    }
  }
};
inline thread_local CacheReleaser tls_releaser;

}  // namespace internal

/// Returns at least `n` bytes, aligned for any fundamental type.
inline void* Allocate(size_t n) {
  if (n > kMaxBytes) return ::operator new(n);
  const size_t cls = internal::ClassOf(n);
  internal::FreeList& fl = internal::tls_cache.lists[cls];
  if (fl.head == nullptr) return ::operator new(internal::BlockBytes(cls));
  void* p = fl.head;
  fl.head = internal::LinkOf(p, cls);
  ASAN_UNPOISON_MEMORY_REGION(p, internal::PoisonedBytes(cls));
  --fl.count;
#ifdef SNAPPER_FRAME_POOL_ASAN
  ::operator delete(p);
  p = ::operator new(internal::BlockBytes(cls));
#endif
  return p;
}

/// Frees a block from Allocate(`n`), on any thread.
inline void Deallocate(void* p, size_t n) noexcept {
  if (n > kMaxBytes) {
    ::operator delete(p);
    return;
  }
  const size_t cls = internal::ClassOf(n);
  internal::ThreadCache& tc = internal::tls_cache;
  internal::FreeList& fl = tc.lists[cls];
  if (fl.count == kMaxCachedPerClass ||
      tc.state == internal::CacheState::kReleased) {
    ::operator delete(p);
    return;
  }
  if (tc.state == internal::CacheState::kUnused) {
    tc.state = internal::CacheState::kLive;
    internal::tls_releaser.armed = true;
  }
  internal::LinkOf(p, cls) = fl.head;
  ASAN_POISON_MEMORY_REGION(p, internal::PoisonedBytes(cls));
  fl.head = p;
  ++fl.count;
}

/// Blocks the calling thread holds cached for requests of `n` bytes (0 for
/// oversize requests and after the thread's cache was released).
inline size_t CachedBlocks(size_t n) {
  if (n > kMaxBytes) return 0;
  return internal::tls_cache.lists[internal::ClassOf(n)].count;
}

/// Standard allocator over the pool, for std::allocate_shared.
template <typename T>
struct Allocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pool blocks carry operator new's default alignment");
  using value_type = T;

  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}

  T* allocate(size_t n) { return static_cast<T*>(Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { Deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const Allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace snapper::frame_pool
