#include "async/frame_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "async/future.h"
#include "async/task.h"

#ifdef SNAPPER_FRAME_POOL_ASAN
#include <sanitizer/lsan_interface.h>
#endif

namespace snapper::frame_pool {
namespace {

// Each test drives the pool from a fresh thread, so its cache starts empty
// whatever earlier tests left on the main thread.
template <typename F>
void RunOnThread(F fn) {
  std::thread t(fn);
  t.join();
}

size_t TotalCached() {
  size_t total = 0;
  for (size_t n = kClassBytes; n <= kMaxBytes; n += kClassBytes) {
    total += CachedBlocks(n);
  }
  return total;
}

// An allocation served from the cache. ASan builds hand out a fresh block
// in place of the cached one (see frame_pool.h), so only other builds can
// compare addresses; the cache counts hold in both.
void ExpectCachedBlock(void* got, void* cached) {
#ifndef SNAPPER_FRAME_POOL_ASAN
  EXPECT_EQ(got, cached);
#else
  (void)got;
  (void)cached;
#endif
}

TEST(FramePoolTest, FreedBlockServesNextAllocationOnSameThread) {
  RunOnThread([] {
    void* p = Allocate(100);
    Deallocate(p, 100);
    EXPECT_EQ(CachedBlocks(100), 1u);
    void* q = Allocate(100);
    ExpectCachedBlock(q, p);
    EXPECT_EQ(CachedBlocks(100), 0u);
    // Any request in the same 32-byte class gets the block.
    Deallocate(q, 100);
    void* r = Allocate(128);
    ExpectCachedBlock(r, q);
    EXPECT_EQ(CachedBlocks(128), 0u);
    Deallocate(r, 128);
    EXPECT_EQ(CachedBlocks(129), 0u);
  });
}

TEST(FramePoolTest, BlockFreedOnAnotherThreadIsCachedThere) {
  RunOnThread([] {
    void* p = Allocate(200);
    std::thread other([p] {
      Deallocate(p, 200);
      EXPECT_EQ(CachedBlocks(200), 1u);
      void* q = Allocate(200);
      ExpectCachedBlock(q, p);
      EXPECT_EQ(CachedBlocks(200), 0u);
      Deallocate(q, 200);
    });
    other.join();
    EXPECT_EQ(CachedBlocks(200), 0u);
  });
}

TEST(FramePoolTest, PerClassCapHoldsAndOverflowGoesToTheHeap) {
  RunOnThread([] {
    std::vector<void*> blocks;
    for (size_t i = 0; i < kMaxCachedPerClass + 10; ++i) {
      blocks.push_back(Allocate(64));
    }
    for (void* b : blocks) Deallocate(b, 64);
    EXPECT_EQ(CachedBlocks(64), kMaxCachedPerClass);
    EXPECT_EQ(TotalCached(), kMaxCachedPerClass);
    // The cache kept the first kMaxCachedPerClass frees; the last one of
    // those is the next block out.
    void* p = Allocate(64);
    ExpectCachedBlock(p, blocks[kMaxCachedPerClass - 1]);
    EXPECT_EQ(CachedBlocks(64), kMaxCachedPerClass - 1);
    Deallocate(p, 64);
  });
}

TEST(FramePoolTest, OversizeRequestsBypassThePool) {
  RunOnThread([] {
    void* big = Allocate(kMaxBytes + 1);
    Deallocate(big, kMaxBytes + 1);
    EXPECT_EQ(TotalCached(), 0u);
    void* largest = Allocate(kMaxBytes);
    Deallocate(largest, kMaxBytes);
    EXPECT_EQ(CachedBlocks(kMaxBytes), 1u);
  });
}

std::atomic<size_t> late_free_cached{~size_t{0}};

// Constructed before the thread's cache is armed, so it is destroyed after
// the cache has handed its blocks back to the heap.
struct LateFree {
  void* block = nullptr;
  ~LateFree() {
    if (block == nullptr) return;
    Deallocate(block, 96);
    late_free_cached.store(CachedBlocks(96));
  }
};

TEST(FramePoolTest, FreeAfterThreadCacheReleasedBypassesThePool) {
  RunOnThread([] {
    thread_local LateFree late;
    Deallocate(Allocate(96), 96);  // arms the cache's release at exit
    late.block = Allocate(96);
  });
  EXPECT_EQ(late_free_cached.load(), 0u);
}

Task<int> Identity(int v) { co_return v; }

TEST(FramePoolTest, TaskFramesAndFutureStatesComeFromThePool) {
  RunOnThread([] {
    { auto state = MakeFutureState<int>(); }
    EXPECT_EQ(TotalCached(), 1u);
    // An unstarted task frees its frame and its state.
    { auto task = Identity(1); }
    // The task's state reused the cached block; frame and state are both
    // cached again.
    EXPECT_EQ(TotalCached(), 2u);
  });
}

TEST(FramePoolTest, CachedBlockIsPoisonedUnderAsan) {
#ifndef SNAPPER_FRAME_POOL_ASAN
  GTEST_SKIP() << "AddressSanitizer build only";
#else
  RunOnThread([] {
    auto* p = static_cast<char*>(Allocate(128));
    EXPECT_EQ(__asan_region_is_poisoned(p, 128), nullptr);
    Deallocate(p, 128);
    // All but the last word, which links the free list.
    constexpr size_t kPoisoned = 128 - sizeof(void*);
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_TRUE(__asan_address_is_poisoned(p + kPoisoned - 1));
    EXPECT_FALSE(__asan_address_is_poisoned(p + kPoisoned));
    // Taking it out of the cache frees it to ASan's quarantine, so a stale
    // access is still reported; the block handed out is addressable.
    auto* q = static_cast<char*>(Allocate(128));
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_EQ(__asan_region_is_poisoned(q, 128), nullptr);
    Deallocate(q, 128);
  });
#endif
}

// A leak check that runs while a thread is alive must see every block that
// thread has cached as reachable.
TEST(FramePoolTest, CachedBlocksStayReachableForLeakChecks) {
#ifndef SNAPPER_FRAME_POOL_ASAN
  GTEST_SKIP() << "AddressSanitizer build only";
#else
  std::atomic<bool> cached{false};
  std::atomic<bool> stop{false};
  std::thread holder([&cached, &stop] {
    void* blocks[4];
    for (void*& b : blocks) b = Allocate(256);
    for (void* b : blocks) Deallocate(b, 256);
    cached.store(true);
    while (!stop.load()) std::this_thread::yield();
  });
  while (!cached.load()) std::this_thread::yield();
  EXPECT_EQ(__lsan_do_recoverable_leak_check(), 0);
  stop.store(true);
  holder.join();
#endif
}

}  // namespace
}  // namespace snapper::frame_pool
