// snapper_analyze fixture: lock-across-await and self-deadlock.
//
// lock-across-await: a lock live at a co_await, whether a MutexLock or a std
// RAII guard. The coroutine may resume on another thread, where a std mutex
// must not unlock, and the held lock is an unordered edge against everything
// the resuming executor acquires — it can close a lock-order cycle no
// syntactic nesting shows. Marker sits on the co_await line.
//
// self-deadlock: snapper::Mutex is non-recursive; re-acquiring the same
// expression with the first hold still live blocks forever. Marker sits on
// the second acquisition.
#include <mutex>

#include "async/task.h"
#include "common/mutex.h"

namespace fixture_await {

struct AwaitGuard {
  Mutex gmu_;
  std::mutex raw_mu_;
  int value_ GUARDED_BY(gmu_) = 0;
  int raw_value_ = 0;  // guarded by raw_mu_

  Task<void> TickAwait();

  Task<void> BadHoldAcrossAwait() {
    MutexLock lock(&gmu_);
    value_++;
    co_await TickAwait();  // EXPECT-ANALYZE: lock-across-await
    value_++;
  }

  // A std guard stays outside the lock graph, but it is still held at an
  // await in a nested scope.
  Task<void> BadStdGuardNestedScope() {
    std::lock_guard<std::mutex> guard(raw_mu_);
    if (raw_value_ > 0) {
      co_await TickAwait();  // EXPECT-ANALYZE: lock-across-await
    }
  }

  Task<void> BadScopedLockBraceInit() {
    std::scoped_lock guard{raw_mu_};
    co_await TickAwait();  // EXPECT-ANALYZE: lock-across-await
  }

  Task<void> BadRearmedAfterRelock() {
    MutexLock lock(&gmu_);
    lock.Unlock();
    lock.Lock();
    co_await TickAwait();  // EXPECT-ANALYZE: lock-across-await
  }

  Task<void> GoodReleaseBeforeAwait() {
    {
      MutexLock lock(&gmu_);
      value_++;
    }
    co_await TickAwait();
    MutexLock lock(&gmu_);
    value_++;
  }

  Task<void> GoodExplicitUnlock() {
    MutexLock lock(&gmu_);
    value_++;
    lock.Unlock();
    co_await TickAwait();
  }

  Task<void> GoodStdUnlockBeforeAwait() {
    std::unique_lock<std::mutex> lock(raw_mu_);
    raw_value_++;
    lock.unlock();
    co_await TickAwait();
  }

  void GoodStdLockNoCoroutine() {
    std::unique_lock<std::mutex> lock(raw_mu_);
    raw_value_++;
  }

  void BadDoubleLock() {
    MutexLock outer(&gmu_);
    MutexLock inner(&gmu_);  // EXPECT-ANALYZE: self-deadlock
    value_ += 2;
  }

  // The timer-loop idiom: explicit Unlock before re-Lock is not a
  // self-deadlock.
  void GoodUnlockRelock() {
    MutexLock lock(&gmu_);
    value_++;
    lock.Unlock();
    lock.Lock();
    value_++;
  }
};

}  // namespace fixture_await
