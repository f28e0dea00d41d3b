// TimerService: a dedicated thread firing scheduled callbacks. Used for the
// hybrid-execution deadlock breaker (§4.4.2 timeout mechanism), OrleansTxn's
// lock-wait timeouts, and bench epoch pacing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>

#include "async/future.h"
#include "common/mutex.h"
#include "common/status.h"

namespace snapper {

/// Handle for cancelling a scheduled timer. 0 is never a valid id.
using TimerId = uint64_t;

class TimerService {
 public:
  TimerService();
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Runs `fn` on the timer thread after `delay` (milliseconds and other
  /// coarser durations convert implicitly). `fn` must be cheap and
  /// thread-safe (typically: resolve a promise, whose continuations post to
  /// strands).
  TimerId Schedule(std::chrono::microseconds delay, std::function<void()> fn);

  /// Best-effort cancel; returns true if the timer had not fired yet.
  bool Cancel(TimerId id);

  /// Stops the thread; pending timers are dropped. Idempotent.
  void Stop();

 private:
  void Loop();

  using Clock = std::chrono::steady_clock;
  struct Entry {
    Clock::time_point deadline;
    std::function<void()> fn;
  };

  Mutex mu_;
  CondVar cv_;
  // by id, for cancel
  std::map<TimerId, Entry> timers_ GUARDED_BY(mu_);
  std::multimap<Clock::time_point, TimerId> by_deadline_ GUARDED_BY(mu_);
  TimerId next_id_ GUARDED_BY(mu_) = 1;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// Races `f` against a timeout: the result future resolves with `f`'s value
/// if it arrives in time, otherwise with `fallback`. First-wins; the loser's
/// resolution is discarded. An *exceptional* resolution of `f` also maps to
/// `fallback`: the 2PC and cleanup paths that use this treat "no answer",
/// "timed out", and "errored" identically (conservative vote-no / proceed).
/// `on_timeout`, if set, runs only when the timer decided the result.
template <typename T>
Future<T> AwaitWithFallback(TimerService& timers, Future<T> f,
                            std::chrono::milliseconds timeout,
                            WrapVoid<T> fallback,
                            std::function<void()> on_timeout = nullptr) {
  // Fast path: already resolved (uncontended locks, empty schedules) — no
  // timer bookkeeping, and a value needs no fresh state. Disabled under
  // tracing: whether ready() is observed true here is timing-sensitive, and
  // returning `f` itself (no fresh state) would desynchronize the record
  // and replay runs' context draws.
  if (!trace::Active() && f.ready()) {
    if (!f.state()->has_exception()) return f;
    auto state = MakeFutureState<T>();
    state->TrySet(fallback);
    return Future<T>(state);
  }
  auto state = MakeFutureState<T>();
  TimerId id = timers.Schedule(
      timeout, [state, fallback, on_timeout = std::move(on_timeout)]() {
        if (state->TrySet(fallback) && on_timeout) on_timeout();
      });
  f.OnReady([state, f, &timers, id, fallback]() {
    bool won;
    try {
      won = state->TrySet(f.Peek());
    } catch (...) {
      won = state->TrySet(fallback);
    }
    if (won) timers.Cancel(id);
  });
  return Future<T>(state);
}

/// AwaitWithFallback for status waits: Status::TimedOut if `f` does not
/// resolve within `timeout`.
inline Future<Status> AwaitStatusWithTimeout(
    TimerService& timers, Future<Status> f,
    std::chrono::milliseconds timeout) {
  return AwaitWithFallback<Status>(timers, std::move(f), timeout,
                                   Status::TimedOut("wait timed out"));
}

}  // namespace snapper
