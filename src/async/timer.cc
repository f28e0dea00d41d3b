#include "async/timer.h"

#include <vector>

namespace snapper {

TimerService::TimerService() : thread_([this] { Loop(); }) {}

TimerService::~TimerService() { Stop(); }

TimerId TimerService::Schedule(std::chrono::microseconds delay,
                               std::function<void()> fn) {
  if (trace::Active()) {
    // Pin the callback to a timer-flagged context derived from the
    // scheduling context: its draws (and post tags) are then deterministic,
    // and the replayer can recognize firings the recorded run never saw.
    // The pin is only valid for the session it was derived under — a timer
    // chain surviving into a later session (leaked runtime) must run
    // unattributed, not impersonate a context the new session may derive.
    const uint64_t ctx = trace::DeriveTimerCtx();
    const uint64_t gen = trace::SessionGen();
    fn = [ctx, gen, fn = std::move(fn)]() {
      // Flag-scoped when stale, so draws inside are visibly unattributed
      // rather than colliding with legitimate unscoped (ctx 0) work.
      trace::CtxScope scope(trace::SessionGen() == gen
                                ? ctx
                                : trace::kUnattributedCtxBit);
      fn();
    };
  }
  const auto deadline = Clock::now() + delay;
  TimerId id;
  {
    MutexLock lock(&mu_);
    if (stopping_) return 0;
    id = next_id_++;
    timers_.emplace(id, Entry{deadline, std::move(fn)});
    by_deadline_.emplace(deadline, id);
  }
  cv_.NotifyOne();
  return id;
}

bool TimerService::Cancel(TimerId id) {
  // During replay every timer fires: whether a recorded cancel (e.g. "result
  // beat the watchdog") happens again depends on wall-clock timing, and a
  // fired-but-recorded-cancelled timer is harmless — its turns are dropped
  // as unrecorded and its TrySets vetoed by the gate. Cancelling here could
  // instead starve a *recorded* timeout path of its firing.
  if (trace::Replaying()) return false;
  MutexLock lock(&mu_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  auto range = by_deadline_.equal_range(it->second.deadline);
  for (auto dit = range.first; dit != range.second; ++dit) {
    if (dit->second == id) {
      by_deadline_.erase(dit);
      break;
    }
  }
  timers_.erase(it);
  return true;
}

void TimerService::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void TimerService::Loop() {
  MutexLock lock(&mu_);
  for (;;) {
    if (stopping_) return;
    if (by_deadline_.empty()) {
      cv_.Wait(mu_);
      continue;
    }
    const auto next = by_deadline_.begin()->first;
    if (Clock::now() < next) {
      cv_.WaitUntil(mu_, next);
      continue;
    }
    // Collect everything due, release the lock, fire.
    std::vector<std::function<void()>> due;
    const auto now = Clock::now();
    while (!by_deadline_.empty() && by_deadline_.begin()->first <= now) {
      TimerId id = by_deadline_.begin()->second;
      by_deadline_.erase(by_deadline_.begin());
      auto it = timers_.find(id);
      if (it != timers_.end()) {
        due.push_back(std::move(it->second.fn));
        timers_.erase(it);
      }
    }
    lock.Unlock();
    for (auto& fn : due) fn();
    lock.Lock();
  }
}

}  // namespace snapper
