// Task<T>: the coroutine type for actor methods and internal async routines.
//
// A Task is created suspended; the runtime starts it on the owning actor's
// strand (`Start`), after which the frame is detached — it resumes only via
// future continuations and self-destructs at completion (final_suspend is
// suspend_never). Results flow through a FutureState shared with Future<T>
// handles, so callers on other strands/threads can await or block safely.
//
// `co_await someTask` (rvalue) runs the child inline on the current strand
// until its first suspension — the same semantics as awaiting a local async
// call in Orleans.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <memory>
#include <utility>

#include "async/executor.h"
#include "async/frame_pool.h"
#include "async/future.h"

namespace snapper {

namespace internal {

// A promise may declare return_value or return_void but never both; this
// CRTP base injects the right one for T vs void.
template <typename T, typename Promise>
struct TaskPromiseReturn {
  void return_value(T v) {
    static_cast<Promise*>(this)->state->Set(std::move(v));
  }
};

template <typename Promise>
struct TaskPromiseReturn<void, Promise> {
  void return_void() { static_cast<Promise*>(this)->state->Set(Unit{}); }
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  using value_type = T;
  using V = WrapVoid<T>;

  struct promise_type : internal::TaskPromiseReturn<T, promise_type> {
    // Frames come from the frame pool of the thread that creates the task
    // and go back to the one that finishes (or destroys) it.
    static void* operator new(std::size_t n) {
      return frame_pool::Allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      frame_pool::Deallocate(p, n);
    }

    std::shared_ptr<FutureState<T>> state = MakeFutureState<T>();

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this),
                  state);
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }

    void unhandled_exception() {
      state->SetException(std::current_exception());
    }
  };

  Task() = default;
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)),
        state_(std::move(other.state_)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyIfUnstarted();
      handle_ = std::exchange(other.handle_, nullptr);
      state_ = std::move(other.state_);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { DestroyIfUnstarted(); }

  /// Detaches the frame and schedules the first resume on `strand`.
  /// The task runs to completion on that strand (all of its awaits resume
  /// there); the returned future is the only way to observe the result.
  Future<T> Start(Strand& strand) {
    assert(handle_ && "Task already started or moved-from");
    auto h = std::exchange(handle_, nullptr);
    Future<T> f(state_);
    strand.Post([h]() { h.resume(); });
    return f;
  }

  /// Detaches and resumes immediately on the calling thread, which must be
  /// inside the intended strand. Runs until the first suspension point.
  Future<T> StartInline() {
    assert(handle_ && "Task already started or moved-from");
    assert(Strand::Current() != nullptr && "StartInline outside a strand");
    auto h = std::exchange(handle_, nullptr);
    Future<T> f(state_);
    h.resume();
    return f;
  }

  Future<T> GetFuture() const { return Future<T>(state_); }

  bool started() const { return handle_ == nullptr && state_ != nullptr; }

  /// Awaiting an rvalue Task: start the child inline on the current strand,
  /// suspend, and resume (on the same strand) when it completes.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      std::shared_ptr<FutureState<T>> st;

      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> parent) {
        Strand* cur = Strand::Current();
        assert(cur != nullptr && "co_await Task outside a strand");
        // Attach the continuation before starting the child so synchronous
        // completion still resumes the parent (via a posted turn).
        st->ResumeOnReady(cur->shared_from_this(), parent);
        child.resume();
      }
      V await_resume() {
        if constexpr (std::is_copy_constructible_v<V>) {
          return st->Get();
        } else {
          return st->Take();
        }
      }
    };
    auto h = std::exchange(handle_, nullptr);
    assert(h && "co_await on a started/moved Task");
    return Awaiter{h, state_};
  }

 private:
  Task(std::coroutine_handle<promise_type> handle,
       std::shared_ptr<FutureState<T>> state)
      : handle_(handle), state_(std::move(state)) {}

  void DestroyIfUnstarted() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
  std::shared_ptr<FutureState<T>> state_;
};

}  // namespace snapper
