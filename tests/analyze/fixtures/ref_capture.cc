// snapper_analyze fixture: ref-capture-coro.
// Seeded violations carry EXPECT-ANALYZE markers on the reported (introducer)
// line; everything unmarked must stay silent. Fixtures are never compiled.
#include "async/task.h"

namespace fixture_ref_capture {

struct Widget {
  int value_ = 0;

  void Spawn() {
    // Bad: by-reference capture in a lambda coroutine — the frame suspends
    // and outlives this scope.
    auto bad1 = [&]() -> Task<void> {  // EXPECT-ANALYZE: ref-capture-coro
      co_return;
    };

    int local = 1;
    auto bad2 = [&local]() -> Task<int> {  // EXPECT-ANALYZE: ref-capture-coro
      co_return local;
    };

    // Bad: `this` capture in a coroutine lambda; the Widget may die before
    // the first resumption.
    auto bad3 = [this]() -> Task<int> {  // EXPECT-ANALYZE: ref-capture-coro
      co_return value_;
    };

    // OK: by-value captures.
    auto ok1 = [local]() -> Task<int> { co_return local; };

    // OK: `*this` copies the object into the frame.
    auto ok2 = [*this]() -> Task<int> { co_return value_; };

    // OK: by-ref capture in a plain (non-coroutine) lambda that runs
    // synchronously.
    auto ok3 = [&local]() { return local + 1; };

    // OK: init-capture moves ownership into the frame.
    auto ok4 = [v = value_]() -> Task<int> { co_return v; };

    (void)bad1;
    (void)bad2;
    (void)bad3;
    (void)ok1;
    (void)ok2;
    (void)ok3;
    (void)ok4;
  }
};

}  // namespace fixture_ref_capture
