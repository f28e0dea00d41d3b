// snapper_analyze fixture: discarded-task.
// Markers sit on the reported statement line. The rule keys off names
// declared with Task<...> / Future<...> return types anywhere in the
// analyzed program, so the declarations below are the corpus' "type
// information".
#include "async/future.h"
#include "async/task.h"

namespace fixture_discard {

Task<void> DoThing();
Future<int> FetchIt();

// `auto` return types: the rule reads a trailing return type, or else the
// body's return statements (one `auto` function may forward another).
auto Later() -> Future<int>;
auto Relay() { return FetchIt(); }
auto RelayAgain() { return Relay(); }
auto Count() { return 3; }

struct Runtime {
  template <typename A>
  auto Call(int id) {
    return Relay();
  }
};

struct Service {
  Task<int> Compute(int x);
  Strand* strand_;
  Runtime* runtime_;

  void Caller() {
    DoThing();  // EXPECT-ANALYZE: discarded-task

    FetchIt();  // EXPECT-ANALYZE: discarded-task

    Compute(7);  // EXPECT-ANALYZE: discarded-task

    Later();  // EXPECT-ANALYZE: discarded-task

    RelayAgain();  // EXPECT-ANALYZE: discarded-task

    runtime_->Call<Service>(1);  // EXPECT-ANALYZE: discarded-task

    // OK: an `auto` function that returns no Task/Future.
    Count();

    // OK: a templated call's future bound to a variable.
    auto relayed = runtime_->Call<Service>(2);
    (void)relayed;

    // OK: result bound to a variable.
    auto pending = FetchIt();
    (void)pending;

    // OK: consumed via Start — the task runs; dropping the result Future
    // is the explicit fire-and-forget idiom.
    Compute(7).Start(*strand_);

    // OK: suppressed with a reason.
    // SNAPPER-ANALYZE-ALLOW(discarded-task): fixture demonstrates suppression
    DoThing();
  }

  Task<int> Await() {
    // OK: awaited.
    co_await DoThing();
    int v = co_await Compute(1);
    co_return v;
  }

  Task<int> Forward() {
    // OK: returned to the caller.
    return Compute(2);
  }
};

}  // namespace fixture_discard
