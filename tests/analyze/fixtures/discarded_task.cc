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

struct Service {
  Task<int> Compute(int x);
  Strand* strand_;

  void Caller() {
    DoThing();  // EXPECT-ANALYZE: discarded-task

    FetchIt();  // EXPECT-ANALYZE: discarded-task

    Compute(7);  // EXPECT-ANALYZE: discarded-task

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
