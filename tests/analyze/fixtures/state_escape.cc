// snapper_analyze fixture: state-escape.
// Markers sit on the reported binding-declaration line.
#include "async/task.h"
#include "common/value.h"

namespace fixture_state_escape {

struct StatefulActor {
  Value state_;
  int counter_ = 0;

  Task<void> Tick();

  Task<int> BadPointerAcrossAwait() {
    Value* v = &state_;  // EXPECT-ANALYZE: state-escape
    co_await Tick();
    co_return v->AsInt();  // reentrant turns may have moved state_
  }

  Task<int> BadReferenceAcrossAwait() {
    int& c = counter_;  // EXPECT-ANALYZE: state-escape
    co_await Tick();
    c++;
    co_return c;
  }

  Task<int> BadAutoRefThroughThis() {
    auto& s = this->state_;  // EXPECT-ANALYZE: state-escape
    co_await Tick();
    co_return s.AsInt();
  }

  Task<int> OkUseBeforeAwaitOnly() {
    Value* v = &state_;
    int snapshot = v->AsInt();
    co_await Tick();
    co_return snapshot;
  }

  Task<int> OkRebindAfterAwait() {
    co_await Tick();
    Value* v = &state_;  // fresh binding after the suspension
    co_return v->AsInt();
  }

  Task<int> OkLocalBinding(int arg) {
    int local = arg;
    int* p = &local;  // frame-local, lives in the coroutine frame
    co_await Tick();
    co_return *p;
  }

  int OkNotACoroutine() {
    int* c = &counter_;
    return *c;
  }
};

}  // namespace fixture_state_escape
