#include "async/executor.h"

#include <cassert>

namespace snapper {

namespace {
thread_local Strand* tls_current_strand = nullptr;
thread_local Executor* tls_current_executor = nullptr;
}  // namespace

Executor::Executor(size_t num_threads) {
  assert(num_threads >= 1);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Stop(); }

void Executor::Post(std::function<void()> fn) {
  AddJob(Job{nullptr, std::move(fn)});
}

void Executor::PostDrain(std::shared_ptr<Strand> strand) {
  AddJob(Job{std::move(strand), nullptr});
}

void Executor::AddJob(Job job) {
  {
    MutexLock lock(&mu_);
    if (stopping_) return;
    queue_.push_back(std::move(job));
  }
  cv_.NotifyOne();
}

void Executor::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool Executor::InExecutor() const { return tls_current_executor == this; }

void Executor::WorkerLoop() {
  tls_current_executor = this;
  for (;;) {
    Job job;
    {
      MutexLock lock(&mu_);
      cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) {
        // stopping_ and drained: exit. (Tasks enqueued before Stop() still
        // run; posts after Stop() were dropped.)
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.strand != nullptr) {
      job.strand->Drain();
    } else {
      job.fn();
    }
  }
}

void Strand::Post(std::function<void()> fn) {
  PostTagged(std::move(fn), trace::NextPostTag());
}

void Strand::PostTagged(std::function<void()> fn, trace::TurnTag tag) {
  // Replay gating: a trace session may take ownership of the tagged turn and
  // release it (via EnqueueForReplay) when the recorded schedule says so.
  if (tag.traced() && trace::PostIntercepted(this, tag, &fn)) return;
  Enqueue(std::move(fn), tag);
}

void Strand::EnqueueForReplay(std::function<void()> fn, trace::TurnTag tag) {
  Enqueue(std::move(fn), tag);
}

void Strand::Enqueue(std::function<void()> fn, trace::TurnTag tag) {
  bool need_schedule = false;
  {
    MutexLock lock(&mu_);
    queue_.push_back(TaggedTask{std::move(fn), tag});
    if (queue_.size() > max_depth_) max_depth_ = queue_.size();
    if (!scheduled_) {
      scheduled_ = true;
      need_schedule = true;
    }
  }
  if (need_schedule) ScheduleDrain();
}

Strand* Strand::Current() { return tls_current_strand; }

size_t Strand::QueueDepth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

size_t Strand::MaxQueueDepth() const {
  MutexLock lock(&mu_);
  return max_depth_;
}

void Strand::ScheduleDrain() { executor_->PostDrain(shared_from_this()); }

void Strand::Drain() {
  Strand* prev = tls_current_strand;
  tls_current_strand = this;
  for (int i = 0; i < kDrainBudget; ++i) {
    TaggedTask task;
    {
      MutexLock lock(&mu_);
      if (queue_.empty()) {
        scheduled_ = false;
        tls_current_strand = prev;
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const bool current = task.tag.traced() && trace::TagIsCurrent(task.tag);
    trace::Hooks* hooks = current ? trace::GetHooks() : nullptr;
    if (hooks != nullptr) {
      // The one dispatch point every turn funnels through: record (or
      // verify) global turn order here, and run the body under the turn's
      // derived trace context so its draws are schedule-independent.
      hooks->BeginTurn(this, task.tag);
      {
        trace::CtxScope scope(trace::TurnCtx(task.tag));
        task.fn();
      }
      hooks->EndTurn(this, task.tag);
    } else if (task.tag.traced() && !current && trace::Active()) {
      // A turn tagged by a *previous* session (leaked runtime) running
      // while a new session is attached: flag-scope the body so its draws
      // are visibly unattributed instead of polluting the new trace.
      trace::CtxScope scope(trace::kUnattributedCtxBit);
      task.fn();
    } else {
      task.fn();
    }
  }
  tls_current_strand = prev;
  // Budget exhausted with work remaining: yield the worker, requeue.
  ScheduleDrain();
}

}  // namespace snapper
