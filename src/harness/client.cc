#include "harness/client.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace snapper::harness {

namespace {

using Clock = std::chrono::steady_clock;

/// A completed transaction handed back to its client thread.
struct Completion {
  TxnResult result;
  Clock::time_point start;
  bool is_pact;
};

/// Unbounded MPSC channel from future continuations to one client thread.
class CompletionChannel {
 public:
  void Push(Completion completion) {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(completion));
    // Notify under mu_: the client thread destroys this channel right after
    // its last Pop returns, so the condvar must not be signaled after the
    // lock is released.
    cv_.NotifyOne();
  }

  Completion Pop() {
    MutexLock lock(&mu_);
    cv_.Wait(mu_, [this]() REQUIRES(mu_) { return !queue_.empty(); });
    Completion c = std::move(queue_.front());
    queue_.pop_front();
    return c;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::deque<Completion> queue_ GUARDED_BY(mu_);
};

}  // namespace

BenchResult RunBench(const ClientConfig& config, const GeneratorFn& generate,
                     const SubmitFn& submit) {
  std::atomic<int> epoch{0};
  std::atomic<bool> stop{false};

  // metrics[client][epoch], merged after the run.
  std::vector<std::vector<EpochMetrics>> metrics(
      config.num_clients,
      std::vector<EpochMetrics>(static_cast<size_t>(config.num_epochs)));

  std::vector<std::thread> clients;
  clients.reserve(config.num_clients);
  for (size_t c = 0; c < config.num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Derive, don't XOR: adjacent client ids XORed into the same seed
      // produce correlated low-bit streams.
      Rng rng(Rng::Derive(config.seed, c + 1));
      CompletionChannel completions;
      auto submit_one = [&] {
        TxnRequest request = generate(rng);
        const bool is_pact = request.mode == TxnMode::kPact;
        const auto start = Clock::now();
        Future<TxnResult> future = submit(std::move(request));
        future.OnReady([&completions, future, start, is_pact] {
          completions.Push(Completion{future.Peek(), start, is_pact});
        });
      };

      for (size_t i = 0; i < config.pipeline; ++i) submit_one();
      size_t in_flight = config.pipeline;
      while (in_flight > 0) {
        const Completion done = completions.Pop();
        const int e = epoch.load(std::memory_order_relaxed);
        if (e < config.num_epochs) {
          const auto latency =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - done.start)
                  .count();
          metrics[c][static_cast<size_t>(e)].Record(
              done.is_pact, done.result, static_cast<uint64_t>(latency));
        }
        if (stop.load(std::memory_order_relaxed)) {
          in_flight--;
        } else {
          submit_one();
        }
      }
    });
  }

  // Epoch clock.
  for (int e = 0; e < config.num_epochs; ++e) {
    epoch.store(e);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.epoch_seconds));
  }
  epoch.store(config.num_epochs);  // late completions fall outside
  stop.store(true);
  for (auto& t : clients) t.join();

  BenchResult result;
  result.seconds_measured = config.measured_seconds();
  for (size_t c = 0; c < config.num_clients; ++c) {
    for (int e = 0; e < config.num_epochs; ++e) {
      if (e >= config.warmup_epochs) {
        result.totals.Merge(metrics[c][static_cast<size_t>(e)]);
      }
      result.all_epochs.Merge(metrics[c][static_cast<size_t>(e)]);
    }
  }
  return result;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

}  // namespace snapper::harness
