// Client harness reproducing the paper's setup (§5.1.2-§5.1.3): K client
// threads, each generating its own transactions and keeping a fixed
// pipeline of them in flight, replenishing on every completion. Runs are
// split into fixed-length epochs with the first ones discarded as warm-up;
// metrics cover committed transactions only, timed from submission
// (processing latency: generation runs before the clock starts).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "actor/actor.h"
#include "common/rng.h"
#include "common/value.h"
#include "harness/metrics.h"
#include "snapper/txn_types.h"

namespace snapper::harness {

/// One generated transaction.
struct TxnRequest {
  ActorId root;
  std::string method;
  Value input;
  ActorAccessInfo info;  ///< pre-declared accesses (PACT submissions only)
  TxnMode mode = TxnMode::kPact;
};

/// Generates the workload stream. Client threads call it concurrently, each
/// with its own Rng, so it must sample only through that Rng and read only
/// immutable shared state.
using GeneratorFn = std::function<TxnRequest(Rng&)>;

/// Submits a request to the system under test.
using SubmitFn = std::function<Future<TxnResult>(TxnRequest)>;

struct ClientConfig {
  size_t num_clients = 2;
  size_t pipeline = 64;  ///< in-flight transactions per client (Fig. 11b)
  double epoch_seconds = 2.0;
  int num_epochs = 6;     ///< paper: 6 (§5.1.3)
  int warmup_epochs = 2;  ///< paper: 2
  uint64_t seed = 1234;   ///< client c draws from Rng::Derive(seed, c + 1)

  double measured_seconds() const {
    return epoch_seconds * (num_epochs - warmup_epochs);
  }
};

/// Runs the benchmark: spawns `config.num_clients` client threads, runs the
/// epoch clock, and returns merged post-warm-up metrics once every submitted
/// transaction has resolved.
BenchResult RunBench(const ClientConfig& config, const GeneratorFn& generate,
                     const SubmitFn& submit);

/// Reads an environment override for bench scale knobs, e.g.
/// EnvDouble("SNAPPER_EPOCH_SECONDS", 2.0). Lets CI run short epochs while
/// full paper-scale runs set the env.
double EnvDouble(const char* name, double fallback);
int EnvInt(const char* name, int fallback);

}  // namespace snapper::harness
