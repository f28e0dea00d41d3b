// Fig. 17a — SmallBank scalability: PACT / ACT / hybrid(90% PACT) / NT
// throughput as the silo's worker count grows, under a uniform workload and
// under the hotspot workload of §5.4.1 (1% hot set, 3 hot accesses per txn).
// Resources (actors, coordinators, loggers) scale with cores per Fig. 11a.
//
// Expected shape (paper): near-linear scaling for all modes under uniform;
// under the hotspot workload PACT clearly outperforms ACT. NOTE: the
// reference host is a shared 4-vCPU KVM guest; the silo's workers share
// those vCPUs with its logger flushers, timer and client threads, so a
// sweep past about 3 workers measures oversubscription, not scaling (see
// EXPERIMENTS.md). SNAPPER_CORES picks the sweep.
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  PrintHeader("Fig. 17a: SmallBank scalability (txnsize 4, CC+log)");
  BenchJsonWriter json("fig17a_scal_smallbank");
  auto mode_index = [](const std::string& m) {
    return m == "PACT" ? 0.0 : m == "ACT" ? 1.0 : m == "hybrid90" ? 2.0 : 3.0;
  };

  for (size_t cores : BenchCoreCounts()) {
    const auto scale = harness::ScaleForCores(cores);
    for (bool hotspot : {false, true}) {
      for (const char* mode_name : {"PACT", "ACT", "hybrid90", "NT"}) {
        SnapperBankSilo silo(harness::SnapperConfigForCores(
            cores, std::string(mode_name) != "NT"));
        SmallBankWorkloadConfig workload;
        workload.actor_type = silo.actor_type;
        workload.num_actors = scale.smallbank_actors;
        workload.txn_size = 4;
        if (hotspot) {
          workload.distribution = Distribution::kHotspot;
          workload.hot_fraction = 0.01;
          workload.hot_accesses = 3;
        }
        std::string name = mode_name;
        TxnMode mode = TxnMode::kPact;
        if (name == "PACT") {
          workload.pact_fraction = 1.0;
        } else if (name == "ACT") {
          workload.pact_fraction = 0.0;
          mode = TxnMode::kAct;
        } else if (name == "hybrid90") {
          workload.pact_fraction = 0.9;
        } else {
          workload.pact_fraction = 1.0;  // mode overridden to NT below
          mode = TxnMode::kNt;
        }
        GeneratorFn generator = MakeSmallBankGenerator(workload);
        if (mode == TxnMode::kNt) {
          auto inner = generator;
          generator = [inner](Rng& rng) {
            auto request = inner(rng);
            request.mode = TxnMode::kNt;
            return request;
          };
        }
        ClientConfig client = BenchClientConfig(
            mode == TxnMode::kAct ? TxnMode::kAct : TxnMode::kPact, hotspot);
        BenchResult r = RunBench(client, generator,
                                 harness::SnapperSubmit(*silo.runtime));
        char label[96];
        std::snprintf(label, sizeof(label), "%zu cores / %s / %s", cores,
                      hotspot ? "hotspot" : "uniform", mode_name);
        PrintRow(label, r);
        // mode: 0=PACT 1=ACT 2=hybrid90 3=NT.
        json.AddRow({{"cores", static_cast<double>(cores)},
                     {"hotspot", hotspot ? 1.0 : 0.0},
                     {"mode", mode_index(mode_name)},
                     {"tps", r.Throughput()},
                     {"abort_rate", r.AbortRate()},
                     {"p50_ms", r.totals.latency.Quantile(0.5) / 1000.0},
                     {"p99_ms", r.totals.latency.Quantile(0.99) / 1000.0}});
      }
    }
  }
  json.Write();
  return 0;
}
