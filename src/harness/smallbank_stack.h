// SmallBank on either transaction stack: the seam the scenarios in chaos.cc
// and overload.cc run over, so each scenario is written once for Snapper
// and the OrleansTxn baseline alike. A SmallBankStack owns one runtime with
// the SmallBank account type registered (and started), and holds only what
// really differs between the stacks: how a transfer is submitted, how an
// account is killed and read, which acked aborts are in doubt, and how
// every account is rebuilt from the WAL. Traffic, watchdogs and invariant
// checks stay in the scenarios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/client.h"
#include "otxn/otxn_runtime.h"
#include "snapper/config.h"
#include "trace/trace_session.h"
#include "wal/fault_env.h"
#include "workloads/smallbank_logic.h"

namespace snapper::harness {

inline constexpr double kPerAccount =
    smallbank::kInitialChecking + smallbank::kInitialSavings;
inline constexpr double kEps = 1e-6;

class SmallBankStack {
 public:
  virtual ~SmallBankStack() = default;

  /// False on otxn, which runs every transaction as a 2PC (ACT-like) one:
  /// scenarios draw no PACT/ACT coin for it.
  virtual bool has_pact() const = 0;

  /// MultiTransfer of `amount` from account `from` to account `to`; a PACT
  /// (act = false, Snapper only) carries its pre-declared accesses.
  TxnRequest Transfer(uint64_t from, uint64_t to, double amount,
                      bool act) const;
  virtual Future<TxnResult> Submit(TxnRequest request) = 0;

  /// Fail-stop kills an account. Snapper's future resolves once the fresh
  /// activation serves again. An otxn kill is fire-and-forget — the future
  /// is invalid — and the account rebuilds on its next dispatch.
  virtual Future<Unit> Kill(uint64_t account) = 0;

  /// The account's balance. otxn rejects reads while a killed account
  /// rebuilds, so its reads retry for about a second.
  virtual Result<double> Balance(uint64_t account) = 0;

  /// An acked abort that may have either durable outcome. Snapper: every
  /// abort whose reason does not prove the transaction stayed off the
  /// durable commit path. otxn: none — the TA decides before it acks.
  virtual bool InDoubt(const Status& acked) const = 0;

  /// Rebuilds every account from the WAL alone. Snapper: the silo dies,
  /// `device` crashes (tearing `tear_bytes` off each file's durable tail)
  /// and is replaced, and a fresh runtime recovers and starts. otxn: every
  /// account is killed and rebuilds from the WAL plus the TA's decisions on
  /// its next read. Returns a violation; empty on success.
  virtual std::string Rebuild(int num_accounts, size_t tear_bytes) = 0;

  /// WAL replay records and microseconds spent since the last Rebuild()
  /// began (otxn accounts replay lazily, on their first read after it).
  uint64_t rebuild_replay_records() {
    return Counters().recovery_replay_records.load() - rebuild_records_;
  }
  uint64_t rebuild_replay_us() {
    return Counters().recovery_time_us.load() - rebuild_us_;
  }

  /// The runtime's counters, WAL/checkpoint counters synced first.
  virtual MessageCounters& Counters() = 0;
  virtual ActorRuntime& runtime() = 0;
  virtual LogManager& log_manager() = 0;
  virtual const AdmissionController& admission() const = 0;
  /// otxn only: the TA strand's queue high-watermark.
  virtual size_t max_ta_queue_depth() const { return 0; }

 protected:
  uint32_t type_ = 0;
  uint64_t rebuild_records_ = 0;
  uint64_t rebuild_us_ = 0;
};

/// `device` is the FaultInjectionEnv under `env` whose Crash() models silo
/// death in Rebuild(); stacks that are never rebuilt pass nullptr.
std::unique_ptr<SmallBankStack> MakeSnapperStack(
    const SnapperConfig& config, Env* env,
    FaultInjectionEnv* device = nullptr);
std::unique_ptr<SmallBankStack> MakeOtxnStack(const otxn::OtxnConfig& config,
                                              Env* env);

/// Reads every account's balance into `balances` and appends a violation
/// for each failed read and for a total other than kPerAccount per account.
/// Returns the total.
double AuditBalances(SmallBankStack& stack, int num_accounts,
                     std::vector<double>* balances,
                     std::ostringstream& violations);

/// Hang exit: a destructor joining workers blocked on a hung future would
/// turn the reported violation into a test-binary timeout, so the stack is
/// leaked (released, not destroyed) along with the trace session its
/// workers may still call into. Detach() first writes a record-mode trace
/// for post-mortem.
void LeakHungStack(std::unique_ptr<SmallBankStack> stack,
                   std::unique_ptr<trace::TraceSession> session = nullptr);

}  // namespace snapper::harness
