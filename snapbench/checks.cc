#include "checks.h"

#include <string>
#include <vector>

#include "workloads/smallbank_logic.h"

namespace snapbench {

using snapper::ActorAccessInfo;
using snapper::ActorId;
using snapper::Future;
using snapper::Status;
using snapper::TxnResult;
using snapper::Value;

namespace {

/// Runs `method` as a single-actor read-only PACT on every actor in `ids`
/// (all in flight together) and returns the results in order.
Status ReadAll(snapper::SnapperRuntime& rt, const std::vector<ActorId>& ids,
               const char* method, std::vector<Value>* out) {
  std::vector<Future<TxnResult>> reads;
  reads.reserve(ids.size());
  for (const ActorId& id : ids) {
    reads.push_back(rt.SubmitPact(id, method, Value(), ActorAccessInfo{{id, 1}}));
  }
  Status first_error;
  out->clear();
  out->reserve(ids.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    TxnResult r = reads[i].Get();
    if (!r.ok() && first_error.ok()) {
      first_error = Status::Internal(std::string(method) + " read of " +
                                     ids[i].ToString() +
                                     " failed: " + r.status.ToString());
    }
    out->push_back(std::move(r.value));
  }
  return first_error;
}

}  // namespace

Status CheckSmallBankTotal(snapper::SnapperRuntime& rt, uint32_t account_type,
                           uint64_t num_accounts) {
  std::vector<ActorId> ids;
  ids.reserve(num_accounts);
  for (uint64_t k = 0; k < num_accounts; ++k) {
    ids.push_back(ActorId{account_type, k});
  }
  std::vector<Value> balances;
  Status s = ReadAll(rt, ids, "Balance", &balances);
  if (!s.ok()) return s;
  // Balances stay integral and far below 2^53, so the double sum is exact.
  double total = 0;
  for (const Value& b : balances) total += b.AsDouble();
  const double expected =
      static_cast<double>(num_accounts) *
      (snapper::smallbank::kInitialChecking +
       snapper::smallbank::kInitialSavings);
  if (total != expected) {
    return Status::Corruption("SmallBank money not conserved: total " +
                              std::to_string(total) + " != expected " +
                              std::to_string(expected));
  }
  return Status::OK();
}

Status CheckTpccOrderCount(snapper::SnapperRuntime& rt,
                           const snapper::tpcc::TpccTypes& types,
                           const snapper::tpcc::TpccLayout& layout,
                           uint64_t committed_new_orders) {
  std::vector<ActorId> ids;
  for (uint64_t w = 0; w < layout.num_warehouses; ++w) {
    for (int d = 0; d < layout.districts_per_warehouse; ++d) {
      ids.push_back(ActorId{types.district, layout.PartKey(w, d)});
    }
  }
  std::vector<Value> districts;
  Status s = ReadAll(rt, ids, "ReadDistrict", &districts);
  if (!s.ok()) return s;
  int64_t orders = 0;
  for (const Value& d : districts) orders += d["next_o_id"].AsInt() - 1;
  if (orders != static_cast<int64_t>(committed_new_orders)) {
    return Status::Corruption(
        "TPC-C order count mismatch: districts issued " +
        std::to_string(orders) + " order ids, clients saw " +
        std::to_string(committed_new_orders) + " commits");
  }
  return Status::OK();
}

}  // namespace snapbench
