// Output checks of the fixed-work benchmark. They run after each measured
// window, untimed, and read state through read-only PACTs so every
// committed write is ordered before the read.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "snapper/snapper_runtime.h"
#include "workloads/tpcc.h"

namespace snapbench {

/// MultiTransfer conserves money: the sum of Balance over accounts
/// [0, num_accounts) must equal num_accounts × (kInitialChecking +
/// kInitialSavings). A torn commit or a lost update breaks it.
snapper::Status CheckSmallBankTotal(snapper::SnapperRuntime& rt,
                                    uint32_t account_type,
                                    uint64_t num_accounts);

/// Every committed NewOrder advances its district's next_o_id by one, so
/// Σ(next_o_id − 1) over all districts must equal `committed_new_orders`.
snapper::Status CheckTpccOrderCount(snapper::SnapperRuntime& rt,
                                    const snapper::tpcc::TpccTypes& types,
                                    const snapper::tpcc::TpccLayout& layout,
                                    uint64_t committed_new_orders);

}  // namespace snapbench
