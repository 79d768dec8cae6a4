#ifndef CONTRACTBENCH_WORKLOADS_H_
#define CONTRACTBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace contractbench {

/// In-process replanning: DailyMarket::AdvanceDay/RestoreBook on a
/// decoded index (replan_churn.cc).
void RunReplanChurn(const RunOptions& options, Sheet* sheet);

/// Open-loop HTTP traffic against a MarketServer (serving.cc): submits
/// with ticket polls on a decoded index and the lock-existing policy.
void RunAdmitLock(const RunOptions& options, Sheet* sheet);

/// Open-loop HTTP traffic against a MarketServer (serving.cc): submits,
/// cancels and reads on a mapped (compressed) index with incremental
/// BLS replans.
void RunMarketMixed(const RunOptions& options, Sheet* sheet);

}  // namespace contractbench

#endif  // CONTRACTBENCH_WORKLOADS_H_
