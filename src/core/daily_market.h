#ifndef MROAM_CORE_DAILY_MARKET_H_
#define MROAM_CORE_DAILY_MARKET_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/solver.h"
#include "market/contract_book.h"

namespace mroam::core {

/// Operating policy of the host across days.
enum class ReplanPolicy {
  /// Re-solve the whole market (all active contracts) every day with the
  /// configured method. Best regret; existing advertisers may see their
  /// billboard sets change day to day.
  kReoptimizeAll,
  /// Existing contracts keep yesterday's billboards; only newly arrived
  /// (and still-unsatisfied) contracts receive inventory, via the
  /// synchronous greedy. Stable for customers, cheaper to run, worse
  /// regret.
  kLockExisting,
  /// Warm-start from yesterday's deployment and re-optimize only the
  /// advertisers inside the churn's blast radius (arrivals, unsatisfied
  /// incumbents, and owners of billboards sharing trajectories with the
  /// inventory released by expiry/cancellation). Falls back to a full
  /// kReoptimizeAll-style solve whenever the warm-started plan's regret
  /// drifts past IncrementalReplanConfig::max_regret_drift relative to the
  /// last full solve. Cheaper than kReoptimizeAll, but not close to its
  /// regret: on contractbench's replan_churn workload (4-vCPU VM) an
  /// incremental day takes ~0.7 ms against ~4 ms for a full 3-restart BLS
  /// solve, and leaves 57–145× its regret (regret ratio ~0.0027 against
  /// 0.00002–0.00005), because it runs none of Algorithm 3's restarts.
  kIncremental,
};

const char* ReplanPolicyName(ReplanPolicy policy);

/// Knobs of ReplanPolicy::kIncremental.
struct IncrementalReplanConfig {
  /// Allowed regret drift before falling back to a full solve: the
  /// incremental plan is kept only while its total regret stays within
  /// `last full solve's regret + max_regret_drift * (sum of active
  /// payments)`. The payment sum is the scale because regret is measured
  /// in payment units and the bound must stay meaningful when the full
  /// solve reaches zero regret. Negative forces a full solve every day
  /// (kIncremental then matches kReoptimizeAll bit for bit — the
  /// equivalence tests rely on this); a huge value never falls back.
  double max_regret_drift = 0.1;

  /// Sweep cap for the restricted billboard-driven local search run over
  /// the affected advertisers after the restricted greedy. 0 skips the
  /// local-search polish entirely.
  int32_t local_search_sweeps = 2;
};

/// Configuration of the rolling market simulation.
struct DailyMarketConfig {
  SolverConfig solver;                  ///< used by full solves
  int32_t contract_duration_days = 7;   ///< arrivals stay this many days
  ReplanPolicy policy = ReplanPolicy::kReoptimizeAll;
  IncrementalReplanConfig incremental;  ///< used by kIncremental
};

/// How a day's plan was produced (DayResult::mode).
enum class ReplanMode {
  kNone,         ///< empty book: nothing to plan
  kFull,         ///< full Solve (kReoptimizeAll, or incremental fallback)
  kIncremental,  ///< warm-started restricted re-optimization
  kGreedy,       ///< kLockExisting's greedy completion
};

const char* ReplanModeName(ReplanMode mode);

/// One day's outcome.
struct DayResult {
  int32_t day = 0;
  RegretBreakdown breakdown;  ///< over the contracts active today
  int32_t active_contracts = 0;
  int32_t arrived = 0;
  int32_t expired = 0;
  /// Contracts cancelled (DailyMarket::Cancel) since the previous day.
  int32_t cancelled = 0;
  double seconds = 0.0;
  /// Billboards released by expiry/cancellation since the previous day —
  /// the churn whose blast radius the incremental replanner re-optimizes.
  int32_t churn_boards = 0;
  /// Billboards whose owner changed between the restored incumbent plan
  /// and today's final plan (CountDeploymentDiff). Under kReoptimizeAll
  /// this measures the day-to-day plan stability the paper's §1 motivates
  /// against; under kIncremental it is the replan's write set.
  int64_t boards_touched = 0;
  /// Advertisers handed to the restricted re-optimization (kIncremental
  /// only; 0 under the other policies).
  int32_t reoptimized_advertisers = 0;
  /// True when kIncremental abandoned the warm start and ran a full solve
  /// (drift bound exceeded, or no prior full solve to drift from).
  bool full_solve_fallback = false;
  /// How this day's plan was produced.
  ReplanMode mode = ReplanMode::kNone;
  /// Stable tickets of today's arrivals, in arrival order (see
  /// DailyMarket::AdvanceDay). The serving layer hands these to
  /// advertisers as contract ids.
  std::vector<int64_t> admitted_tickets;
  /// Telemetry of today's replan: under kReoptimizeAll this is the inner
  /// Solve's report; under kLockExisting it covers the greedy completion;
  /// under kIncremental the restricted greedy + local-search phases.
  obs::RunReport report;
};

/// The paper's motivating operational setting (§1): advertisers arrive
/// every day, each holding a contract for a fixed number of days, and the
/// host repeatedly decides the deployment. Wraps the one-shot solvers
/// into a day-by-day loop with contract expiry and a choice of replanning
/// policy.
class DailyMarket {
 public:
  /// `index` must outlive the market.
  DailyMarket(const influence::InfluenceIndex* index,
              DailyMarketConfig config);

  /// Advances one day: expires old contracts, admits `arrivals` (their
  /// ids are reassigned internally; each receives a fresh monotone ticket,
  /// reported in DayResult::admitted_tickets in arrival order), replans
  /// per the policy, and reports.
  DayResult AdvanceDay(std::vector<market::Advertiser> arrivals);

  /// Withdraws the contract holding `ticket` immediately (the serving
  /// layer's DELETE /contracts/<id>). Its inventory is released at the
  /// next replan — under kLockExisting the freed billboards go to
  /// still-unsatisfied contracts, under kIncremental they seed the blast
  /// radius, under kReoptimizeAll the whole market re-solves anyway.
  /// O(1) ticket lookup via an internal ticket->index map, so
  /// cancellation-heavy churn does not scan the book. Returns false when
  /// no active contract holds the ticket (already expired, cancelled, or
  /// never issued).
  bool Cancel(int64_t ticket);

  int32_t today() const { return day_; }
  int32_t active_contracts() const {
    return static_cast<int32_t>(contracts_.size());
  }

  /// Billboard sets currently deployed, aligned with active contracts.
  const std::vector<market::Advertiser>& ActiveTerms() const {
    return terms_cache_;
  }
  const std::vector<std::vector<model::BillboardId>>& ActiveSets() const {
    return sets_cache_;
  }
  /// Tickets of the active contracts, aligned with ActiveTerms/ActiveSets.
  const std::vector<int64_t>& ActiveTickets() const {
    return tickets_cache_;
  }

  /// Snapshots the open book — day, ticket sequence, and every active
  /// contract with its deployment — into the portable form the snapshot
  /// writer persists (and a restarted server restores).
  market::ContractBook ExportBook() const;

  /// Restores a previously exported book into this (fresh, never-advanced)
  /// market: day and ticket sequence resume where the exporting market
  /// left off and the restored contracts keep their billboards until the
  /// next replan. CHECK-fails if this market already holds state.
  void RestoreBook(const market::ContractBook& book);

 private:
  struct Contract {
    market::Advertiser terms;  ///< id field is the current dense id
    int64_t ticket = 0;        ///< stable external id (1, 2, ...)
    int32_t expires_on = 0;    ///< first day the contract is gone
    std::vector<model::BillboardId> billboards;
  };

  void RefreshCaches();

  /// Runs the kIncremental replan for the current roster. `first_new` is
  /// the dense index of the first of today's arrivals; `churn` holds the
  /// billboards released since the last replan. Fills the plan/telemetry
  /// fields of `result`.
  void ReplanIncremental(size_t first_new,
                         const std::vector<model::BillboardId>& churn,
                         DayResult* result);

  /// Full Solve over the active roster (the kReoptimizeAll day and the
  /// incremental fallback share it so both are bit-identical).
  void ReplanFull(DayResult* result);

  const influence::InfluenceIndex* index_;
  DailyMarketConfig config_;
  int32_t day_ = 0;
  int64_t next_ticket_ = 1;
  std::vector<Contract> contracts_;
  std::vector<market::Advertiser> terms_cache_;
  std::vector<std::vector<model::BillboardId>> sets_cache_;
  std::vector<int64_t> tickets_cache_;
  /// ticket -> index in contracts_, kept in sync by RefreshCaches and
  /// Cancel so cancellations resolve without scanning the book.
  std::unordered_map<int64_t, size_t> ticket_index_;
  /// Billboards released by expiry/cancellation since the last replan.
  std::vector<model::BillboardId> churn_released_;
  int32_t cancelled_since_last_day_ = 0;
  /// Total regret of the last full solve — the drift anchor.
  double last_full_regret_ = 0.0;
  bool have_full_solve_ = false;
};

}  // namespace mroam::core

#endif  // MROAM_CORE_DAILY_MARKET_H_
