#ifndef MROAM_CORE_DAILY_MARKET_H_
#define MROAM_CORE_DAILY_MARKET_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/solver.h"
#include "market/contract_book.h"

namespace mroam::core {

/// Operating policy of the host across days.
enum class ReplanPolicy {
  /// Re-solve the whole market (all active contracts) every day with the
  /// configured method: the paper's §1 reference. Best regret; existing
  /// advertisers may see their billboard sets change day to day.
  kReoptimizeAll,
  /// Existing contracts keep yesterday's billboards; only newly arrived
  /// (and still-unsatisfied) contracts receive inventory, via the
  /// synchronous greedy. It stays for stability, not regret: on
  /// contractbench's replan_churn schedule it moves ~11 boards a day
  /// against ~106 for kIncremental, at ~8× its regret ratio (0.0225
  /// against 0.0027). It is not kIncremental with an empty blast radius,
  /// which would still release every unsatisfied incumbent's boards before
  /// its greedy; here those boards stay put.
  kLockExisting,
  /// Warm-start from yesterday's deployment and re-optimize only the
  /// advertisers inside the churn's blast radius (arrivals, unsatisfied
  /// incumbents, and owners of billboards sharing trajectories with the
  /// inventory released by expiry/cancellation). A full kReoptimizeAll
  /// Solve runs only while the market has not solved its book yet: its
  /// first non-empty day, and the first day after RestoreBook. Cheaper
  /// than kReoptimizeAll, but not close to its regret: on contractbench's
  /// replan_churn workload (4-vCPU VM) an incremental day takes ~0.7 ms
  /// against ~4 ms for a full 3-restart BLS solve, and leaves 57–145× its
  /// regret (regret ratio ~0.0027 against 0.00002–0.00005), because it
  /// runs none of Algorithm 3's restarts.
  kIncremental,
};

const char* ReplanPolicyName(ReplanPolicy policy);

/// Configuration of the rolling market simulation.
struct DailyMarketConfig {
  SolverConfig solver;                  ///< used by full solves
  int32_t contract_duration_days = 7;   ///< arrivals stay this many days
  ReplanPolicy policy = ReplanPolicy::kIncremental;
};

/// How a day's plan was produced (DayResult::mode).
enum class ReplanMode {
  kNone,         ///< empty book: nothing to plan
  kFull,         ///< full Solve (kReoptimizeAll, or an unsolved book)
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
  /// True when kIncremental ran a full solve because the market had not
  /// solved its book yet: its first non-empty day, or the first day after
  /// RestoreBook.
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
  /// The ticket map finds the contract without a search; the contracts
  /// behind it shift down one position. Returns false when no active
  /// contract holds the ticket (already expired, cancelled, or never
  /// issued).
  bool Cancel(int64_t ticket);

  int32_t today() const { return day_; }
  int32_t active_contracts() const {
    return static_cast<int32_t>(tickets_.size());
  }

  /// The book: terms of the active contracts (ids are their dense
  /// positions), the billboard sets deployed to them, and their tickets,
  /// all aligned.
  const std::vector<market::Advertiser>& ActiveTerms() const {
    return terms_;
  }
  const std::vector<std::vector<model::BillboardId>>& ActiveSets() const {
    return sets_;
  }
  const std::vector<int64_t>& ActiveTickets() const { return tickets_; }

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
  /// Appends a contract to the book and the ticket map.
  void Append(market::Advertiser terms, int64_t ticket, int32_t expires_on,
              std::vector<model::BillboardId> billboards);

  /// Removes the contracts `gone` selects, by position, and moves their
  /// billboards into the churn pool. Survivors behind the first gap take
  /// new dense ids and ticket-map entries. Returns how many went.
  int32_t RemoveIf(const std::function<bool(size_t)>& gone);

  /// Replaces the deployed sets by today's `plan`, counting the boards
  /// whose owner changed into `result->boards_touched`.
  void Deploy(std::vector<std::vector<model::BillboardId>> plan,
              DayResult* result);

  /// Runs the kIncremental replan for the current roster. `first_new` is
  /// the dense index of the first of today's arrivals; `churn` holds the
  /// billboards released since the last replan. Fills the plan/telemetry
  /// fields of `result`.
  void ReplanIncremental(size_t first_new,
                         const std::vector<model::BillboardId>& churn,
                         DayResult* result);

  /// Full Solve over the active roster (the kReoptimizeAll day and
  /// kIncremental's first day share it so both are bit-identical).
  void ReplanFull(DayResult* result);

  const influence::InfluenceIndex* index_;
  DailyMarketConfig config_;
  int32_t day_ = 0;
  int64_t next_ticket_ = 1;
  std::vector<market::Advertiser> terms_;
  std::vector<std::vector<model::BillboardId>> sets_;
  std::vector<int64_t> tickets_;
  /// First day each contract is gone, aligned with the book.
  std::vector<int32_t> expires_on_;
  /// ticket -> position in the book, so cancellations resolve without
  /// scanning it.
  std::unordered_map<int64_t, size_t> ticket_index_;
  /// Billboards released by expiry/cancellation since the last replan.
  std::vector<model::BillboardId> churn_released_;
  int32_t cancelled_since_last_day_ = 0;
  /// Whether this market has solved its book. A restored book was solved
  /// by another market, so kIncremental's first non-empty day after
  /// construction runs a full Solve either way.
  bool solved_ = false;
};

}  // namespace mroam::core

#endif  // MROAM_CORE_DAILY_MARKET_H_
