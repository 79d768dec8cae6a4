#include "core/daily_market.h"

#include <cmath>
#include <string>

#include "common/stopwatch.h"
#include "core/greedy.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::core {

const char* ReplanPolicyName(ReplanPolicy policy) {
  switch (policy) {
    case ReplanPolicy::kReoptimizeAll:
      return "reoptimize-all";
    case ReplanPolicy::kLockExisting:
      return "lock-existing";
    case ReplanPolicy::kIncremental:
      return "incremental";
  }
  return "?";
}

const char* ReplanModeName(ReplanMode mode) {
  switch (mode) {
    case ReplanMode::kNone:
      return "none";
    case ReplanMode::kFull:
      return "full";
    case ReplanMode::kIncremental:
      return "incremental";
    case ReplanMode::kGreedy:
      return "greedy";
  }
  return "?";
}

namespace {

/// The day's plan rebuilt from the book: it must satisfy Assignment's
/// invariants (RestoreDeployment CHECK-fails on overlapping sets) and
/// reproduce the reported Eq. 1 regret. Debug builds check it after every
/// AdvanceDay.
common::Status CheckDayPlan(
    const influence::InfluenceIndex* index, const SolverConfig& solver,
    const std::vector<market::Advertiser>& terms,
    const std::vector<std::vector<model::BillboardId>>& sets,
    const RegretBreakdown& reported) {
  Assignment plan(index, terms, solver.regret, solver.impression_threshold);
  plan.RestoreDeployment(sets);
  common::Status status = plan.CheckInvariants();
  if (!status.ok()) return status;
  const double total = plan.Breakdown().total;
  if (std::abs(total - reported.total) > 1e-9 * (1.0 + std::abs(total))) {
    return common::Status::Internal(
        "day plan regret " + std::to_string(total) + ", reported " +
        std::to_string(reported.total));
  }
  return common::Status::Ok();
}

/// True when `status` is OK; otherwise logs it for MROAM_DCHECK to abort on.
bool Holds(const common::Status& status) {
  if (!status.ok()) MROAM_LOG(Error) << status;
  return status.ok();
}

/// Every advertiser's billboards in `state`, by dense id.
std::vector<std::vector<model::BillboardId>> SetsOf(const Assignment& state) {
  std::vector<std::vector<model::BillboardId>> sets;
  sets.reserve(static_cast<size_t>(state.num_advertisers()));
  for (int32_t a = 0; a < state.num_advertisers(); ++a) {
    sets.push_back(state.BillboardsOf(a));
  }
  return sets;
}

/// Sweep cap of the restricted local search that polishes an incremental
/// day after its restricted greedy.
constexpr int32_t kIncrementalSweeps = 2;

}  // namespace

DailyMarket::DailyMarket(const influence::InfluenceIndex* index,
                         DailyMarketConfig config)
    : index_(index), config_(std::move(config)) {
  MROAM_CHECK(config_.contract_duration_days >= 1);
}

void DailyMarket::Append(market::Advertiser terms, int64_t ticket,
                         int32_t expires_on,
                         std::vector<model::BillboardId> billboards) {
  const size_t i = tickets_.size();
  terms.id = static_cast<market::AdvertiserId>(i);
  terms_.push_back(terms);
  sets_.push_back(std::move(billboards));
  tickets_.push_back(ticket);
  expires_on_.push_back(expires_on);
  ticket_index_[ticket] = i;
}

int32_t DailyMarket::RemoveIf(const std::function<bool(size_t)>& gone) {
  size_t kept = 0;
  for (size_t i = 0; i < tickets_.size(); ++i) {
    if (gone(i)) {
      churn_released_.insert(churn_released_.end(), sets_[i].begin(),
                             sets_[i].end());
      ticket_index_.erase(tickets_[i]);
      continue;
    }
    if (kept != i) {
      terms_[kept] = terms_[i];
      terms_[kept].id = static_cast<market::AdvertiserId>(kept);
      sets_[kept] = std::move(sets_[i]);
      tickets_[kept] = tickets_[i];
      expires_on_[kept] = expires_on_[i];
      ticket_index_[tickets_[kept]] = kept;
    }
    ++kept;
  }
  const auto removed = static_cast<int32_t>(tickets_.size() - kept);
  terms_.resize(kept);
  sets_.resize(kept);
  tickets_.resize(kept);
  expires_on_.resize(kept);
  return removed;
}

market::ContractBook DailyMarket::ExportBook() const {
  market::ContractBook book;
  book.day = day_;
  book.next_ticket = next_ticket_;
  book.entries.reserve(tickets_.size());
  for (size_t i = 0; i < tickets_.size(); ++i) {
    book.entries.push_back(market::ContractBookEntry{
        terms_[i], tickets_[i], expires_on_[i], sets_[i]});
  }
  return book;
}

void DailyMarket::RestoreBook(const market::ContractBook& book) {
  MROAM_CHECK(day_ == 0 && next_ticket_ == 1 && tickets_.empty())
      << "RestoreBook requires a fresh market (day " << day_ << ", "
      << tickets_.size() << " contracts held)";
  MROAM_CHECK(book.next_ticket >= 1);
  day_ = book.day;
  next_ticket_ = book.next_ticket;
  for (const market::ContractBookEntry& entry : book.entries) {
    MROAM_CHECK(entry.ticket >= 1 && entry.ticket < book.next_ticket)
        << "restored ticket " << entry.ticket
        << " outside the minted range";
    Append(entry.terms, entry.ticket, entry.expires_on, entry.billboards);
  }
}

bool DailyMarket::Cancel(int64_t ticket) {
  auto it = ticket_index_.find(ticket);
  if (it == ticket_index_.end()) return false;
  // The withdrawn inventory joins the churn pool: the next incremental
  // replan re-optimizes its blast radius.
  const size_t position = it->second;
  RemoveIf([position](size_t i) { return i == position; });
  ++cancelled_since_last_day_;
  return true;
}

void DailyMarket::Deploy(std::vector<std::vector<model::BillboardId>> plan,
                         DayResult* result) {
  result->boards_touched =
      CountDeploymentDiff(sets_, plan, index_->num_billboards());
  sets_ = std::move(plan);
}

void DailyMarket::ReplanFull(DayResult* result) {
  MROAM_TRACE_SPAN("market.replan_full");
  SolveResult solve = Solve(*index_, terms_, config_.solver);
  Deploy(std::move(solve.sets), result);
  result->breakdown = solve.breakdown;
  result->report = std::move(solve.report);
  result->mode = ReplanMode::kFull;
  solved_ = true;
}

void DailyMarket::ReplanIncremental(
    size_t first_new, const std::vector<model::BillboardId>& churn,
    DayResult* result) {
  MROAM_TRACE_SPAN("market.replan_incremental");
  // A book this market has not solved has no plan of its own to warm-start
  // from: run the same Solve as kReoptimizeAll.
  if (!solved_) {
    result->full_solve_fallback = true;
    MROAM_COUNTER_ADD("market.replan_full_fallback", 1);
    ReplanFull(result);
    return;
  }

  // Restore yesterday's deployment over today's roster (survivors keep
  // their boards; arrivals start empty).
  Assignment state(index_, terms_, config_.solver.regret,
                   config_.solver.impression_threshold);
  state.RestoreDeployment(sets_);

  // Blast radius of the churn: every billboard sharing a trajectory with
  // the released inventory can now gain or lose marginal value.
  std::vector<bool> radius(static_cast<size_t>(index_->num_billboards()),
                           false);
  for (model::BillboardId o : churn) {
    radius[static_cast<size_t>(o)] = true;
    index_->ForEachCovered(o, [&](model::TrajectoryId t) {
      index_->ForEachCovering(t, [&](model::BillboardId b) {
        radius[static_cast<size_t>(b)] = true;
      });
    });
  }

  // Affected advertisers: today's arrivals, anyone still unsatisfied
  // (freed churn inventory may serve them), and the owners of
  // blast-radius billboards.
  const int32_t n = state.num_advertisers();
  std::vector<bool> affected(static_cast<size_t>(n), false);
  for (size_t a = first_new; a < static_cast<size_t>(n); ++a) {
    affected[a] = true;
  }
  for (int32_t a = 0; a < n; ++a) {
    if (!state.IsSatisfied(a)) affected[static_cast<size_t>(a)] = true;
  }
  for (int32_t o = 0; o < index_->num_billboards(); ++o) {
    if (!radius[static_cast<size_t>(o)]) continue;
    market::AdvertiserId owner = state.OwnerOf(o);
    if (owner != market::kNoAdvertiser) {
      affected[static_cast<size_t>(owner)] = true;
    }
  }
  std::vector<market::AdvertiserId> targets;
  for (int32_t a = 0; a < n; ++a) {
    if (affected[static_cast<size_t>(a)]) targets.push_back(a);
  }
  result->reoptimized_advertisers = static_cast<int32_t>(targets.size());

  const double incumbent_regret = state.TotalRegret();
  const RegretBreakdown incumbent = state.Breakdown();

  // Re-optimize the affected set: release its inventory, re-run the
  // restricted greedy, then a bounded restricted local-search polish.
  common::Stopwatch greedy_watch;
  if (!targets.empty()) {
    for (market::AdvertiserId a : targets) state.ReleaseAll(a);
    SynchronousGreedyOver(&state, targets);
  }
  result->report.AddPhase("greedy", greedy_watch.ElapsedSeconds());
  if (!targets.empty()) {
    common::Stopwatch search_watch;
    LocalSearchConfig search = config_.solver.local_search;
    search.max_sweeps = kIncrementalSweeps;
    BillboardDrivenLocalSearchOver(&state, targets, search);
    result->report.AddPhase("local_search", search_watch.ElapsedSeconds());
  }

  // Never-worse guard: re-optimizing a released blast radius can lose
  // ground (greedy is not monotone in its starting point); keep the
  // stored sets and their breakdown if they were better.
  if (state.TotalRegret() > incumbent_regret + 1e-9) {
    result->breakdown = incumbent;
  } else {
    MROAM_DCHECK(Holds(state.CheckInvariants()));
    Deploy(SetsOf(state), result);
    result->breakdown = state.Breakdown();
  }
  result->mode = ReplanMode::kIncremental;
  result->report.label = "incremental";
  MROAM_COUNTER_ADD("market.replan_incremental", 1);
}

DayResult DailyMarket::AdvanceDay(
    std::vector<market::Advertiser> arrivals) {
  MROAM_TRACE_SPAN_ID("market.advance_day", day_ + 1);
  common::Stopwatch watch;
  DayResult result;
  result.day = ++day_;
  result.cancelled = cancelled_since_last_day_;
  cancelled_since_last_day_ = 0;

  size_t first_new = 0;
  {
    // Expire: contracts whose term is over release their inventory into
    // the churn pool; then admit today's arrivals. One span covers both —
    // it is the non-solver bookkeeping slice of the day.
    MROAM_TRACE_SPAN("market.expire_admit");
    result.expired =
        RemoveIf([this](size_t i) { return expires_on_[i] <= day_; });
    result.arrived = static_cast<int32_t>(arrivals.size());
    first_new = tickets_.size();
    for (const market::Advertiser& a : arrivals) {
      result.admitted_tickets.push_back(next_ticket_);
      Append(a, next_ticket_++, day_ + config_.contract_duration_days, {});
    }
    result.active_contracts = active_contracts();
  }

  const std::vector<model::BillboardId> churn = std::move(churn_released_);
  churn_released_.clear();
  result.churn_boards = static_cast<int32_t>(churn.size());

  if (tickets_.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }

  if (config_.policy == ReplanPolicy::kReoptimizeAll) {
    ReplanFull(&result);
  } else if (config_.policy == ReplanPolicy::kIncremental) {
    ReplanIncremental(first_new, churn, &result);
  } else {
    // Lock-existing: restore yesterday's deployment (arrivals hold no
    // boards yet), then hand remaining inventory to the new or
    // still-unsatisfied contracts greedily.
    MROAM_TRACE_SPAN("market.replan_lock");
    Assignment state(index_, terms_, config_.solver.regret,
                     config_.solver.impression_threshold);
    state.RestoreDeployment(sets_);
    common::Stopwatch greedy_watch;
    SynchronousGreedy(&state);
    Deploy(SetsOf(state), &result);
    result.breakdown = state.Breakdown();
    result.mode = ReplanMode::kGreedy;
    result.report.label = ReplanPolicyName(config_.policy);
    result.report.AddPhase("greedy", greedy_watch.ElapsedSeconds());
  }
  MROAM_DCHECK(Holds(CheckDayPlan(index_, config_.solver, terms_, sets_,
                                  result.breakdown)));
  MROAM_COUNTER_ADD("market.boards_touched", result.boards_touched);
  MROAM_COUNTER_ADD("market.churn_boards", result.churn_boards);
  result.seconds = watch.ElapsedSeconds();
  result.report.AddPhase("day_total", result.seconds);
  return result;
}

}  // namespace mroam::core
