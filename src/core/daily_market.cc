#include "core/daily_market.h"

#include <algorithm>
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

}  // namespace

DailyMarket::DailyMarket(const influence::InfluenceIndex* index,
                         DailyMarketConfig config)
    : index_(index), config_(std::move(config)) {
  MROAM_CHECK(config_.contract_duration_days >= 1);
}

void DailyMarket::RefreshCaches() {
  terms_cache_.clear();
  sets_cache_.clear();
  tickets_cache_.clear();
  ticket_index_.clear();
  for (size_t i = 0; i < contracts_.size(); ++i) {
    contracts_[i].terms.id = static_cast<market::AdvertiserId>(i);
    terms_cache_.push_back(contracts_[i].terms);
    sets_cache_.push_back(contracts_[i].billboards);
    tickets_cache_.push_back(contracts_[i].ticket);
    ticket_index_[contracts_[i].ticket] = i;
  }
}

market::ContractBook DailyMarket::ExportBook() const {
  market::ContractBook book;
  book.day = day_;
  book.next_ticket = next_ticket_;
  book.entries.reserve(contracts_.size());
  for (const Contract& c : contracts_) {
    market::ContractBookEntry entry;
    entry.terms = c.terms;
    entry.ticket = c.ticket;
    entry.expires_on = c.expires_on;
    entry.billboards = c.billboards;
    book.entries.push_back(std::move(entry));
  }
  return book;
}

void DailyMarket::RestoreBook(const market::ContractBook& book) {
  MROAM_CHECK(day_ == 0 && next_ticket_ == 1 && contracts_.empty())
      << "RestoreBook requires a fresh market (day " << day_ << ", "
      << contracts_.size() << " contracts held)";
  MROAM_CHECK(book.next_ticket >= 1);
  day_ = book.day;
  next_ticket_ = book.next_ticket;
  contracts_.reserve(book.entries.size());
  for (const market::ContractBookEntry& entry : book.entries) {
    MROAM_CHECK(entry.ticket >= 1 && entry.ticket < book.next_ticket)
        << "restored ticket " << entry.ticket
        << " outside the minted range";
    Contract c;
    c.terms = entry.terms;
    c.ticket = entry.ticket;
    c.expires_on = entry.expires_on;
    c.billboards = entry.billboards;
    contracts_.push_back(std::move(c));
  }
  RefreshCaches();
}

bool DailyMarket::Cancel(int64_t ticket) {
  auto it = ticket_index_.find(ticket);
  if (it == ticket_index_.end()) return false;
  const size_t i = it->second;
  // The withdrawn inventory joins the churn pool: the next incremental
  // replan re-optimizes its blast radius.
  churn_released_.insert(churn_released_.end(),
                         contracts_[i].billboards.begin(),
                         contracts_[i].billboards.end());
  ++cancelled_since_last_day_;
  ticket_index_.erase(it);
  contracts_.erase(contracts_.begin() + static_cast<ptrdiff_t>(i));
  terms_cache_.erase(terms_cache_.begin() + static_cast<ptrdiff_t>(i));
  sets_cache_.erase(sets_cache_.begin() + static_cast<ptrdiff_t>(i));
  tickets_cache_.erase(tickets_cache_.begin() + static_cast<ptrdiff_t>(i));
  // Re-number the shifted tail: dense ids and map entries move down one.
  for (size_t j = i; j < contracts_.size(); ++j) {
    contracts_[j].terms.id = static_cast<market::AdvertiserId>(j);
    terms_cache_[j].id = static_cast<market::AdvertiserId>(j);
    ticket_index_[contracts_[j].ticket] = j;
  }
  return true;
}

void DailyMarket::ReplanFull(DayResult* result) {
  MROAM_TRACE_SPAN("market.replan_full");
  SolveResult solve = Solve(*index_, terms_cache_, config_.solver);
  for (size_t i = 0; i < contracts_.size(); ++i) {
    contracts_[i].billboards = solve.sets[i];
  }
  result->breakdown = solve.breakdown;
  result->report = std::move(solve.report);
  result->mode = ReplanMode::kFull;
  last_full_regret_ = solve.breakdown.total;
  have_full_solve_ = true;
}

void DailyMarket::ReplanIncremental(
    size_t first_new, const std::vector<model::BillboardId>& churn,
    DayResult* result) {
  MROAM_TRACE_SPAN("market.replan_incremental");
  // Without a drift anchor there is nothing to warm-start against; a
  // negative drift bound is the documented "always do the full solve"
  // switch. Both paths run the same Solve as kReoptimizeAll.
  if (!have_full_solve_ || config_.incremental.max_regret_drift < 0.0) {
    result->full_solve_fallback = true;
    MROAM_COUNTER_ADD("market.replan_full_fallback", 1);
    ReplanFull(result);
    return;
  }

  // Restore yesterday's deployment over today's roster (survivors keep
  // their boards; arrivals start empty).
  Assignment state(index_, terms_cache_, config_.solver.regret,
                   config_.solver.impression_threshold);
  state.RestoreDeployment(sets_cache_);

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

  // Re-optimize the affected set: release its inventory, re-run the
  // restricted greedy, then a bounded restricted local-search polish.
  common::Stopwatch greedy_watch;
  if (!targets.empty()) {
    for (market::AdvertiserId a : targets) state.ReleaseAll(a);
    SynchronousGreedyOver(&state, targets);
  }
  result->report.AddPhase("greedy", greedy_watch.ElapsedSeconds());
  if (!targets.empty() && config_.incremental.local_search_sweeps > 0) {
    common::Stopwatch search_watch;
    LocalSearchConfig search = config_.solver.local_search;
    search.max_sweeps = config_.incremental.local_search_sweeps;
    BillboardDrivenLocalSearchOver(&state, targets, search);
    result->report.AddPhase("local_search", search_watch.ElapsedSeconds());
  }

  // Never-worse guard: re-optimizing a released blast radius can lose
  // ground (greedy is not monotone in its starting point); keep the
  // restored incumbent if it was better.
  if (state.TotalRegret() > incumbent_regret + 1e-9) {
    Assignment revert(index_, terms_cache_, config_.solver.regret,
                      config_.solver.impression_threshold);
    revert.RestoreDeployment(sets_cache_);
    state = std::move(revert);
  }

  // Drift bound: keep the warm-started plan only while its regret stays
  // within the configured margin of the last full solve, measured in
  // payment units so the bound survives zero-regret anchors.
  double payment_scale = 0.0;
  for (const market::Advertiser& a : terms_cache_) {
    payment_scale += a.payment;
  }
  const double bound = last_full_regret_ +
                       config_.incremental.max_regret_drift * payment_scale;
  if (state.TotalRegret() > bound + 1e-9) {
    result->full_solve_fallback = true;
    MROAM_COUNTER_ADD("market.replan_full_fallback", 1);
    ReplanFull(result);
    return;
  }

  MROAM_DCHECK(Holds(state.CheckInvariants()));
  for (size_t i = 0; i < contracts_.size(); ++i) {
    contracts_[i].billboards =
        state.BillboardsOf(static_cast<market::AdvertiserId>(i));
  }
  result->breakdown = state.Breakdown();
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
    size_t before = contracts_.size();
    for (const Contract& c : contracts_) {
      if (c.expires_on <= day_) {
        churn_released_.insert(churn_released_.end(), c.billboards.begin(),
                               c.billboards.end());
      }
    }
    contracts_.erase(
        std::remove_if(contracts_.begin(), contracts_.end(),
                       [this](const Contract& c) {
                         return c.expires_on <= day_;
                       }),
        contracts_.end());
    result.expired = static_cast<int32_t>(before - contracts_.size());

    // Admit today's arrivals.
    result.arrived = static_cast<int32_t>(arrivals.size());
    first_new = contracts_.size();
    for (market::Advertiser& a : arrivals) {
      Contract c;
      c.terms = a;
      c.ticket = next_ticket_++;
      c.expires_on = day_ + config_.contract_duration_days;
      result.admitted_tickets.push_back(c.ticket);
      contracts_.push_back(std::move(c));
    }
    RefreshCaches();
    result.active_contracts = static_cast<int32_t>(contracts_.size());
  }

  const std::vector<model::BillboardId> churn = std::move(churn_released_);
  churn_released_.clear();
  result.churn_boards = static_cast<int32_t>(churn.size());

  if (contracts_.empty()) {
    // An empty book is a (trivially optimal) full solve: re-anchor drift.
    last_full_regret_ = 0.0;
    have_full_solve_ = true;
    result.seconds = watch.ElapsedSeconds();
    return result;
  }

  // Snapshot the restored incumbent so the day can report how many boards
  // the replan actually moved.
  const std::vector<std::vector<model::BillboardId>> incumbent = sets_cache_;

  if (config_.policy == ReplanPolicy::kReoptimizeAll) {
    ReplanFull(&result);
  } else if (config_.policy == ReplanPolicy::kIncremental) {
    ReplanIncremental(first_new, churn, &result);
  } else {
    // Lock-existing: restore yesterday's deployment, then hand remaining
    // inventory to the (new or still-unsatisfied) contracts greedily.
    MROAM_TRACE_SPAN("market.replan_lock");
    Assignment state(index_, terms_cache_, config_.solver.regret,
                     config_.solver.impression_threshold);
    for (size_t i = 0; i < first_new; ++i) {
      for (model::BillboardId o : contracts_[i].billboards) {
        state.Assign(o, static_cast<market::AdvertiserId>(i));
      }
    }
    common::Stopwatch greedy_watch;
    SynchronousGreedy(&state);
    for (size_t i = 0; i < contracts_.size(); ++i) {
      contracts_[i].billboards =
          state.BillboardsOf(static_cast<market::AdvertiserId>(i));
    }
    result.breakdown = state.Breakdown();
    result.mode = ReplanMode::kGreedy;
    result.report.label = ReplanPolicyName(config_.policy);
    result.report.AddPhase("greedy", greedy_watch.ElapsedSeconds());
  }
  RefreshCaches();
  MROAM_DCHECK(Holds(CheckDayPlan(index_, config_.solver, terms_cache_,
                                  sets_cache_, result.breakdown)));
  result.boards_touched =
      CountDeploymentDiff(incumbent, sets_cache_, index_->num_billboards());
  MROAM_COUNTER_ADD("market.boards_touched", result.boards_touched);
  MROAM_COUNTER_ADD("market.churn_boards", result.churn_boards);
  result.seconds = watch.ElapsedSeconds();
  result.report.AddPhase("day_total", result.seconds);
  return result;
}

}  // namespace mroam::core
