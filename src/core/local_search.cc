#include "core/local_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::core {

using market::AdvertiserId;
using model::BillboardId;

namespace {

constexpr double kAbsEps = 1e-9;

/// Move acceptance per Definition 6.1: improve by at least the ratio `r`
/// of the current objective (plus an absolute epsilon against FP cycling).
bool Accepts(double delta, double current_total, double r) {
  return delta <= -(kAbsEps + r * std::abs(current_total));
}

/// The influence nearest `demand` that `base + k` can reach, where the
/// correction k lies in [−min(gain_m, gain_n), min(loss_m, loss_n)].
int64_t NearestReachable(int64_t demand, int64_t base, int64_t gain_m,
                         int64_t gain_n, int64_t loss_m, int64_t loss_n) {
  return std::clamp(demand, base - std::min(gain_m, gain_n),
                    base + std::min(loss_m, loss_n));
}

}  // namespace

LocalSearchStats AdvertiserDrivenLocalSearch(Assignment* assignment,
                                             const LocalSearchConfig& config) {
  MROAM_TRACE_SPAN("als.search");
  LocalSearchStats stats;
  const int32_t n = assignment->num_advertisers();
  bool improved = true;
  while (improved && stats.sweeps < config.max_sweeps) {
    MROAM_TRACE_SPAN_ID("als.sweep", stats.sweeps);
    improved = false;
    ++stats.sweeps;
    for (AdvertiserId i = 0; i < n; ++i) {
      for (AdvertiserId j = i + 1; j < n; ++j) {
        ++stats.deltas_evaluated;
        double delta = assignment->DeltaSwapSets(i, j);
        if (Accepts(delta, assignment->TotalRegret(),
                    config.improvement_ratio)) {
          assignment->SwapSets(i, j);
          ++stats.moves_applied;
          improved = true;
        }
      }
    }
  }
  // Registry writes happen once per search, never in the delta loop.
  MROAM_COUNTER_ADD("als.searches", 1);
  MROAM_COUNTER_ADD("als.sweeps", stats.sweeps);
  MROAM_COUNTER_ADD("als.moves_applied", stats.moves_applied);
  MROAM_COUNTER_ADD("als.deltas_evaluated", stats.deltas_evaluated);
  return stats;
}

void MoveScanTables::Start(const Assignment& assignment, AdvertiserId i,
                           AdvertiserId j) {
  s_ = &assignment;
  i_ = i;
  j_ = j;
  ci_ = &assignment.CounterOf(i);
  rows_ = &assignment.BillboardsOf(i);
  base_i_ = assignment.InfluenceOf(i);
  if (j != market::kNoAdvertiser) {
    cj_ = &assignment.CounterOf(j);
    cols_ = &assignment.BillboardsOf(j);
    base_j_ = assignment.InfluenceOf(j);
  } else {
    cj_ = nullptr;
    cols_ = &assignment.FreeBillboards();
    base_j_ = 0;
  }
  // Resize, not assign: the storage outlives the scan, so after the first
  // scans no call allocates. corr_ stays zero outside touched_.
  corr_.resize(static_cast<size_t>(assignment.num_billboards()));
  extremes_ = ColumnExtremes{};
  ColumnExtremes& e = extremes_;
  for (const BillboardId on : *cols_) {
    e.min_gain_i = std::min(e.min_gain_i, ci_->MarginalGain(on));
    e.max_gain_i = std::max(e.max_gain_i, ci_->MarginalGain(on));
    e.max_loss_i = std::max(e.max_loss_i, ci_->MarginalLoss(on));
    if (cj_ == nullptr) continue;
    e.min_loss_j = std::min(e.min_loss_j, cj_->MarginalLoss(on));
    e.max_loss_j = std::max(e.max_loss_j, cj_->MarginalLoss(on));
    e.max_gain_j = std::max(e.max_gain_j, cj_->MarginalGain(on));
  }
}

double MoveScanTables::CoarseRowBound(size_t x) const {
  if (cols_->empty()) return std::numeric_limits<double>::infinity();
  const ColumnExtremes& e = extremes_;
  const BillboardId om = (*rows_)[x];
  // Column o_n's interval for i is base + [max(0, gain(o_n) − gain(o_m)),
  // gain(o_n) + min(loss(o_m), loss(o_n))], inside this hull.
  const int64_t gain_i = ci_->MarginalGain(om);
  const int64_t loss_i = ci_->MarginalLoss(om);
  const int64_t base_i = base_i_ - loss_i;
  const int64_t near_i =
      std::clamp(s_->advertiser(i_).demand,
                 base_i + std::max<int64_t>(0, e.min_gain_i - gain_i),
                 base_i + e.max_gain_i + std::min(loss_i, e.max_loss_i));
  if (cj_ == nullptr) return s_->RegretDelta(i_, near_i);
  // For j: I(S_j) − loss(o_n) + gain(o_m) + [−min(gain(o_m), gain(o_n)),
  // min(loss(o_m), loss(o_n))].
  const int64_t gain_j = cj_->MarginalGain(om);
  const int64_t base_j = base_j_ + gain_j;
  const int64_t near_j = std::clamp(
      s_->advertiser(j_).demand,
      base_j - e.max_loss_j - std::min(gain_j, e.max_gain_j),
      base_j - e.min_loss_j + std::min(cj_->MarginalLoss(om), e.max_loss_j));
  return s_->RegretDelta(i_, near_i, j_, near_j);
}

double MoveScanTables::RowBound(size_t x) const {
  const BillboardId om = (*rows_)[x];
  const int64_t demand_i = s_->advertiser(i_).demand;
  const int64_t gain_i = ci_->MarginalGain(om);
  const int64_t loss_i = ci_->MarginalLoss(om);
  // The exchange also moves o_n out of S_j and o_m into it.
  const int64_t demand_j = cj_ != nullptr ? s_->advertiser(j_).demand : 0;
  const int64_t gain_j = cj_ != nullptr ? cj_->MarginalGain(om) : 0;
  const int64_t loss_j = cj_ != nullptr ? cj_->MarginalLoss(om) : 0;
  double bound = std::numeric_limits<double>::infinity();
  for (const BillboardId on : *cols_) {
    const int64_t gi = ci_->MarginalGain(on);
    const int64_t near_i =
        NearestReachable(demand_i, base_i_ - loss_i + gi, gain_i, gi, loss_i,
                         ci_->MarginalLoss(on));
    if (cj_ == nullptr) {
      bound = std::min(bound, s_->RegretDelta(i_, near_i));
      continue;
    }
    const int64_t lj = cj_->MarginalLoss(on);
    const int64_t near_j =
        NearestReachable(demand_j, base_j_ - lj + gain_j, gain_j,
                         cj_->MarginalGain(on), loss_j, lj);
    bound = std::min(bound, s_->RegretDelta(i_, near_i, j_, near_j));
  }
  return bound;
}

void MoveScanTables::LoadRow(size_t x) {
  for (BillboardId o : touched_) corr_[o] = Correction{};
  touched_.clear();
  const BillboardId om = (*rows_)[x];
  row_loss_ = ci_->MarginalLoss(om);
  if (cj_ != nullptr) row_gain_ = cj_->MarginalGain(om);
  // Columns are exactly the boards j_ owns (kNoAdvertiser: the free pool).
  ci_->ForEachRemoveShift(om, cj_, [this](BillboardId o, int shift,
                                          int partner_shift) {
    if (s_->OwnerOf(o) != j_) return;
    Correction& corr = corr_[o];
    if (corr.own == 0 && corr.partner == 0) touched_.push_back(o);
    corr.own += shift;
    corr.partner += partner_shift;
  });
}

namespace {

/// The candidate a scan of move 1 or 2 picked, if any.
struct Pick {
  BillboardId om = model::kInvalidBillboard;
  BillboardId on = model::kInvalidBillboard;
  double delta = 0.0;
  bool found() const { return om != model::kInvalidBillboard; }
};

/// DeltaExchangeAcross or (j == kNoAdvertiser) DeltaReplace.
double ReferenceDelta(const Assignment& s, AdvertiserId j, BillboardId om,
                      BillboardId on) {
  return j == market::kNoAdvertiser ? s.DeltaReplace(om, on)
                                    : s.DeltaExchangeAcross(om, on);
}

/// True when no (om, o_n), o_n in `cols`, passes Accepts on its reference
/// delta: what the Debug build checks of every row the bound skips.
bool NoColumnAccepts(const Assignment& s, AdvertiserId j, BillboardId om,
                     const std::vector<BillboardId>& cols, double r) {
  return std::none_of(cols.begin(), cols.end(), [&](BillboardId on) {
    return Accepts(ReferenceDelta(s, j, om, on), s.TotalRegret(), r);
  });
}

/// Scans (o_m, o_n) in S_i × S_j (move 1) or, with j == kNoAdvertiser,
/// S_i × the free pool (move 2) and picks the first accepted candidate, or
/// the best under config.best_improvement. The scan mutates nothing — the
/// caller applies the pick — so it walks the live lists. It is exhaustive,
/// in the paper's order, and scored from `tables`, skipping each row whose
/// CoarseRowBound or else RowBound fails the acceptance test: no column
/// of it could pass.
Pick PickMove(const Assignment& s, AdvertiserId i, AdvertiserId j,
              const LocalSearchConfig& config, MoveScanTables* tables,
              LocalSearchStats* stats) {
  Pick best;
  const std::vector<BillboardId>& rows = s.BillboardsOf(i);
  const std::vector<BillboardId>& cols =
      j == market::kNoAdvertiser ? s.FreeBillboards() : s.BillboardsOf(j);
  if (rows.empty() || cols.empty()) return best;
  const double r = config.improvement_ratio;
  tables->Start(s, i, j);
  for (size_t x = 0; x < rows.size(); ++x) {
    if (!Accepts(tables->CoarseRowBound(x), s.TotalRegret(), r) ||
        !Accepts(tables->RowBound(x), s.TotalRegret(), r)) {
      MROAM_DCHECK(NoColumnAccepts(s, j, rows[x], cols, r));
      continue;
    }
    tables->LoadRow(x);
    for (size_t y = 0; y < cols.size(); ++y) {
      const double delta = tables->Delta(y);
      MROAM_DCHECK(delta == ReferenceDelta(s, j, rows[x], cols[y]));
      ++stats->deltas_evaluated;
      // An accepted delta is negative, so the first one beats best's 0.
      if (!Accepts(delta, s.TotalRegret(), r) || delta >= best.delta) continue;
      best = {rows[x], cols[y], delta};
      if (!config.best_improvement) return best;
    }
  }
  return best;
}

/// BLS move 1 for targets[x] against each later target: apply the
/// exchange PickMove finds for every pair. The pass opens one span, not
/// one per pair: with the tracer off a span still costs ~0.1 µs for the
/// flight recorder, about as much as a pruned pair's scan (DESIGN.md §6).
bool TryExchanges(Assignment* assignment,
                  const std::vector<AdvertiserId>& targets, size_t x,
                  const LocalSearchConfig& config, MoveScanTables* tables,
                  LocalSearchStats* stats) {
  MROAM_TRACE_SPAN("bls.move.exchange");
  bool any = false;
  for (size_t y = x + 1; y < targets.size(); ++y) {
    const Pick pick =
        PickMove(*assignment, targets[x], targets[y], config, tables, stats);
    if (!pick.found()) continue;
    assignment->ExchangeAcross(pick.om, pick.on);
    ++stats->moves_applied;
    MROAM_COUNTER_ADD("bls.moves.exchange", 1);
    any = true;
  }
  return any;
}

/// BLS move 2: replace an assigned billboard of `i` by a free billboard.
/// Like move 3, it opens no span of its own (its scan takes well under a
/// microsecond at p50) and counts toward its `bls.sweep` (DESIGN.md §6).
bool TryReplaceWithFree(Assignment* assignment, AdvertiserId i,
                        const LocalSearchConfig& config, MoveScanTables* tables,
                        LocalSearchStats* stats) {
  const Pick pick =
      PickMove(*assignment, i, market::kNoAdvertiser, config, tables, stats);
  if (!pick.found()) return false;
  assignment->Replace(pick.om, pick.on);
  ++stats->moves_applied;
  MROAM_COUNTER_ADD("bls.moves.replace", 1);
  return true;
}

/// BLS move 3: release billboards of `i` whose removal reduces regret.
bool TryReleases(Assignment* assignment, AdvertiserId i,
                 const LocalSearchConfig& config, LocalSearchStats* stats) {
  // Copy: Release mutates the set we'd be iterating.
  std::vector<BillboardId> snapshot = assignment->BillboardsOf(i);
  bool any = false;
  for (BillboardId om : snapshot) {
    ++stats->deltas_evaluated;
    double delta = assignment->DeltaRelease(om);
    if (Accepts(delta, assignment->TotalRegret(),
                config.improvement_ratio)) {
      assignment->Release(om);
      ++stats->moves_applied;
      MROAM_COUNTER_ADD("bls.moves.release", 1);
      any = true;
    }
  }
  return any;
}

}  // namespace

LocalSearchStats BillboardDrivenLocalSearch(Assignment* assignment,
                                            const LocalSearchConfig& config) {
  std::vector<AdvertiserId> all(
      static_cast<size_t>(assignment->num_advertisers()));
  for (int32_t a = 0; a < assignment->num_advertisers(); ++a) all[a] = a;
  return BillboardDrivenLocalSearchOver(assignment, all, config);
}

LocalSearchStats BillboardDrivenLocalSearchOver(
    Assignment* assignment, const std::vector<AdvertiserId>& targets,
    const LocalSearchConfig& config) {
  MROAM_TRACE_SPAN("bls.search");
  LocalSearchStats stats;
  const size_t t = targets.size();
  // Move 4's candidate plan persists across sweeps: it is copy-assigned in
  // place each round, so its storage is allocated once per call.
  std::optional<Assignment> candidate;
  // Scan tables for moves 1-2, reused by every scan of this call.
  MoveScanTables tables;
  bool improved = true;
  while (improved && stats.sweeps < config.max_sweeps) {
    MROAM_TRACE_SPAN_ID("bls.sweep", stats.sweeps);
    improved = false;
    ++stats.sweeps;
    for (size_t x = 0; x < t; ++x) {
      AdvertiserId i = targets[x];
      // The cross exchange is symmetric, so unordered pairs suffice.
      if (x + 1 < t &&
          TryExchanges(assignment, targets, x, config, &tables, &stats)) {
        improved = true;
      }
      if (TryReplaceWithFree(assignment, i, config, &tables, &stats)) {
        improved = true;
      }
      if (TryReleases(assignment, i, config, &stats)) {
        improved = true;
      }
    }
    // Move 4 (lines 5.11-5.13): hand the free pool to the (restricted)
    // SynchronousGreedy; keep the completed plan only if it is strictly
    // better. Restricting the completion keeps untargeted advertisers'
    // deployments untouched, as the contract promises. The greedy hands
    // boards only to unsatisfied targets, so when every target is
    // satisfied it would change nothing and the copy is skipped.
    const bool any_unsatisfied =
        std::any_of(targets.begin(), targets.end(), [&](AdvertiserId a) {
          return !assignment->IsSatisfied(a);
        });
    if (any_unsatisfied && !assignment->FreeBillboards().empty()) {
      MROAM_TRACE_SPAN("bls.move.complete");
      if (!candidate.has_value()) {
        candidate.emplace(*assignment);
      } else {
        candidate->CopyDeploymentFrom(*assignment);
      }
      SynchronousGreedyOver(&*candidate, targets);
      if (Accepts(candidate->TotalRegret() - assignment->TotalRegret(),
                  assignment->TotalRegret(), config.improvement_ratio)) {
        assignment->CopyDeploymentFrom(*candidate);
        ++stats.moves_applied;
        MROAM_COUNTER_ADD("bls.moves.complete", 1);
        improved = true;
      }
    }
  }
  MROAM_COUNTER_ADD("bls.searches", 1);
  MROAM_COUNTER_ADD("bls.sweeps", stats.sweeps);
  MROAM_COUNTER_ADD("bls.moves_applied", stats.moves_applied);
  MROAM_COUNTER_ADD("bls.deltas_evaluated", stats.deltas_evaluated);
  return stats;
}

namespace {

/// Improves `plan` in place with the chosen neighborhood search,
/// accumulating effort counters into `stats`.
void RunStrategy(Assignment* plan, SearchStrategy strategy,
                 const LocalSearchConfig& config, LocalSearchStats* stats) {
  LocalSearchStats s;
  if (strategy == SearchStrategy::kAdvertiserDriven) {
    s = AdvertiserDrivenLocalSearch(plan, config);
  } else {
    s = BillboardDrivenLocalSearch(plan, config);
  }
  stats->moves_applied += s.moves_applied;
  stats->deltas_evaluated += s.deltas_evaluated;
  stats->sweeps += s.sweeps;
}

/// Resolves LocalSearchConfig::num_threads: 0 = all hardware threads.
int ResolveNumThreads(int32_t requested) {
  if (requested <= 0) return common::ThreadPool::HardwareThreads();
  return static_cast<int>(requested);
}

}  // namespace

Assignment RandomizedLocalSearch(const influence::InfluenceIndex& index,
                                 const std::vector<market::Advertiser>& ads,
                                 const RegretParams& params,
                                 SearchStrategy strategy,
                                 const LocalSearchConfig& config,
                                 common::Rng* rng, LocalSearchStats* stats,
                                 uint16_t impression_threshold) {
  MROAM_TRACE_SPAN("rls.run");
  const int32_t restarts = std::max(config.restarts, 0);
  const int32_t tasks = restarts + 1;  // task 0 is the greedy incumbent

  // Fork every task's Rng stream from the caller's generator *before*
  // any work is dispatched: each task's randomness is then a pure
  // function of (caller seed, task index), so the outcome is
  // bit-identical for every thread count and scheduling order. The
  // incumbent draws nothing from its stream; forking it anyway keeps
  // restart t on the caller's fork t + 1.
  std::vector<common::Rng> task_rngs;
  task_rngs.reserve(static_cast<size_t>(tasks));
  for (int32_t t = 0; t < tasks; ++t) task_rngs.push_back(rng->Fork());

  // Each task owns its slot: no synchronization beyond the join.
  std::vector<std::optional<Assignment>> plans(static_cast<size_t>(tasks));
  std::vector<LocalSearchStats> task_stats(static_cast<size_t>(tasks));

  auto run_task = [&](int64_t t) {
    // Task 0 is the deterministic incumbent; t >= 1 are random restarts.
    MROAM_TRACE_SPAN_ID(t == 0 ? "rls.incumbent" : "rls.restart", t);
    common::Stopwatch phase_watch;
    Assignment plan(&index, ads, params, impression_threshold);
    if (t == 0) {
      // Line 3.1: incumbent from the deterministic synchronous greedy —
      // improved by the same local search as every restart, so it
      // competes on equal terms.
      SynchronousGreedy(&plan);
    } else {
      // Lines 3.3-3.7: seed every advertiser with one random billboard.
      for (AdvertiserId a = 0;
           a < plan.num_advertisers() && !plan.FreeBillboards().empty();
           ++a) {
        const std::vector<BillboardId>& free = plan.FreeBillboards();
        plan.Assign(free[task_rngs[t].UniformU64(free.size())], a);
      }
      // Line 3.8: complete the plan greedily.
      SynchronousGreedy(&plan);
    }
    MROAM_HISTOGRAM_OBSERVE("rls.greedy_seconds",
                            phase_watch.ElapsedSeconds());
    phase_watch.Restart();
    // Line 3.9: local search.
    RunStrategy(&plan, strategy, config, &task_stats[t]);
    MROAM_HISTOGRAM_OBSERVE("rls.search_seconds",
                            phase_watch.ElapsedSeconds());
    plans[t] = std::move(plan);
  };

  const int num_threads = ResolveNumThreads(config.num_threads);
  if (num_threads > 1 && tasks > 1) {
    common::ThreadPool pool(std::min(num_threads, static_cast<int>(tasks)));
    common::ParallelFor(&pool, tasks, run_task);
  } else {
    common::ParallelFor(nullptr, tasks, run_task);
  }

  // Reduction (lines 3.10-3.11): lowest regret wins; ties go to the
  // lowest task index (incumbent first, then earlier restarts), keeping
  // the winner schedule-independent.
  size_t winner = 0;
  LocalSearchStats total_stats;
  for (size_t t = 0; t < plans.size(); ++t) {
    // A task that never populated its slot (a bug in the dispatch or an
    // exception swallowed by the pool) must fail loudly here, not via
    // undefined behaviour on an empty optional.
    MROAM_CHECK(plans[t].has_value())
        << "restart task " << t << " of " << plans.size()
        << " never produced a plan";
    total_stats.moves_applied += task_stats[t].moves_applied;
    total_stats.deltas_evaluated += task_stats[t].deltas_evaluated;
    total_stats.sweeps += task_stats[t].sweeps;
    if (plans[t]->TotalRegret() < plans[winner]->TotalRegret()) winner = t;
  }
  if (stats != nullptr) *stats = total_stats;
  MROAM_COUNTER_ADD("rls.runs", 1);
  MROAM_COUNTER_ADD("rls.restarts", restarts);
  return std::move(*plans[winner]);
}

}  // namespace mroam::core
