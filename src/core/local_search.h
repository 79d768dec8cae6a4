#ifndef MROAM_CORE_LOCAL_SEARCH_H_
#define MROAM_CORE_LOCAL_SEARCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/assignment.h"

namespace mroam::core {

/// Knobs of the local-search framework (Algorithms 3-5).
struct LocalSearchConfig {
  /// Number of randomized restarts in Algorithm 3 (its "preset count").
  int32_t restarts = 3;

  /// Minimum relative improvement a move must achieve to be applied —
  /// the `r` of Definition 6.1 / Theorem 2. A move with regret delta `d`
  /// is accepted iff d <= -(1e-9 + r * |current total regret|). 0 accepts
  /// any strict improvement.
  double improvement_ratio = 0.0;

  /// Safety cap on full neighborhood sweeps per local-search invocation.
  int32_t max_sweeps = 50;

  /// BLS only: when true, each scan of moves 1-2 applies the *best*
  /// improving candidate it examined instead of the first one (the
  /// paper's ∃-semantics). It costs a full scan per applied move, and it
  /// stays because it reached lower regret: 2404.3 against 2408.4 in the
  /// NYC-like ablation (at 470k against 186k deltas), and lower on 20 of
  /// the 48 BLS rows of Figs 2-7 and 10-12, higher on 6 (five of them the
  /// SG-like default point, which recurs in Figs 7, 11 and 12).
  bool best_improvement = false;

  /// Worker threads for Algorithm 3's restarts (the restarts are
  /// independent, so they parallelize perfectly). 1 = serial (default);
  /// 0 = one thread per hardware core; n > 1 = exactly n threads. The
  /// result is bit-identical for every value: each restart's Rng stream
  /// is forked from the caller's seed before dispatch and the winner is
  /// reduced by (regret, restart index), so neither thread count nor
  /// scheduling order can influence the outcome (DESIGN.md §5.4).
  int32_t num_threads = 1;
};

/// Counters reported by the local-search routines.
struct LocalSearchStats {
  int64_t moves_applied = 0;
  int64_t deltas_evaluated = 0;
  int32_t sweeps = 0;
};

/// Scores an exhaustive scan of BLS move 1 or 2 from a per-row table
/// (DESIGN.md §5.2). Every MarginalLoss and MarginalGain is an O(1) read
/// of the counters' maintained marginals, and the gain of o_n after
/// removing o_m is
///   MarginalGain(o_n) + Σ_{t ∈ L(o_m) ∩ L(o_n)} ([c_t = m] − [c_t = m−1]),
/// whose sums one CoverageCounter::ForEachRemoveShift walk of o_m fills
/// for every column at once. The same integers then go through
/// Assignment::RegretDelta, so every delta equals DeltaExchangeAcross /
/// DeltaReplace bit for bit. BillboardDrivenLocalSearchOver owns one per
/// call and reuses its storage across scans; a loaded row is valid until
/// the assignment next changes.
///
/// RowBound lets a scan skip a row's walk when no column can be accepted.
/// Each correction sums [c_t = m] − [c_t = m−1] over L(o_m) ∩ L(o_n), so
/// under its owner's counter it lies in
///   [−min(gain(o_m), gain(o_n)), min(loss(o_m), loss(o_n))],
/// and every new influence lies in an interval read off the tables in
/// O(1). Eq. 1's regret is non-increasing below the demand and
/// non-decreasing from it, and RegretDelta is monotone in each term, so
/// RegretDelta at the demand clamped into each interval is at most every
/// delta that column can produce. CoarseRowBound does the same in O(1)
/// per row over the hull of the columns' intervals, built from the
/// columns' extreme gains and losses, so it never exceeds RowBound: a
/// scan tries it first and skips exactly the rows RowBound alone would.
class MoveScanTables {
 public:
  /// Starts the scan of advertiser `i`'s billboards (the rows) against
  /// advertiser `j`'s (move 1, the cross exchange) or, with
  /// j == market::kNoAdvertiser, against the free pool (move 2, replace).
  void Start(const Assignment& assignment, market::AdvertiserId i,
             market::AdvertiserId j);

  /// o_m candidates, S_i.
  const std::vector<model::BillboardId>& rows() const { return *rows_; }
  /// o_n candidates, S_j or the free pool.
  const std::vector<model::BillboardId>& cols() const { return *cols_; }

  /// A lower bound on the delta of (rows()[x], o_n) over every column
  /// o_n, from the tables alone: no walk, and no LoadRow needed.
  double RowBound(size_t x) const;

  /// A lower bound on RowBound(x) in O(1), from the extremes Start
  /// gathered over the columns.
  double CoarseRowBound(size_t x) const;

  /// Fills the table of row `x`; Delta then scores (rows()[x], o_n).
  void LoadRow(size_t x);

  /// The regret delta of moving (rows()[x], cols()[y]) for the loaded
  /// row x.
  double Delta(size_t y) const {
    const model::BillboardId on = (*cols_)[y];
    const Correction& corr = corr_[on];
    const int64_t new_i =
        base_i_ - row_loss_ + ci_->MarginalGain(on) + corr.own;
    if (cj_ == nullptr) return s_->RegretDelta(i_, new_i);
    const int64_t new_j =
        base_j_ - cj_->MarginalLoss(on) + row_gain_ + corr.partner;
    return s_->RegretDelta(i_, new_i, j_, new_j);
  }

 private:
  /// The summed shifts of one column board against the loaded row: for
  /// i's gain of o_n after removing o_m, and (exchange) for j's gain of
  /// o_m after removing o_n.
  struct Correction {
    int32_t own = 0;
    int32_t partner = 0;
  };

  /// Extremes of the columns' marginals over the scan, for
  /// CoarseRowBound: i's gain and loss of o_n and (exchange) j's.
  struct ColumnExtremes {
    int64_t min_gain_i = std::numeric_limits<int64_t>::max();
    int64_t max_gain_i = 0;
    int64_t max_loss_i = 0;
    int64_t min_loss_j = std::numeric_limits<int64_t>::max();
    int64_t max_loss_j = 0;
    int64_t max_gain_j = 0;
  };

  const Assignment* s_ = nullptr;
  market::AdvertiserId i_ = market::kNoAdvertiser;
  market::AdvertiserId j_ = market::kNoAdvertiser;
  const influence::CoverageCounter* ci_ = nullptr;
  const influence::CoverageCounter* cj_ = nullptr;  ///< null for replace
  const std::vector<model::BillboardId>* rows_ = nullptr;
  const std::vector<model::BillboardId>* cols_ = nullptr;
  int64_t base_i_ = 0;    ///< I(S_i)
  int64_t base_j_ = 0;    ///< I(S_j) (exchange)
  int64_t row_loss_ = 0;  ///< i's MarginalLoss of the row board
  int64_t row_gain_ = 0;  ///< j's MarginalGain of the row board
  ColumnExtremes extremes_;
  std::vector<Correction> corr_;  ///< by billboard; zero off touched_
  /// Entries LoadRow may have made nonzero (repeats allowed).
  std::vector<model::BillboardId> touched_;
};

/// Algorithm 4 — Advertiser-driven Local Search: repeatedly exchanges the
/// *entire* billboard sets of advertiser pairs while that reduces total
/// regret. Mutates `assignment` in place; never leaves it worse.
LocalSearchStats AdvertiserDrivenLocalSearch(Assignment* assignment,
                                             const LocalSearchConfig& config);

/// Algorithm 5 — Billboard-driven Local Search: fine-grained moves —
/// (1) exchange two assigned billboards across advertisers, (2) replace an
/// assigned billboard by an unassigned one, (3) release an assigned
/// billboard, (4) allocate unassigned billboards via SynchronousGreedy
/// while some advertiser is unsatisfied — applied while they reduce total
/// regret. Moves 1-2 scan their whole neighborhood (DESIGN.md §5.2).
/// Mutates `assignment` in place; never leaves it worse.
LocalSearchStats BillboardDrivenLocalSearch(Assignment* assignment,
                                            const LocalSearchConfig& config);

/// Restricted Billboard-driven Local Search: the same four move classes,
/// but every move endpoint is limited to the advertisers in `targets`
/// (exchanges consider target pairs only; replace/release scan targets;
/// the completion move re-runs the restricted greedy). Advertisers outside
/// `targets` keep their deployment bit-for-bit. With `targets` =
/// {0, ..., n-1} this is exactly BillboardDrivenLocalSearch. The
/// incremental replanner runs it with a small `config.max_sweeps` over the
/// churn's blast radius.
LocalSearchStats BillboardDrivenLocalSearchOver(
    Assignment* assignment, const std::vector<market::AdvertiserId>& targets,
    const LocalSearchConfig& config);

/// The neighborhood strategy plugged into the randomized framework.
enum class SearchStrategy {
  kAdvertiserDriven,  ///< ALS (Algorithm 4)
  kBillboardDriven,   ///< BLS (Algorithm 5)
};

/// Algorithm 3 — Randomized Local Search framework: the incumbent starts
/// as SynchronousGreedy's plan *improved by the chosen local search* (it
/// competes on equal terms with the restarts); each restart seeds every
/// advertiser with one random billboard, completes the plan with
/// SynchronousGreedy, runs the chosen local search, and keeps the best
/// plan seen, ties broken toward the incumbent then earlier restarts.
/// Restarts run on `config.num_threads` threads; the result is
/// bit-identical for any thread count at a fixed seed.
/// `impression_threshold` selects the influence measure (see Assignment).
Assignment RandomizedLocalSearch(
    const influence::InfluenceIndex& index,
    const std::vector<market::Advertiser>& ads, const RegretParams& params,
    SearchStrategy strategy, const LocalSearchConfig& config, common::Rng* rng,
    LocalSearchStats* stats = nullptr, uint16_t impression_threshold = 1);

}  // namespace mroam::core

#endif  // MROAM_CORE_LOCAL_SEARCH_H_
