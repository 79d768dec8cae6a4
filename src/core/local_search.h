#ifndef MROAM_CORE_LOCAL_SEARCH_H_
#define MROAM_CORE_LOCAL_SEARCH_H_

#include <cstdint>

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

  /// BLS only: per advertiser pair, cap on (o_m, o_n) exchange candidates
  /// examined per sweep. 0 = exhaustive (the paper's neighborhood). A
  /// positive cap samples candidates uniformly — an efficiency knob for
  /// large instances that does not change the neighborhood definition,
  /// only which improving move is found first (DESIGN.md §5.2).
  int64_t max_exchange_candidates = 0;

  /// BLS only: when true, each exchange scan (moves 1-2) applies the
  /// *best* improving candidate it examined instead of the first one
  /// (the paper's ∃-semantics). Costs a full scan per applied move; the
  /// ablation bench measures whether the steeper descent pays off.
  bool best_improvement = false;

  /// Selection engine for every greedy completion this config reaches:
  /// the SynchronousGreedy seeding/completion of Algorithm 3's restarts
  /// and the BLS move-4 completion (and, via SolverConfig, the standalone
  /// G-Order / G-Global methods). true (default) = CELF-style lazy
  /// selection with cached upper bounds (core::LazySelector); false =
  /// exhaustive scan. Results are bit-identical either way — the lazy
  /// engine only prunes candidates that provably cannot win — so this is
  /// an escape hatch and A/B knob, not a semantic switch. With
  /// impression_threshold > 1 the lazy engine falls back to the
  /// exhaustive scan by itself (DESIGN.md §5.1).
  bool lazy_selection = true;

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

/// Algorithm 4 — Advertiser-driven Local Search: repeatedly exchanges the
/// *entire* billboard sets of advertiser pairs while that reduces total
/// regret. Mutates `assignment` in place; never leaves it worse.
LocalSearchStats AdvertiserDrivenLocalSearch(Assignment* assignment,
                                             const LocalSearchConfig& config);

/// Algorithm 5 — Billboard-driven Local Search: fine-grained moves —
/// (1) exchange two assigned billboards across advertisers, (2) replace an
/// assigned billboard by an unassigned one, (3) release an assigned
/// billboard, (4) allocate unassigned billboards via SynchronousGreedy —
/// applied while they reduce total regret. Mutates `assignment` in place;
/// never leaves it worse. `rng` drives candidate sampling when
/// config.max_exchange_candidates > 0.
LocalSearchStats BillboardDrivenLocalSearch(Assignment* assignment,
                                            const LocalSearchConfig& config,
                                            common::Rng* rng);

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
    const LocalSearchConfig& config, common::Rng* rng);

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
