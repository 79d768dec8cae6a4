#ifndef MROAM_CORE_ASSIGNMENT_H_
#define MROAM_CORE_ASSIGNMENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/regret.h"
#include "influence/coverage_counter.h"
#include "influence/influence_index.h"
#include "market/advertiser.h"
#include "model/billboard.h"

namespace mroam::core {

/// The mutable deployment state S = {S_1, ..., S_|A|}: which advertiser
/// owns each billboard, each advertiser's incrementally-maintained
/// influence (via CoverageCounter), cached per-advertiser regret, and the
/// cached total. All solver moves go through this class, which offers both
/// constant-or-list-time *delta* queries (no mutation) and the matching
/// mutations, so local search never recomputes I(S) from scratch.
///
/// Invariants (checked by CheckInvariants):
///  * each billboard has at most one owner (sets are disjoint);
///  * counters match the owned sets; cached regrets match Regret(...).
class Assignment {
 public:
  /// Creates an all-unassigned deployment. `index` must outlive this.
  /// `impression_threshold` selects the influence measure: 1 (default) is
  /// the paper's set-union meet model; m > 1 requires a trajectory to
  /// meet m of an advertiser's billboards before it counts (the
  /// impression-count model of [29], orthogonal per §3.1).
  Assignment(const influence::InfluenceIndex* index,
             std::vector<market::Advertiser> advertisers,
             RegretParams params, uint16_t impression_threshold = 1);

  // Copyable so local search can snapshot candidate plans (counters are
  // deep-copied: 1 B per covered trajectory plus 8 B per board, for each
  // advertiser). Prefer move where possible.
  Assignment(const Assignment&) = default;
  Assignment& operator=(const Assignment&) = default;
  Assignment(Assignment&&) = default;
  Assignment& operator=(Assignment&&) = default;

  // --- Read access -------------------------------------------------------

  int32_t num_advertisers() const {
    return static_cast<int32_t>(advertisers_.size());
  }
  int32_t num_billboards() const { return index_->num_billboards(); }
  const market::Advertiser& advertiser(market::AdvertiserId a) const {
    return advertisers_[a];
  }
  const RegretParams& params() const { return params_; }
  const influence::InfluenceIndex& index() const { return *index_; }
  uint16_t impression_threshold() const { return impression_threshold_; }

  /// Owner of billboard `o`, or market::kNoAdvertiser.
  market::AdvertiserId OwnerOf(model::BillboardId o) const {
    return owner_[o];
  }

  /// Billboards currently assigned to `a` (unordered).
  const std::vector<model::BillboardId>& BillboardsOf(
      market::AdvertiserId a) const {
    return sets_[a];
  }

  /// Unassigned billboards (unordered).
  const std::vector<model::BillboardId>& FreeBillboards() const {
    return free_;
  }

  /// I(S_a), maintained incrementally.
  int64_t InfluenceOf(market::AdvertiserId a) const {
    return counters_[a].influence();
  }

  /// Cached R(S_a).
  double RegretOf(market::AdvertiserId a) const { return regret_[a]; }

  /// Cached total regret R(S).
  double TotalRegret() const { return total_regret_; }

  /// R'(S_a) under the dual objective (Equation 2).
  double DualOf(market::AdvertiserId a) const {
    return DualRevenue(advertisers_[a], InfluenceOf(a));
  }

  /// Sum of R' over advertisers.
  double TotalDual() const;

  bool IsSatisfied(market::AdvertiserId a) const {
    return Satisfied(advertisers_[a], InfluenceOf(a));
  }

  /// Influence `a` would gain from billboard `o` (o need not be free).
  int64_t MarginalGain(market::AdvertiserId a, model::BillboardId o) const {
    return counters_[a].MarginalGain(o);
  }

  /// Influence `a` would lose by releasing its billboard `o`.
  int64_t MarginalLoss(market::AdvertiserId a, model::BillboardId o) const {
    return counters_[a].MarginalLoss(o);
  }

  /// Advertiser `a`'s coverage counter (read-only), for the BLS scan
  /// tables.
  const influence::CoverageCounter& CounterOf(market::AdvertiserId a) const {
    return counters_[a];
  }

  /// The stacked-bar decomposition of the current total regret.
  RegretBreakdown Breakdown() const;

  // --- Delta queries (no mutation) ---------------------------------------
  // Each returns (regret after move) - (regret before move); negative is
  // an improvement.

  /// The regret arithmetic every delta below shares: the move leaves `a`
  /// at influence `new_a`. The BLS scan tables (core::MoveScanTables)
  /// feed their influences through the same expression, so their deltas
  /// equal these bit for bit.
  double RegretDelta(market::AdvertiserId a, int64_t new_a) const {
    return Regret(advertisers_[a], new_a, params_) - regret_[a];
  }

  /// Two-advertiser form: `a` ends at `new_a` and `b` at `new_b`,
  /// evaluated as Ra + Rb − ra − rb in that order.
  double RegretDelta(market::AdvertiserId a, int64_t new_a,
                     market::AdvertiserId b, int64_t new_b) const {
    return Regret(advertisers_[a], new_a, params_) +
           Regret(advertisers_[b], new_b, params_) - regret_[a] -
           regret_[b];
  }

  /// Assign free billboard `o` to `a`.
  double DeltaAssign(model::BillboardId o, market::AdvertiserId a) const;

  /// Release assigned billboard `o` back to the free pool.
  double DeltaRelease(model::BillboardId o) const;

  /// Exchange assigned billboards `om` and `on` across their (distinct)
  /// owners (BLS move 1). BLS scores its scans from MoveScanTables; this
  /// and DeltaReplace are their per-pair reference (DCHECKs and tests).
  double DeltaExchangeAcross(model::BillboardId om,
                             model::BillboardId on) const;

  /// Replace assigned `om` by free `on` within om's owner (BLS move 2).
  double DeltaReplace(model::BillboardId om, model::BillboardId on) const;

  /// Swap the *entire* sets of advertisers `i` and `j` (ALS move).
  double DeltaSwapSets(market::AdvertiserId i, market::AdvertiserId j) const;

  // --- Mutations ----------------------------------------------------------

  /// Assigns free billboard `o` to advertiser `a`.
  void Assign(model::BillboardId o, market::AdvertiserId a);

  /// Releases assigned billboard `o`.
  void Release(model::BillboardId o);

  /// Applies the cross-advertiser exchange of DeltaExchangeAcross.
  void ExchangeAcross(model::BillboardId om, model::BillboardId on);

  /// Applies the replace of DeltaReplace.
  void Replace(model::BillboardId om, model::BillboardId on);

  /// Applies the set swap of DeltaSwapSets in O(1) counter moves.
  void SwapSets(market::AdvertiserId i, market::AdvertiserId j);

  /// Releases every billboard of advertiser `a`.
  void ReleaseAll(market::AdvertiserId a);

  /// Releases everything.
  void Reset();

  /// Copies the deployment of `other` (same index/advertisers/params
  /// required) — cheaper to reason about than operator= for solver code.
  void CopyDeploymentFrom(const Assignment& other);

  /// Warm-starts this (fresh) assignment from an incumbent deployment:
  /// advertiser i receives sets[i] (entries past the advertiser count are
  /// not allowed; a shorter vector leaves the tail unassigned). Every
  /// listed billboard must currently be free, so the sets must be
  /// disjoint. The day-by-day market loop uses this to restore yesterday's
  /// plan over today's contract roster before replanning incrementally.
  void RestoreDeployment(
      const std::vector<std::vector<model::BillboardId>>& sets);

  // --- Debugging -----------------------------------------------------------

  /// Recomputes the deployment's state from scratch and returns the first
  /// disagreement with what is maintained, or OK: owner, slot, sets and
  /// free pool agree and every board is in exactly one of them (so the
  /// sets are disjoint); each counter's per-trajectory counts, influence
  /// (also against InfluenceIndex::InfluenceOfSet at threshold 1) and
  /// every board's MarginalGain/MarginalLoss match a recount; cached
  /// regrets and their total match Eq. 1. O(|A| · (|T| + I*)). Tests and
  /// MROAM_DCHECKs only.
  common::Status CheckInvariants() const;

 private:
  void RecomputeRegret(market::AdvertiserId a);

  const influence::InfluenceIndex* index_;
  std::vector<market::Advertiser> advertisers_;
  RegretParams params_;
  uint16_t impression_threshold_ = 1;

  std::vector<market::AdvertiserId> owner_;       // by billboard
  std::vector<int32_t> slot_;                     // position in its list
  std::vector<std::vector<model::BillboardId>> sets_;  // by advertiser
  std::vector<model::BillboardId> free_;
  std::vector<influence::CoverageCounter> counters_;   // by advertiser
  std::vector<double> regret_;                    // cached R(S_a)
  double total_regret_ = 0.0;
};

/// Number of billboards whose owner differs between two deployments over
/// the same billboard universe (`before` / `after` are per-advertiser
/// billboard sets; a board absent from every set is free). Advertisers are
/// matched by position. This is the "boards touched" measure the
/// incremental replanner reports per day: 0 means the plan survived the
/// churn untouched.
int64_t CountDeploymentDiff(
    const std::vector<std::vector<model::BillboardId>>& before,
    const std::vector<std::vector<model::BillboardId>>& after,
    int32_t num_billboards);

}  // namespace mroam::core

#endif  // MROAM_CORE_ASSIGNMENT_H_
