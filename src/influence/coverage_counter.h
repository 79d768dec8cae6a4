#ifndef MROAM_INFLUENCE_COVERAGE_COUNTER_H_
#define MROAM_INFLUENCE_COVERAGE_COUNTER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "influence/influence_index.h"

namespace mroam::influence {

/// Incrementally maintains I(S) for one billboard set S under the meet
/// model: a per-trajectory count of how many billboards of S cover it,
/// plus the number of trajectories whose count reaches the impression
/// threshold. The counts cover the index's compacted universe (the
/// trajectories some board covers) at one byte each, which the index's
/// kMaxCoveringBoards bound keeps from overflowing.
///
/// With the default threshold of 1 this is the paper's influence measure
/// (per-pair influence is 0/1 and the noisy-or collapses to set-union).
/// A threshold m > 1 implements the impression-count model of Zhang et
/// al., KDD'19 [29] — an audience is influenced only after meeting the ad
/// at least m times — which the paper describes as an orthogonal choice
/// of measurement (§3.1).
///
/// Alongside the counts it maintains every board's marginals
/// (DESIGN.md §5.1): with c_t the count of trajectory t and L(o) the
/// trajectories board o covers,
///   gain[o] = #{t ∈ L(o) : c_t = m−1},  loss[o] = #{t ∈ L(o) : c_t = m},
/// so MarginalGain and MarginalLoss are O(1) reads. Add/Remove walk
/// L(o) and, for each t whose count enters or leaves m−1 or m, the boards
/// covering t. A counter costs 1 B per covered trajectory plus 8 B per
/// board of the index.
///
/// The counter walks whichever representation its index holds (plain
/// vectors or compressed blobs) through the index's ForEachCovered /
/// ForEachCovering dispatchers; the arithmetic is the same either way.
class CoverageCounter {
 public:
  /// Creates an empty counter over `index`'s trajectory universe (its
  /// num_covered() trajectories) with the given impression threshold
  /// (>= 1). The index must outlive the counter.
  explicit CoverageCounter(const InfluenceIndex* index,
                           uint16_t impression_threshold = 1)
      : index_(index),
        threshold_(impression_threshold),
        counts_(static_cast<size_t>(index->num_covered()), 0),
        gain_(static_cast<size_t>(index->num_billboards())),
        loss_(static_cast<size_t>(index->num_billboards())) {
    MROAM_CHECK(impression_threshold >= 1);
    ResetMarginals();
  }

  /// Adds billboard `o`'s coverage. Must not be called twice for the same
  /// billboard without an intervening Remove (the caller tracks set
  /// membership).
  void Add(model::BillboardId o) {
    index_->ForEachCovered(o, [this](model::TrajectoryId t) {
      MROAM_DCHECK(counts_[t] < kMaxCoveringBoards);
      const int c = counts_[t]++;
      if (c + 1 == threshold_) ++influence_;
      Retally(t, c, c + 1);
    });
  }

  /// Removes billboard `o`'s coverage (must currently be counted).
  void Remove(model::BillboardId o) {
    index_->ForEachCovered(o, [this](model::TrajectoryId t) {
      MROAM_DCHECK(counts_[t] > 0);
      const int c = counts_[t]--;
      if (c == threshold_) --influence_;
      Retally(t, c, c - 1);
    });
  }

  /// Influence gained if `o` were added: #trajectories in o's list one
  /// impression short of the threshold. O(1).
  int64_t MarginalGain(model::BillboardId o) const { return gain_[o]; }

  /// Influence lost if `o` were removed: #trajectories in o's list exactly
  /// at the threshold. O(1); only meaningful when `o` is currently
  /// counted.
  int64_t MarginalLoss(model::BillboardId o) const { return loss_[o]; }

  /// Influence gained by adding `add` right after removing `rem`, i.e.
  /// I(S \ {rem} ∪ {add}) - I(S \ {rem}), in one pass without mutation.
  /// Requires rem currently counted and add not counted. Walks the lists
  /// rather than the tables, so it serves as their reference (the BLS
  /// DCHECKs and tests). Relies on both incidence lists
  /// being sorted ascending (an InfluenceIndex invariant) for its merge
  /// pointer.
  int64_t MarginalGainAfterRemove(model::BillboardId add,
                                  model::BillboardId rem) const;

  /// MarginalGainAfterRemove for every board at once (the BLS scans,
  /// DESIGN.md §5.2). Removing `rem` (counted here) lowers exactly the
  /// counts on its trajectories L(rem) by one, so for every board `add`
  /// not counted here
  ///   MarginalGainAfterRemove(add, rem) = MarginalGain(add)
  ///       + Σ_{t ∈ L(rem) ∩ L(add)} ([c_t = m] − [c_t = m−1]).
  /// One walk of L(rem), and of the covering list of each t on it whose
  /// term is nonzero, calls fn(o, shift, partner_shift) with t's term
  /// `shift` for every board o covering t; a board's terms sum to its
  /// correction.
  ///
  /// With a `partner` counter over the same index (a cross exchange of rem
  /// against a board counted there), the same walk also passes t's term
  /// under the partner's counts: the intersection is symmetric, so those
  /// sum to the partner's correction for its own gain of rem. The walk then
  /// skips trajectories the partner does not count, which no partner board
  /// covers, and the sums are exact for the partner's boards only. Without
  /// a partner, partner_shift is 0.
  template <typename Fn>
  void ForEachRemoveShift(model::BillboardId rem,
                          const CoverageCounter* partner, Fn&& fn) const {
    MROAM_DCHECK(partner == nullptr || partner->index_ == index_);
    index_->ForEachCovered(rem, [&](model::TrajectoryId t) {
      int partner_shift = 0;
      if (partner != nullptr) {
        if (partner->CountOf(t) == 0) return;
        partner_shift = partner->RemoveShift(t);
      }
      const int shift = RemoveShift(t);
      if (shift == 0 && partner_shift == 0) return;
      index_->ForEachCovering(t, [&](model::BillboardId o) {
        fn(o, shift, partner_shift);
      });
    });
  }

  /// Number of billboards of S covering trajectory `t`.
  int CountOf(model::TrajectoryId t) const { return counts_[t]; }

  /// Trajectories this counter holds a count for: its index's
  /// num_covered().
  int32_t universe() const { return static_cast<int32_t>(counts_.size()); }

  /// Current I(S).
  int64_t influence() const { return influence_; }

  /// The impression threshold m (1 = the paper's set-union measure).
  uint16_t impression_threshold() const { return threshold_; }

  /// Resets to the empty set.
  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    influence_ = 0;
    ResetMarginals();
  }

  const InfluenceIndex& index() const { return *index_; }

 private:
  /// Trajectory `t`'s term in ForEachRemoveShift: [c_t = m] − [c_t = m−1].
  int RemoveShift(model::TrajectoryId t) const {
    const int c = CountOf(t);
    return (c == threshold_ ? 1 : 0) - (c + 1 == threshold_ ? 1 : 0);
  }

  /// Moves trajectory `t` from count `from` to `to` in the gain and loss
  /// of every board covering it; a no-op unless either count is m−1 or m.
  void Retally(model::TrajectoryId t, int from, int to) {
    const int m = threshold_;
    const int dgain = (to == m - 1) - (from == m - 1);
    const int dloss = (to == m) - (from == m);
    if (dgain == 0 && dloss == 0) return;
    index_->ForEachCovering(t, [this, dgain, dloss](model::BillboardId b) {
      gain_[b] += dgain;
      loss_[b] += dloss;
    });
  }

  /// The marginals of the empty set: every count is 0, so gain[o] is
  /// |L(o)| when m = 1 and 0 otherwise; every loss is 0.
  void ResetMarginals() {
    std::fill(loss_.begin(), loss_.end(), 0);
    for (size_t o = 0; o < gain_.size(); ++o) {
      gain_[o] = threshold_ == 1 ? static_cast<int32_t>(index_->InfluenceOf(
                                       static_cast<model::BillboardId>(o)))
                                 : 0;
    }
  }

  const InfluenceIndex* index_;
  uint16_t threshold_;
  std::vector<uint8_t> counts_;  ///< c_t, by compacted trajectory
  int64_t influence_ = 0;
  std::vector<int32_t> gain_;  ///< by billboard
  std::vector<int32_t> loss_;  ///< by billboard
  /// MarginalGainAfterRemove's decode of rem's list on compressed indexes.
  mutable std::vector<model::TrajectoryId> rem_scratch_;
};

}  // namespace mroam::influence

#endif  // MROAM_INFLUENCE_COVERAGE_COUNTER_H_
