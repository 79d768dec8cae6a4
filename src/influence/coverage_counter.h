#ifndef MROAM_INFLUENCE_COVERAGE_COUNTER_H_
#define MROAM_INFLUENCE_COVERAGE_COUNTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cindex/compressed_counter.h"
#include "common/logging.h"
#include "influence/influence_index.h"

namespace mroam::influence {

/// Incrementally maintains I(S) for one billboard set S under the meet
/// model: a per-trajectory count of how many billboards of S cover it,
/// plus the number of trajectories whose count reaches the impression
/// threshold.
///
/// With the default threshold of 1 this is the paper's influence measure
/// (per-pair influence is 0/1 and the noisy-or collapses to set-union).
/// A threshold m > 1 implements the impression-count model of Zhang et
/// al., KDD'19 [29] — an audience is influenced only after meeting the ad
/// at least m times — which the paper describes as an orthogonal choice
/// of measurement (§3.1).
///
/// Every operation costs O(|incidence list of the billboard|). This is the
/// data structure that makes the greedy selection rule and the local-search
/// move deltas cheap (DESIGN.md §5.1).
///
/// The counter walks whichever representation its index holds: the plain
/// vector lists inline below, or — exactly when !index->has_plain() — the
/// block-compressed kernels via a delegated
/// cindex::CompressedCoverageCounter, bit-identical by construction and
/// gated by the equivalence suites. Epoch bookkeeping lives here in the
/// wrapper either way, so the lazy-selection machinery is
/// representation-oblivious.
class CoverageCounter {
 public:
  /// Creates an empty counter over `index`'s trajectory universe with the
  /// given impression threshold (>= 1). The index must outlive the
  /// counter.
  explicit CoverageCounter(const InfluenceIndex* index,
                           uint16_t impression_threshold = 1)
      : index_(index), threshold_(impression_threshold) {
    MROAM_CHECK(impression_threshold >= 1);
    if (!index->has_plain()) {
      compressed_.emplace(&index->compressed_covered(),
                          impression_threshold);
    } else {
      counts_.assign(static_cast<size_t>(index->num_trajectories()), 0);
    }
  }

  /// Adds billboard `o`'s coverage. Must not be called twice for the same
  /// billboard without an intervening Remove (the caller tracks set
  /// membership).
  void Add(model::BillboardId o) {
    if (compressed_) {
      compressed_->Add(o);
    } else {
      for (model::TrajectoryId t : index_->CoveredBy(o)) {
        MROAM_DCHECK(counts_[t] < UINT16_MAX);
        if (++counts_[t] == threshold_) ++influence_;
      }
    }
    ++epoch_;
  }

  /// Removes billboard `o`'s coverage (must currently be counted).
  void Remove(model::BillboardId o) {
    if (compressed_) {
      compressed_->Remove(o);
    } else {
      for (model::TrajectoryId t : index_->CoveredBy(o)) {
        MROAM_DCHECK(counts_[t] > 0);
        if (counts_[t]-- == threshold_) --influence_;
      }
    }
    ++epoch_;
    last_shrink_epoch_ = epoch_;
  }

  /// Influence gained if `o` were added: #trajectories in o's list one
  /// impression short of the threshold. Does not modify the counter.
  int64_t MarginalGain(model::BillboardId o) const {
    if (compressed_) return compressed_->MarginalGain(o);
    int64_t gain = 0;
    const uint16_t at_gain = threshold_ - 1;
    for (model::TrajectoryId t : index_->CoveredBy(o)) {
      if (counts_[t] == at_gain) ++gain;
    }
    return gain;
  }

  /// Influence lost if `o` were removed: #trajectories exactly at the
  /// threshold that `o` contributes to. Only meaningful when `o` is
  /// currently counted.
  int64_t MarginalLoss(model::BillboardId o) const {
    if (compressed_) return compressed_->MarginalLoss(o);
    int64_t loss = 0;
    for (model::TrajectoryId t : index_->CoveredBy(o)) {
      if (counts_[t] == threshold_) ++loss;
    }
    return loss;
  }

  /// Influence gained by adding `add` right after removing `rem`, i.e.
  /// I(S \ {rem} ∪ {add}) - I(S \ {rem}), in one pass without mutation.
  /// Requires rem currently counted and add not counted. Relies on both
  /// incidence lists being sorted ascending (an InfluenceIndex invariant,
  /// DCHECKed in debug builds) for its merge pointer.
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
  uint16_t CountOf(model::TrajectoryId t) const {
    return compressed_ ? compressed_->CountOf(t) : counts_[t];
  }

  /// Current I(S).
  int64_t influence() const {
    return compressed_ ? compressed_->influence() : influence_;
  }

  /// The impression threshold m (1 = the paper's set-union measure).
  uint16_t impression_threshold() const { return threshold_; }

  /// Mutation stamp: advances on every Add/Remove/Clear (and on
  /// MarkStructuralChange). A value cached against this counter at epoch e
  /// describes the counter exactly iff epoch() still equals e.
  uint64_t epoch() const { return epoch_; }

  /// The epoch of the most recent *shrinking* mutation (Remove, Clear, or
  /// MarkStructuralChange). While only Add() advances epoch() past a stamp
  /// s >= last_shrink_epoch(), every count is non-decreasing, so with
  /// impression_threshold == 1 MarginalGain(o) is non-increasing: a gain
  /// cached at such a stamp remains a valid *upper bound*. This is the
  /// invariant the lazy greedy selector rests on (DESIGN.md §5.1). For
  /// thresholds > 1 gains are not monotone and no such bound holds.
  uint64_t last_shrink_epoch() const { return last_shrink_epoch_; }

  /// Invalidates every cached observation of this counter (advances the
  /// epoch as a shrink). Assignment::SwapSets calls this after swapping
  /// counter objects between advertisers, where "which advertiser this
  /// counter describes" changes without any Add/Remove.
  void MarkStructuralChange() {
    ++epoch_;
    last_shrink_epoch_ = epoch_;
  }

  /// Resets to the empty set.
  void Clear() {
    if (compressed_) {
      compressed_->Clear();
    } else {
      std::fill(counts_.begin(), counts_.end(), 0);
      influence_ = 0;
    }
    ++epoch_;
    last_shrink_epoch_ = epoch_;
  }

  const InfluenceIndex& index() const { return *index_; }

 private:
  /// Trajectory `t`'s term in ForEachRemoveShift: [c_t = m] − [c_t = m−1].
  int RemoveShift(model::TrajectoryId t) const {
    const uint16_t c = CountOf(t);
    return (c == threshold_ ? 1 : 0) - (c + 1 == threshold_ ? 1 : 0);
  }

  const InfluenceIndex* index_;
  uint16_t threshold_;
  /// Plain-list state; empty when the compressed delegate is engaged.
  std::vector<uint16_t> counts_;
  int64_t influence_ = 0;
  uint64_t epoch_ = 1;              ///< 0 is reserved for "never stamped"
  uint64_t last_shrink_epoch_ = 1;
  /// Engaged iff the index is compressed; holds counts/influence then.
  std::optional<cindex::CompressedCoverageCounter> compressed_;
};

}  // namespace mroam::influence

#endif  // MROAM_INFLUENCE_COVERAGE_COUNTER_H_
