#ifndef MROAM_INFLUENCE_INFLUENCE_INDEX_H_
#define MROAM_INFLUENCE_INFLUENCE_INDEX_H_

#include <cstdint>
#include <vector>

#include "cindex/postings.h"
#include "common/logging.h"
#include "common/rng.h"
#include "model/dataset.h"

namespace mroam::influence {

/// Precomputed billboard -> trajectory incidence under the paper's meet
/// model: billboard o influences trajectory t iff some point of t lies
/// within `lambda` meters of o's location (§7.1.2). Built once per
/// (dataset, lambda); all algorithms work off these lists.
///
/// With incidence lists, the influence of a set S,
///   I(S) = sum_t [1 - prod_{o in S}(1 - I(o,t))],
/// reduces to the number of distinct trajectories present in the union of
/// the lists of S's billboards — which CoverageCounter maintains
/// incrementally.
///
/// An index holds exactly one representation of both directions, fixed
/// by how it was made: plain vector lists from Build, FromIncidence and
/// the decoded snapshot load, or block-compressed blobs (src/cindex) from
/// FromCompressed — typically borrowed from an mmapped snapshot. On a
/// compressed index CoveredBy/CoveringOf are unavailable and callers go
/// through the ForEachCovered/ForEachCovering dispatchers.
class InfluenceIndex {
 public:
  /// An empty index (no billboards, no trajectories). Useful as a member
  /// default before assignment from Build/FromIncidence.
  InfluenceIndex() = default;

  /// Builds the incidence lists by radius queries against a uniform grid
  /// over billboard locations. O(total trajectory points x candidates).
  static InfluenceIndex Build(const model::Dataset& dataset, double lambda);

  /// Builds an index directly from precomputed incidence lists (used by
  /// the temporal time-slot extension and by tests). Each list must be
  /// sorted, duplicate-free, and reference trajectory ids in
  /// [0, num_trajectories). `lambda` is carried for reporting only.
  static InfluenceIndex FromIncidence(
      std::vector<std::vector<model::TrajectoryId>> covered,
      int32_t num_trajectories, double lambda);

  /// Builds a plain-list-free index over compressed blobs (typically
  /// borrowed views into an mmapped snapshot — the caller keeps the
  /// mapping alive). `covered` maps billboards -> trajectories and
  /// `covering` the reverse; the two must describe the same incidence
  /// (universe/list counts and totals are CHECKed, content equality is
  /// the snapshot writer's contract).
  static InfluenceIndex FromCompressed(cindex::CompressedPostings covered,
                                       cindex::CompressedPostings covering,
                                       double lambda);

  /// Whether the index holds plain vector lists (false exactly for
  /// FromCompressed indexes, which hold compressed blobs instead).
  bool has_plain() const { return has_plain_; }

  /// Trajectories influenced by billboard `o`, sorted ascending.
  /// Requires has_plain().
  const std::vector<model::TrajectoryId>& CoveredBy(
      model::BillboardId o) const {
    MROAM_DCHECK(has_plain_);
    return covered_[o];
  }

  /// Billboards influencing trajectory `t`, sorted ascending — the reverse
  /// of CoveredBy. Built once with the index (O(total supply)) and shared
  /// by every consumer: CoverageCounter walks it to keep the boards'
  /// marginal gains and losses current, and the snapshot format persists
  /// it alongside the forward lists. Requires has_plain().
  const std::vector<model::BillboardId>& CoveringOf(
      model::TrajectoryId t) const {
    MROAM_DCHECK(has_plain_);
    return covering_[t];
  }

  /// Calls fn(TrajectoryId) for each trajectory billboard `o` influences,
  /// ascending, from whichever representation the index holds. The
  /// representation-agnostic form of CoveredBy for consumers that must
  /// work on compressed indexes.
  template <typename Fn>
  void ForEachCovered(model::BillboardId o, Fn&& fn) const {
    if (has_plain_) {
      for (model::TrajectoryId t : covered_[o]) fn(t);
    } else {
      covered_c_.ForEach(o, fn);
    }
  }

  /// Calls fn(BillboardId) for each billboard influencing trajectory `t`,
  /// ascending (representation-agnostic CoveringOf).
  template <typename Fn>
  void ForEachCovering(model::TrajectoryId t, Fn&& fn) const {
    if (has_plain_) {
      for (model::BillboardId o : covering_[t]) fn(o);
    } else {
      covering_c_.ForEach(t, fn);
    }
  }

  /// The full reverse index, aligned with trajectory ids (snapshot IO).
  /// Requires has_plain().
  const std::vector<std::vector<model::BillboardId>>& covering() const {
    MROAM_DCHECK(has_plain_);
    return covering_;
  }

  /// The full forward incidence, aligned with billboard ids (snapshot IO).
  /// Requires has_plain().
  const std::vector<std::vector<model::TrajectoryId>>& covered() const {
    MROAM_DCHECK(has_plain_);
    return covered_;
  }

  /// The block-compressed forward incidence. Requires !has_plain().
  const cindex::CompressedPostings& compressed_covered() const {
    MROAM_DCHECK(!has_plain_);
    return covered_c_;
  }

  /// I({o}) — the number of trajectories billboard `o` influences.
  int64_t InfluenceOf(model::BillboardId o) const {
    return has_plain_ ? static_cast<int64_t>(covered_[o].size())
                      : static_cast<int64_t>(covered_c_.ListSize(o));
  }

  /// The host's supply I* = sum_o I({o}) (§7.1.3).
  int64_t TotalSupply() const { return total_supply_; }

  int32_t num_billboards() const { return num_billboards_; }
  int32_t num_trajectories() const { return num_trajectories_; }
  double lambda() const { return lambda_; }

  /// Exact I(S) for an arbitrary billboard set, by one-off union counting.
  /// O(sum |lists|); used by tests and reports, not by solver hot paths.
  int64_t InfluenceOfSet(const std::vector<model::BillboardId>& set) const;

 private:
  /// Derives covering_ from covered_ (called by Build/FromIncidence once
  /// the forward lists are final).
  void BuildReverseIndex();

  double lambda_ = 0.0;
  int32_t num_billboards_ = 0;
  int32_t num_trajectories_ = 0;
  int64_t total_supply_ = 0;
  bool has_plain_ = true;
  std::vector<std::vector<model::TrajectoryId>> covered_;
  /// Reverse incidence: covering_[t] lists the billboards whose covered_
  /// list contains t, ascending. Always sized num_trajectories_.
  std::vector<std::vector<model::BillboardId>> covering_;
  /// The compressed representation (FromCompressed indexes only).
  cindex::CompressedPostings covered_c_;
  cindex::CompressedPostings covering_c_;
};

/// Reference implementation of the meet model by exhaustive distance
/// checks (no spatial index). For tests of InfluenceIndex::Build.
std::vector<std::vector<model::TrajectoryId>> BruteForceIncidence(
    const model::Dataset& dataset, double lambda);

/// Sets every billboard's rental cost to floor(tau * I(o) / 10) with
/// tau ~ U[0.9, 1.1], the model used in the paper (§7.1.2).
void AssignBillboardCosts(model::Dataset* dataset,
                          const InfluenceIndex& index, common::Rng* rng);

}  // namespace mroam::influence

#endif  // MROAM_INFLUENCE_INFLUENCE_INDEX_H_
