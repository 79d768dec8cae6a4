#ifndef MROAM_INFLUENCE_INFLUENCE_INDEX_H_
#define MROAM_INFLUENCE_INFLUENCE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cindex/postings.h"
#include "common/logging.h"
#include "common/rng.h"
#include "model/dataset.h"

namespace mroam::influence {

/// The most boards that may cover one trajectory: a CoverageCounter spends
/// one byte on each count. Every path that makes an index rejects an
/// incidence above it.
inline constexpr int kMaxCoveringBoards = UINT8_MAX;

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
/// I(S) depends only on the trajectories some board meets, so the index's
/// trajectory universe is those covered trajectories alone, renumbered
/// 0..num_covered()-1 in their original order: every list and every
/// counter speaks these ids, and the index keeps the ascending dataset id
/// of each (dataset_ids, ForEachDatasetId) for the callers that map back.
/// num_trajectories() stays the dataset's |T|, which reports divide by.
///
/// An index holds exactly one representation of both directions and of
/// the dataset ids, fixed by how it was made: plain vectors from Build,
/// FromIncidence and FromCompactedIncidence (the decoded snapshot load),
/// or block-compressed blobs (src/cindex) from FromCompressed — typically
/// borrowed from an mmapped snapshot. On a compressed index
/// CoveredBy/CoveringOf/dataset_ids are unavailable and callers go
/// through the ForEach* dispatchers.
class InfluenceIndex {
 public:
  /// An empty index (no billboards, no trajectories). Useful as a member
  /// default before assignment from Build/FromIncidence.
  InfluenceIndex() = default;

  /// Builds the incidence lists by radius queries against a uniform grid
  /// over billboard locations. O(total trajectory points x candidates).
  /// CHECK-fails on a trajectory within `lambda` of more than
  /// kMaxCoveringBoards boards.
  static InfluenceIndex Build(const model::Dataset& dataset, double lambda);

  /// Builds an index directly from precomputed incidence lists over
  /// dataset ids (used by the temporal time-slot extension and by tests)
  /// and compacts them to the covered trajectories. Each list must be
  /// sorted, duplicate-free, and reference trajectory ids in
  /// [0, num_trajectories); no trajectory may appear in more than
  /// kMaxCoveringBoards lists. `lambda` is carried for reporting only.
  static InfluenceIndex FromIncidence(
      std::vector<std::vector<model::TrajectoryId>> covered,
      int32_t num_trajectories, double lambda);

  /// Builds an index from lists that are already compacted (the decoded
  /// snapshot's form): `covered` references positions in `dataset_ids`,
  /// the strictly ascending dataset ids in [0, num_trajectories) of the
  /// covered trajectories. Each list must be sorted and duplicate-free,
  /// and every position must appear in 1..kMaxCoveringBoards lists.
  static InfluenceIndex FromCompactedIncidence(
      std::vector<std::vector<model::TrajectoryId>> covered,
      std::vector<model::TrajectoryId> dataset_ids, int32_t num_trajectories,
      double lambda);

  /// Builds a plain-list-free index over compressed blobs (typically
  /// borrowed views into an mmapped snapshot — the caller keeps the
  /// mapping alive). `covered` maps billboards -> compacted trajectories,
  /// `covering` the reverse, and `dataset_ids` holds one list: the
  /// ascending dataset ids of the compacted trajectories, over the
  /// dataset's universe. Shapes and totals are CHECKed; content equality
  /// of the two directions and the 1..kMaxCoveringBoards covering counts
  /// are the snapshot writer's contract, which both loaders verify.
  static InfluenceIndex FromCompressed(cindex::CompressedPostings covered,
                                       cindex::CompressedPostings covering,
                                       cindex::CompressedPostings dataset_ids,
                                       double lambda);

  /// Whether the index holds plain vector lists (false exactly for
  /// FromCompressed indexes, which hold compressed blobs instead).
  bool has_plain() const { return has_plain_; }

  /// Trajectories influenced by billboard `o` (compacted ids), sorted
  /// ascending. Requires has_plain().
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
  std::span<const model::BillboardId> CoveringOf(
      model::TrajectoryId t) const {
    MROAM_DCHECK(has_plain_);
    const auto begin = covering_offsets_[static_cast<size_t>(t)];
    const auto end = covering_offsets_[static_cast<size_t>(t) + 1];
    return {covering_ids_.data() + begin, end - begin};
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
      for (model::BillboardId o : CoveringOf(t)) fn(o);
    } else {
      covering_c_.ForEach(t, fn);
    }
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

  /// The dataset id of every trajectory of the universe, ascending:
  /// dataset_ids()[t] is the dataset id of compacted trajectory t.
  /// Requires has_plain().
  const std::vector<model::TrajectoryId>& dataset_ids() const {
    MROAM_DCHECK(has_plain_);
    return dataset_ids_;
  }

  /// Calls fn(TrajectoryId) with the dataset id of each trajectory of the
  /// universe, in compacted-id order (representation-agnostic
  /// dataset_ids).
  template <typename Fn>
  void ForEachDatasetId(Fn&& fn) const {
    if (has_plain_) {
      for (model::TrajectoryId t : dataset_ids_) fn(t);
    } else {
      dataset_ids_c_.ForEach(0, fn);
    }
  }

  /// I({o}) — the number of trajectories billboard `o` influences.
  int64_t InfluenceOf(model::BillboardId o) const {
    return has_plain_ ? static_cast<int64_t>(covered_[o].size())
                      : static_cast<int64_t>(covered_c_.ListSize(o));
  }

  /// The host's supply I* = sum_o I({o}) (§7.1.3).
  int64_t TotalSupply() const { return total_supply_; }

  int32_t num_billboards() const { return num_billboards_; }
  /// The dataset's |T|, covered or not (the denominator of coverage
  /// ratios).
  int32_t num_trajectories() const { return num_trajectories_; }
  /// Trajectories at least one board covers: the universe every list and
  /// every counter indexes, [0, num_covered()).
  int32_t num_covered() const { return num_covered_; }
  double lambda() const { return lambda_; }

  /// Exact I(S) for an arbitrary billboard set, by one-off union counting.
  /// O(sum |lists|); used by tests and reports, not by solver hot paths.
  int64_t InfluenceOfSet(const std::vector<model::BillboardId>& set) const;

 private:
  /// Derives the covering lists from covered_ by one counting sort
  /// (called by Build and FromCompactedIncidence once the forward lists
  /// and total_supply_ are final).
  void BuildReverseIndex();

  double lambda_ = 0.0;
  int32_t num_billboards_ = 0;
  int32_t num_trajectories_ = 0;
  int32_t num_covered_ = 0;
  int64_t total_supply_ = 0;
  bool has_plain_ = true;
  std::vector<std::vector<model::TrajectoryId>> covered_;
  /// Reverse incidence, flat: the billboards whose covered_ list contains
  /// t are covering_ids_[covering_offsets_[t], covering_offsets_[t + 1]),
  /// ascending. num_covered_ + 1 offsets; total_supply_ ids.
  std::vector<uint32_t> covering_offsets_;
  std::vector<model::BillboardId> covering_ids_;
  std::vector<model::TrajectoryId> dataset_ids_;
  /// The compressed representation (FromCompressed indexes only).
  cindex::CompressedPostings covered_c_;
  cindex::CompressedPostings covering_c_;
  cindex::CompressedPostings dataset_ids_c_;
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
