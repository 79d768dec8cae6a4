#include "influence/influence_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "geo/grid_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::influence {

InfluenceIndex InfluenceIndex::Build(const model::Dataset& dataset,
                                     double lambda) {
  MROAM_CHECK(lambda > 0.0);
  MROAM_TRACE_SPAN("influence.index_build");
  common::Stopwatch watch;
  InfluenceIndex index;
  index.lambda_ = lambda;
  index.num_billboards_ = static_cast<int32_t>(dataset.billboards.size());
  index.num_trajectories_ =
      static_cast<int32_t>(dataset.trajectories.size());
  index.covered_.assign(dataset.billboards.size(), {});

  geo::GridIndex grid(lambda);
  for (const model::Billboard& b : dataset.billboards) {
    grid.Insert(b.location, b.id);
  }

  // For each trajectory point, find billboards within lambda; dedupe per
  // trajectory before appending so each (o, t) pair is recorded once. A
  // trajectory no board meets gets no compacted id; the boards a met
  // trajectory's points reach are its covering list, ascending.
  std::vector<int32_t> hits;
  std::vector<model::BillboardId> met;
  for (const model::Trajectory& t : dataset.trajectories) {
    met.clear();
    for (const geo::Point& p : t.points) {
      hits.clear();
      grid.QueryRadius(p, lambda, &hits);
      met.insert(met.end(), hits.begin(), hits.end());
    }
    if (met.empty()) continue;
    std::sort(met.begin(), met.end());
    met.erase(std::unique(met.begin(), met.end()), met.end());
    MROAM_CHECK(met.size() <= static_cast<size_t>(kMaxCoveringBoards))
        << "InfluenceIndex::Build: trajectory " << t.id << " is covered by "
        << met.size() << " boards, more than the " << kMaxCoveringBoards
        << " a one-byte count holds";
    const auto compact =
        static_cast<model::TrajectoryId>(index.dataset_ids_.size());
    index.dataset_ids_.push_back(t.id);
    for (model::BillboardId o : met) {
      index.covered_[o].push_back(compact);
    }
    index.covering_.emplace_back(met.begin(), met.end());
  }
  index.num_covered_ = static_cast<int32_t>(index.dataset_ids_.size());

  // Trajectories are processed in id order, so lists are already sorted.
  for (const auto& list : index.covered_) {
    MROAM_DCHECK(std::is_sorted(list.begin(), list.end()));
    index.total_supply_ += static_cast<int64_t>(list.size());
  }
  MROAM_COUNTER_ADD("influence.index_builds", 1);
  MROAM_HISTOGRAM_OBSERVE("influence.index_build_seconds",
                          watch.ElapsedSeconds());
  return index;
}

namespace {

/// CHECK-fails unless every list of `covered` is sorted, duplicate-free
/// and inside [0, universe), naming the offending billboard.
void CheckLists(const std::vector<std::vector<model::TrajectoryId>>& covered,
                int32_t universe, const char* caller) {
  for (size_t o = 0; o < covered.size(); ++o) {
    const auto& list = covered[o];
    MROAM_CHECK(std::is_sorted(list.begin(), list.end()))
        << caller << ": incidence list of billboard " << o
        << " is not sorted ascending";
    MROAM_CHECK(std::adjacent_find(list.begin(), list.end()) == list.end())
        << caller << ": incidence list of billboard " << o
        << " contains duplicate trajectory ids";
    if (!list.empty()) {
      MROAM_CHECK(list.front() >= 0 && list.back() < universe)
          << caller << ": incidence list of billboard " << o
          << " references trajectory ids outside [0, " << universe << ")";
    }
  }
}

}  // namespace

InfluenceIndex InfluenceIndex::FromIncidence(
    std::vector<std::vector<model::TrajectoryId>> covered,
    int32_t num_trajectories, double lambda) {
  // This is a public entry point fed by the temporal extension and IO
  // paths, so the preconditions are enforced in every build (MROAM_CHECK,
  // not DCHECK), each naming the offending incidence list.
  MROAM_CHECK(num_trajectories >= 0)
      << "FromIncidence: num_trajectories = " << num_trajectories;
  CheckLists(covered, num_trajectories, "FromIncidence");
  // Renumber the covered trajectories 0, 1, ... in dataset order.
  std::vector<int32_t> compact(static_cast<size_t>(num_trajectories), 0);
  for (const auto& list : covered) {
    for (model::TrajectoryId t : list) ++compact[static_cast<size_t>(t)];
  }
  std::vector<model::TrajectoryId> dataset_ids;
  for (int32_t t = 0; t < num_trajectories; ++t) {
    int32_t& slot = compact[static_cast<size_t>(t)];
    if (slot == 0) continue;
    slot = static_cast<int32_t>(dataset_ids.size());
    dataset_ids.push_back(t);
  }
  for (auto& list : covered) {
    for (model::TrajectoryId& t : list) t = compact[static_cast<size_t>(t)];
  }
  return FromCompactedIncidence(std::move(covered), std::move(dataset_ids),
                                num_trajectories, lambda);
}

InfluenceIndex InfluenceIndex::FromCompactedIncidence(
    std::vector<std::vector<model::TrajectoryId>> covered,
    std::vector<model::TrajectoryId> dataset_ids, int32_t num_trajectories,
    double lambda) {
  MROAM_CHECK(std::adjacent_find(dataset_ids.begin(), dataset_ids.end(),
                                 std::greater_equal<>()) == dataset_ids.end())
      << "FromCompactedIncidence: dataset ids are not strictly ascending";
  if (!dataset_ids.empty()) {
    MROAM_CHECK(dataset_ids.front() >= 0 &&
                dataset_ids.back() < num_trajectories)
        << "FromCompactedIncidence: dataset ids outside [0, "
        << num_trajectories << ")";
  }
  const auto universe = static_cast<int32_t>(dataset_ids.size());
  CheckLists(covered, universe, "FromCompactedIncidence");
  InfluenceIndex index;
  index.lambda_ = lambda;
  index.num_trajectories_ = num_trajectories;
  index.num_covered_ = universe;
  index.covered_ = std::move(covered);
  index.dataset_ids_ = std::move(dataset_ids);
  index.num_billboards_ = static_cast<int32_t>(index.covered_.size());
  for (const auto& list : index.covered_) {
    index.total_supply_ += static_cast<int64_t>(list.size());
  }
  index.BuildReverseIndex();
  for (int32_t t = 0; t < universe; ++t) {
    const size_t boards = index.covering_[static_cast<size_t>(t)].size();
    MROAM_CHECK(boards >= 1 &&
                boards <= static_cast<size_t>(kMaxCoveringBoards))
        << "FromCompactedIncidence: trajectory "
        << index.dataset_ids_[static_cast<size_t>(t)] << " is covered by "
        << boards << " boards, outside the 1.." << kMaxCoveringBoards
        << " a compacted universe with one-byte counts holds";
  }
  return index;
}

InfluenceIndex InfluenceIndex::FromCompressed(
    cindex::CompressedPostings covered, cindex::CompressedPostings covering,
    cindex::CompressedPostings dataset_ids, double lambda) {
  // The two blobs must describe one incidence relation from both ends.
  // Universe/list-count symmetry and matching totals are cheap to verify
  // here; full content symmetry is the snapshot writer's contract (and
  // what the round-trip tests pin down).
  MROAM_CHECK(covered.universe() ==
              static_cast<int32_t>(covering.num_lists()))
      << "FromCompressed: covered universe " << covered.universe()
      << " != covering list count " << covering.num_lists();
  MROAM_CHECK(covering.universe() ==
              static_cast<int32_t>(covered.num_lists()))
      << "FromCompressed: covering universe " << covering.universe()
      << " != covered list count " << covered.num_lists();
  MROAM_CHECK(covered.total_count() == covering.total_count())
      << "FromCompressed: forward/reverse posting totals disagree";
  MROAM_CHECK(dataset_ids.num_lists() == 1 &&
              static_cast<int32_t>(dataset_ids.ListSize(0)) ==
                  covered.universe())
      << "FromCompressed: dataset ids do not list the "
      << covered.universe() << " covered trajectories";
  InfluenceIndex index;
  index.lambda_ = lambda;
  index.has_plain_ = false;
  index.num_billboards_ = static_cast<int32_t>(covered.num_lists());
  index.num_trajectories_ = dataset_ids.universe();
  index.num_covered_ = covered.universe();
  index.total_supply_ = static_cast<int64_t>(covered.total_count());
  index.covered_c_ = std::move(covered);
  index.covering_c_ = std::move(covering);
  index.dataset_ids_c_ = std::move(dataset_ids);
  return index;
}

void InfluenceIndex::BuildReverseIndex() {
  covering_.assign(static_cast<size_t>(num_covered_), {});
  // Billboards are walked in ascending id order, so each covering list
  // comes out sorted without an explicit sort.
  for (size_t o = 0; o < covered_.size(); ++o) {
    for (model::TrajectoryId t : covered_[o]) {
      covering_[static_cast<size_t>(t)].push_back(
          static_cast<model::BillboardId>(o));
    }
  }
}

int64_t InfluenceIndex::InfluenceOfSet(
    const std::vector<model::BillboardId>& set) const {
  std::vector<model::TrajectoryId> all;
  for (model::BillboardId o : set) {
    MROAM_CHECK(o >= 0 && o < num_billboards());
    ForEachCovered(o, [&all](model::TrajectoryId t) { all.push_back(t); });
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return static_cast<int64_t>(all.size());
}

std::vector<std::vector<model::TrajectoryId>> BruteForceIncidence(
    const model::Dataset& dataset, double lambda) {
  std::vector<std::vector<model::TrajectoryId>> covered(
      dataset.billboards.size());
  const double r2 = lambda * lambda;
  for (const model::Billboard& b : dataset.billboards) {
    for (const model::Trajectory& t : dataset.trajectories) {
      for (const geo::Point& p : t.points) {
        if (geo::SquaredDistance(p, b.location) <= r2) {
          covered[b.id].push_back(t.id);
          break;
        }
      }
    }
  }
  return covered;
}

void AssignBillboardCosts(model::Dataset* dataset,
                          const InfluenceIndex& index, common::Rng* rng) {
  for (model::Billboard& b : dataset->billboards) {
    double tau = rng->UniformDouble(0.9, 1.1);
    b.cost = std::floor(tau * static_cast<double>(index.InfluenceOf(b.id)) /
                        10.0);
  }
}

}  // namespace mroam::influence
