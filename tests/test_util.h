#ifndef MROAM_TESTS_TEST_UTIL_H_
#define MROAM_TESTS_TEST_UTIL_H_

#include <vector>

#include "influence/influence_index.h"
#include "market/advertiser.h"
#include "model/dataset.h"

namespace mroam::testing {

/// Builds a dataset whose meet-model incidence (at lambda = 1.0) is
/// exactly `covered`: billboard i is placed at (10000 * i, 0), and each
/// trajectory gets one point at the location of every billboard that
/// covers it. This lets tests specify incidence lists directly and drive
/// the real InfluenceIndex::Build pipeline.
///
/// `covered[i]` lists the trajectory ids billboard i influences;
/// `num_trajectories` must exceed every listed id. Trajectories not
/// covered by any billboard get a far-away point so they still exist.
inline model::Dataset DatasetFromIncidence(
    const std::vector<std::vector<model::TrajectoryId>>& covered,
    int32_t num_trajectories) {
  model::Dataset dataset;
  dataset.name = "incidence-fixture";
  for (size_t i = 0; i < covered.size(); ++i) {
    model::Billboard b;
    b.id = static_cast<model::BillboardId>(i);
    b.location = {10000.0 * static_cast<double>(i), 0.0};
    dataset.billboards.push_back(b);
  }
  dataset.trajectories.resize(num_trajectories);
  for (int32_t t = 0; t < num_trajectories; ++t) {
    dataset.trajectories[t].id = t;
  }
  for (size_t i = 0; i < covered.size(); ++i) {
    for (model::TrajectoryId t : covered[i]) {
      dataset.trajectories[t].points.push_back(
          dataset.billboards[i].location);
    }
  }
  for (model::Trajectory& t : dataset.trajectories) {
    if (t.points.empty()) {
      t.points.push_back({-1e6, -1e6});  // far from every billboard
    }
  }
  return dataset;
}

/// The lambda to use with DatasetFromIncidence fixtures.
inline constexpr double kFixtureLambda = 1.0;

/// Convenience: build the InfluenceIndex for an incidence fixture.
inline influence::InfluenceIndex IndexFromIncidence(
    const std::vector<std::vector<model::TrajectoryId>>& covered,
    int32_t num_trajectories, model::Dataset* keep_dataset = nullptr) {
  model::Dataset dataset = DatasetFromIncidence(covered, num_trajectories);
  influence::InfluenceIndex index =
      influence::InfluenceIndex::Build(dataset, kFixtureLambda);
  if (keep_dataset != nullptr) *keep_dataset = std::move(dataset);
  return index;
}

/// The compressed twin of a plain-list index: both directions and the
/// covered dataset ids encoded with the snapshot writer's codec and served
/// through FromCompressed — the shape an mmap-booted server runs on,
/// without the file.
inline influence::InfluenceIndex CompressedTwin(
    const influence::InfluenceIndex& plain) {
  return influence::InfluenceIndex::FromCompressed(
      cindex::CompressedPostings::Build(plain.covered(), plain.num_covered()),
      cindex::CompressedPostings::Build(plain.covering(),
                                        plain.num_billboards()),
      cindex::CompressedPostings::Build({plain.dataset_ids()},
                                        plain.num_trajectories()),
      plain.lambda());
}

/// Board `o`'s incidence list in dataset ids: the index lists compacted
/// ids, and dataset_ids() maps them back.
inline std::vector<model::TrajectoryId> DatasetIdsCoveredBy(
    const influence::InfluenceIndex& index, model::BillboardId o) {
  std::vector<model::TrajectoryId> ids;
  for (model::TrajectoryId t : index.CoveredBy(o)) {
    ids.push_back(index.dataset_ids()[static_cast<size_t>(t)]);
  }
  return ids;
}

/// Shorthand advertiser constructor.
inline market::Advertiser Adv(market::AdvertiserId id, int64_t demand,
                              double payment) {
  market::Advertiser a;
  a.id = id;
  a.demand = demand;
  a.payment = payment;
  return a;
}

/// The paper's running example (Tables 1-2): six billboards with disjoint
/// coverage of sizes {2, 6, 3, 7, 1, 1} and three advertisers
/// (I, L) = (5, $10), (7, $11), (8, $20). (I(o_3) = 3 is recovered from
/// Tables 3-4: strategy 2 has I({o_1, o_3}) = 5 with I(o_1) = 2.)
inline std::vector<std::vector<model::TrajectoryId>>
PaperExampleIncidence() {
  std::vector<std::vector<model::TrajectoryId>> covered(6);
  int32_t next = 0;
  const int sizes[6] = {2, 6, 3, 7, 1, 1};
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < sizes[i]; ++k) covered[i].push_back(next++);
  }
  return covered;  // 20 trajectories total (= total demand 5 + 7 + 8)
}

inline std::vector<market::Advertiser> PaperExampleAdvertisers() {
  return {Adv(0, 5, 10.0), Adv(1, 7, 11.0), Adv(2, 8, 20.0)};
}

}  // namespace mroam::testing

#endif  // MROAM_TESTS_TEST_UTIL_H_
