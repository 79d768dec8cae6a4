#include "influence/influence_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "gen/city_generators.h"
#include "influence/reports.h"
#include "test_util.h"

namespace mroam::influence {
namespace {

using testing::CoveringVector;
using testing::DatasetFromIncidence;
using testing::DatasetIdsCoveredBy;
using testing::kFixtureLambda;

TEST(InfluenceIndexTest, IncidenceFixtureIsExact) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2}, {2, 3}, {}, {4}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  ASSERT_EQ(index.num_billboards(), 4);
  EXPECT_EQ(index.num_trajectories(), 5);
  EXPECT_EQ(DatasetIdsCoveredBy(index, 0),
            (std::vector<model::TrajectoryId>{0, 1, 2}));
  EXPECT_EQ(DatasetIdsCoveredBy(index, 1),
            (std::vector<model::TrajectoryId>{2, 3}));
  EXPECT_TRUE(index.CoveredBy(2).empty());
  EXPECT_EQ(index.InfluenceOf(0), 3);
  EXPECT_EQ(index.InfluenceOf(2), 0);
  EXPECT_EQ(index.TotalSupply(), 6);
}

TEST(InfluenceIndexTest, CompactsUncoveredTrajectoriesInOrder) {
  // Trajectories 0, 2, 3, 5 and 7 meet no board: the universe is 1, 4, 6
  // renumbered 0, 1, 2 in dataset order, from either factory, while
  // num_trajectories() keeps the dataset's count.
  const std::vector<std::vector<model::TrajectoryId>> covered{
      {1, 4}, {}, {4, 6}};
  model::Dataset d = DatasetFromIncidence(covered, 8);
  for (const InfluenceIndex& index :
       {InfluenceIndex::Build(d, kFixtureLambda),
        InfluenceIndex::FromIncidence(covered, 8, kFixtureLambda)}) {
    EXPECT_EQ(index.num_trajectories(), 8);
    EXPECT_EQ(index.num_covered(), 3);
    EXPECT_EQ(index.dataset_ids(),
              (std::vector<model::TrajectoryId>{1, 4, 6}));
    EXPECT_EQ(index.CoveredBy(0), (std::vector<model::TrajectoryId>{0, 1}));
    EXPECT_EQ(index.CoveredBy(2), (std::vector<model::TrajectoryId>{1, 2}));
    EXPECT_EQ(CoveringVector(index, 1),
              (std::vector<model::BillboardId>{0, 2}));
    EXPECT_EQ(CoveringVector(index, 0), (std::vector<model::BillboardId>{0}));
    EXPECT_EQ(CoveringVector(index, 2), (std::vector<model::BillboardId>{2}));
    EXPECT_EQ(DatasetIdsCoveredBy(index, 2),
              (std::vector<model::TrajectoryId>{4, 6}));
    EXPECT_EQ(index.TotalSupply(), 4);
  }
}

TEST(InfluenceIndexTest, DuplicatePointsCountOnce) {
  // A trajectory passing a billboard multiple times is influenced once.
  model::Dataset d;
  model::Billboard b;
  b.id = 0;
  b.location = {0, 0};
  d.billboards.push_back(b);
  model::Trajectory t;
  t.id = 0;
  t.points = {{0, 0}, {0.5, 0}, {100, 0}, {0.2, 0}};
  d.trajectories.push_back(t);
  InfluenceIndex index = InfluenceIndex::Build(d, 1.0);
  EXPECT_EQ(index.InfluenceOf(0), 1);
  EXPECT_EQ(index.TotalSupply(), 1);
}

TEST(InfluenceIndexTest, LambdaBoundaryIsInclusive) {
  model::Dataset d;
  model::Billboard b;
  b.id = 0;
  b.location = {0, 0};
  d.billboards.push_back(b);
  model::Trajectory exactly;
  exactly.id = 0;
  exactly.points = {{100.0, 0.0}};
  model::Trajectory beyond;
  beyond.id = 1;
  beyond.points = {{100.0001, 0.0}};
  d.trajectories = {exactly, beyond};
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  EXPECT_EQ(DatasetIdsCoveredBy(index, 0),
            (std::vector<model::TrajectoryId>{0}));
  EXPECT_EQ(index.num_covered(), 1);
}

TEST(InfluenceIndexTest, MatchesBruteForceOnGeneratedCity) {
  common::Rng rng(3);
  gen::NycLikeConfig cfg;
  cfg.num_billboards = 40;
  cfg.num_trajectories = 120;
  model::Dataset d = gen::GenerateNycLike(cfg, &rng);
  const double lambda = 100.0;
  InfluenceIndex index = InfluenceIndex::Build(d, lambda);
  auto brute = BruteForceIncidence(d, lambda);
  ASSERT_EQ(brute.size(), static_cast<size_t>(index.num_billboards()));
  std::vector<model::TrajectoryId> met;
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    EXPECT_EQ(DatasetIdsCoveredBy(index, o), brute[o]) << "billboard " << o;
    met.insert(met.end(), brute[o].begin(), brute[o].end());
  }
  // The universe is exactly the trajectories some board meets.
  std::sort(met.begin(), met.end());
  met.erase(std::unique(met.begin(), met.end()), met.end());
  EXPECT_EQ(index.dataset_ids(), met);
  EXPECT_LT(index.num_covered(), index.num_trajectories());
}

TEST(InfluenceIndexTest, InfluenceOfSetUnionsDistinctTrajectories) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2}, {2, 3}, {4}, {}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  EXPECT_EQ(index.InfluenceOfSet({0, 1}), 4);   // {0,1,2,3}
  EXPECT_EQ(index.InfluenceOfSet({0, 1, 2}), 5);
  EXPECT_EQ(index.InfluenceOfSet({3}), 0);
  EXPECT_EQ(index.InfluenceOfSet({}), 0);
}

TEST(InfluenceIndexTest, ListsAreSorted) {
  common::Rng rng(4);
  gen::SgLikeConfig cfg;
  cfg.num_billboards = 200;
  cfg.num_trajectories = 500;
  model::Dataset d = gen::GenerateSgLike(cfg, &rng);
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    const auto& list = index.CoveredBy(o);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    EXPECT_TRUE(std::adjacent_find(list.begin(), list.end()) == list.end());
  }
}

TEST(AssignBillboardCostsTest, CostTracksInfluence) {
  std::vector<std::vector<model::TrajectoryId>> covered(2);
  for (int i = 0; i < 100; ++i) covered[0].push_back(i);
  covered[1] = {100};
  model::Dataset d = DatasetFromIncidence(covered, 101);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  common::Rng rng(5);
  AssignBillboardCosts(&d, index, &rng);
  // o.w = floor(tau * I(o)/10), tau in [0.9, 1.1].
  EXPECT_GE(d.billboards[0].cost, 9.0);
  EXPECT_LE(d.billboards[0].cost, 11.0);
  EXPECT_EQ(d.billboards[1].cost, 0.0);  // floor(tau * 0.1) = 0
}

TEST(ReportsTest, InfluenceDistributionIsDescendingAndNormalized) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1}, {0, 1, 2, 3}, {4}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  std::vector<double> dist = InfluenceDistribution(index);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
  EXPECT_DOUBLE_EQ(dist[1], 0.5);
  EXPECT_DOUBLE_EQ(dist[2], 0.25);
  EXPECT_TRUE(std::is_sorted(dist.rbegin(), dist.rend()));
}

TEST(ReportsTest, ImpressionCurveIsMonotone) {
  common::Rng rng(6);
  gen::SgLikeConfig cfg;
  cfg.num_billboards = 300;
  cfg.num_trajectories = 1000;
  model::Dataset d = gen::GenerateSgLike(cfg, &rng);
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  std::vector<double> pct{0.0, 10.0, 25.0, 50.0, 75.0, 100.0};
  std::vector<double> curve = ImpressionCurve(index, pct);
  ASSERT_EQ(curve.size(), pct.size());
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  EXPECT_TRUE(std::is_sorted(curve.begin(), curve.end()));
  EXPECT_GT(curve.back(), 0.5);  // most rides pass at least one stop
  EXPECT_LE(curve.back(), 1.0);
}

TEST(ReportsTest, SummaryMatchesHandComputation) {
  // Influences: 10, 6, 4, 0 over 12 trajectories; board lists are
  // disjoint except o1 fully inside o0's coverage.
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0, 1, 2, 3, 4, 5}, {10, 11}, {}};
  model::Dataset d = DatasetFromIncidence(covered, 12);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  InfluenceSummary s = SummarizeInfluence(index);
  EXPECT_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.mean, 18.0 / 4.0);
  // Top decile = top max(1, 4/10) = 1 board: share 10/18.
  EXPECT_DOUBLE_EQ(s.top_decile_share, 10.0 / 18.0);
  // Top half = 2 boards (o0, o1): union {0..9} -> 10/12.
  EXPECT_DOUBLE_EQ(s.coverage_ratio_top_half, 10.0 / 12.0);
}

TEST(ReportsTest, EmptyIndexIsHandled) {
  model::Dataset d;
  d.name = "empty";
  InfluenceIndex index = InfluenceIndex::Build(d, 1.0);
  EXPECT_TRUE(InfluenceDistribution(index).empty());
  InfluenceSummary s = SummarizeInfluence(index);
  EXPECT_EQ(s.max, 0);
}

}  // namespace
}  // namespace mroam::influence
