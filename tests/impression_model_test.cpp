// End-to-end tests of the impression-count influence measure (threshold
// m > 1, the [29]-style model the paper calls an orthogonal measurement
// choice in §3.1): Assignment semantics, solver behavior, and the
// monotone effect of raising the threshold.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/solver.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

TEST(ImpressionModelTest, AssignmentCountsThresholdedInfluence) {
  model::Dataset d;
  // o0={0,1}, o1={0,1}, o2={1}.
  auto index = IndexFromIncidence({{0, 1}, {0, 1}, {1}}, 2, &d);
  Assignment s(&index, {Adv(0, 2, 4.0)}, RegretParams{0.5},
               /*impression_threshold=*/2);
  EXPECT_EQ(s.impression_threshold(), 2);
  s.Assign(0, 0);
  EXPECT_EQ(s.InfluenceOf(0), 0);
  s.Assign(1, 0);
  EXPECT_EQ(s.InfluenceOf(0), 2);  // both trajectories met twice
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_TRUE(s.IsSatisfied(0));
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
}

TEST(ImpressionModelTest, MoveDeltasRemainConsistent) {
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1, 2}, {0, 1}, {1, 2}, {2, 3}}, 4, &d);
  Assignment s(&index, {Adv(0, 3, 9.0), Adv(1, 2, 4.0)}, RegretParams{0.5},
               /*impression_threshold=*/2);
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  s.Assign(3, 1);
  double delta = s.DeltaExchangeAcross(1, 3);
  double before = s.TotalRegret();
  s.ExchangeAcross(1, 3);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST(ImpressionModelTest, SolverRunsUnderThreshold) {
  model::Dataset d;
  // Four billboards, pairwise-overlapping coverage so a threshold of two
  // is attainable.
  auto index = IndexFromIncidence(
      {{0, 1, 2}, {0, 1, 2}, {2, 3, 4}, {2, 3, 4}}, 5, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 3, 9.0), Adv(1, 3, 9.0)};
  double g_global = -1.0;
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    config.impression_threshold = 2;
    config.local_search.restarts = 5;
    SolveResult result = Solve(index, ads, config);
    EXPECT_GE(result.breakdown.total, 0.0) << MethodName(method);
    if (method == Method::kGGlobal) g_global = result.breakdown.total;
    if (method == Method::kGOrder) {
      // Sequential serving finds both overlapping pairs exactly.
      EXPECT_EQ(result.breakdown.satisfied_count, 2);
      EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
    }
    if (method == Method::kBls) {
      EXPECT_LE(result.breakdown.total, g_global + 1e-9);
    }
  }
}

TEST(ImpressionModelTest, HigherThresholdNeverIncreasesInfluence) {
  // For a FIXED deployment, raising the threshold can only reduce each
  // advertiser's influence.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}}, 4, &d);
  std::vector<int64_t> influences;
  for (uint16_t m : {uint16_t{1}, uint16_t{2}, uint16_t{3}, uint16_t{4}}) {
    Assignment s(&index, {Adv(0, 4, 8.0)}, RegretParams{0.5}, m);
    for (model::BillboardId o = 0; o < 4; ++o) s.Assign(o, 0);
    influences.push_back(s.InfluenceOf(0));
  }
  EXPECT_EQ(influences, (std::vector<int64_t>{4, 3, 2, 1}));
}

TEST(ImpressionModelTest, GreedyUsesThresholdedMarginals) {
  // Advertiser demands 2 at threshold 2. o0 and o1 overlap on {0,1};
  // o2 covers {2,3} alone (useless at threshold 2 without a partner).
  // Greedy must pick the overlapping pair.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {0, 1}, {2, 3}}, 4, &d);
  Assignment s(&index, {Adv(0, 2, 6.0)}, RegretParams{0.5},
               /*impression_threshold=*/2);
  SynchronousGreedy(&s);
  EXPECT_TRUE(s.IsSatisfied(0));
  EXPECT_EQ(s.InfluenceOf(0), 2);
}

}  // namespace
}  // namespace mroam::core
