#include "core/assignment.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

class AssignmentTest : public ::testing::Test {
 protected:
  AssignmentTest()
      : index_(IndexFromIncidence(
            // o0={0,1,2}, o1={2,3}, o2={4,5,6,7}, o3={7,8}, o4={}
            {{0, 1, 2}, {2, 3}, {4, 5, 6, 7}, {7, 8}, {}}, 9, &dataset_)) {}

  std::vector<market::Advertiser> TwoAdvertisers() {
    return {Adv(0, 4, 10.0), Adv(1, 3, 6.0)};
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(AssignmentTest, InitialStateIsAllFreeFullRegret) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  EXPECT_EQ(s.num_advertisers(), 2);
  EXPECT_EQ(s.FreeBillboards().size(), 5u);
  EXPECT_EQ(s.InfluenceOf(0), 0);
  EXPECT_DOUBLE_EQ(s.RegretOf(0), 10.0);
  EXPECT_DOUBLE_EQ(s.RegretOf(1), 6.0);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 16.0);
  EXPECT_EQ(s.OwnerOf(0), market::kNoAdvertiser);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, AssignUpdatesEverything) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  EXPECT_EQ(s.OwnerOf(0), 0);
  EXPECT_EQ(s.InfluenceOf(0), 3);
  EXPECT_EQ(s.BillboardsOf(0).size(), 1u);
  EXPECT_EQ(s.FreeBillboards().size(), 4u);
  // R = 10 * (1 - 0.5 * 3/4) = 6.25; advertiser 1 still at 6.
  EXPECT_DOUBLE_EQ(s.RegretOf(0), 6.25);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 12.25);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, ReleaseRestoresState) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Release(0);
  EXPECT_EQ(s.OwnerOf(0), market::kNoAdvertiser);
  EXPECT_EQ(s.InfluenceOf(0), 2);  // o1 covers {2,3}
  s.Release(1);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 16.0);
  EXPECT_EQ(s.FreeBillboards().size(), 5u);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, DeltaAssignMatchesMutation) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  double before = s.TotalRegret();
  double delta = s.DeltaAssign(1, 0);
  s.Assign(1, 0);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, DeltaReleaseMatchesMutation) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  double before = s.TotalRegret();
  double delta = s.DeltaRelease(1);
  s.Release(1);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
}

TEST_F(AssignmentTest, DeltaExchangeAcrossMatchesMutation) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);   // a0: o0 -> influence 3
  s.Assign(2, 1);   // a1: o2 -> influence 4
  double before = s.TotalRegret();
  double delta = s.DeltaExchangeAcross(0, 2);
  s.ExchangeAcross(0, 2);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
  EXPECT_EQ(s.OwnerOf(0), 1);
  EXPECT_EQ(s.OwnerOf(2), 0);
  EXPECT_EQ(s.InfluenceOf(0), 4);
  EXPECT_EQ(s.InfluenceOf(1), 3);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, DeltaReplaceMatchesMutation) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  double before = s.TotalRegret();
  double delta = s.DeltaReplace(0, 2);  // drop o0, pick free o2
  s.Replace(0, 2);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
  EXPECT_EQ(s.OwnerOf(0), market::kNoAdvertiser);
  EXPECT_EQ(s.OwnerOf(2), 0);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, SwapSetsExchangesWholePlans) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  double delta = s.DeltaSwapSets(0, 1);
  double before = s.TotalRegret();
  s.SwapSets(0, 1);
  EXPECT_NEAR(s.TotalRegret() - before, delta, 1e-9);
  EXPECT_EQ(s.BillboardsOf(0), (std::vector<model::BillboardId>{2}));
  EXPECT_EQ(s.OwnerOf(0), 1);
  EXPECT_EQ(s.OwnerOf(1), 1);
  EXPECT_EQ(s.OwnerOf(2), 0);
  EXPECT_EQ(s.InfluenceOf(0), 4);
  EXPECT_EQ(s.InfluenceOf(1), 4);  // o0 + o1 cover {0,1,2,3}
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, OverlappingCoverageDoesNotDoubleCount) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);  // {0,1,2}
  s.Assign(1, 0);  // {2,3} -> influence 4, not 5
  EXPECT_EQ(s.InfluenceOf(0), 4);
}

TEST_F(AssignmentTest, ZeroInfluenceBillboardIsNeutral) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  double before = s.TotalRegret();
  s.Assign(4, 0);
  EXPECT_EQ(s.InfluenceOf(0), 0);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), before);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, ReleaseAllAndReset) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  s.ReleaseAll(0);
  EXPECT_TRUE(s.BillboardsOf(0).empty());
  EXPECT_EQ(s.BillboardsOf(1).size(), 1u);
  s.Reset();
  EXPECT_EQ(s.FreeBillboards().size(), 5u);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 16.0);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, CopyDeploymentFrom) {
  Assignment a(&index_, TwoAdvertisers(), RegretParams{0.5});
  a.Assign(0, 0);
  a.Assign(2, 1);
  Assignment b(&index_, TwoAdvertisers(), RegretParams{0.5});
  b.CopyDeploymentFrom(a);
  EXPECT_EQ(b.OwnerOf(0), 0);
  EXPECT_EQ(b.OwnerOf(2), 1);
  EXPECT_DOUBLE_EQ(b.TotalRegret(), a.TotalRegret());
  EXPECT_EQ(b.CheckInvariants(), common::Status::Ok());
  // Mutating the copy leaves the original untouched.
  b.Release(0);
  EXPECT_EQ(a.OwnerOf(0), 0);
  EXPECT_EQ(a.CheckInvariants(), common::Status::Ok());
}

TEST_F(AssignmentTest, BreakdownSplitsComponents) {
  // a0 demand 4: give it o2 (4 trajectories) -> satisfied, zero regret.
  // a1 demand 3: give it o1 (2) -> unsatisfied.
  Assignment s(&index_, TwoAdvertisers(), RegretParams{0.5});
  s.Assign(2, 0);
  s.Assign(1, 1);
  RegretBreakdown b = s.Breakdown();
  EXPECT_EQ(b.satisfied_count, 1);
  EXPECT_EQ(b.advertiser_count, 2);
  EXPECT_DOUBLE_EQ(b.excessive, 0.0);
  // a1: 6 * (1 - 0.5 * 2/3) = 4.
  EXPECT_DOUBLE_EQ(b.unsatisfied_penalty, 4.0);
  EXPECT_DOUBLE_EQ(b.total, s.TotalRegret());
}

TEST_F(AssignmentTest, DualTracksRegret) {
  Assignment s(&index_, TwoAdvertisers(), RegretParams{1.0});
  s.Assign(2, 0);  // exactly satisfies a0 (demand 4)
  EXPECT_DOUBLE_EQ(s.DualOf(0), 10.0);
  EXPECT_DOUBLE_EQ(s.RegretOf(0), 0.0);
  // With gamma = 1, R + R' = L for every advertiser, so totals match too.
  EXPECT_NEAR(s.TotalRegret() + s.TotalDual(), 16.0, 1e-9);
}

// Random mutation soak: after any sequence of valid moves the caches must
// match a from-scratch recomputation.
class AssignmentSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssignmentSoakTest, RandomMoveSequencesKeepInvariants) {
  common::Rng rng(GetParam());
  // Random incidence over 10 billboards / 25 trajectories.
  std::vector<std::vector<model::TrajectoryId>> covered(10);
  for (auto& list : covered) {
    for (int32_t t = 0; t < 25; ++t) {
      if (rng.Bernoulli(0.3)) list.push_back(t);
    }
  }
  model::Dataset dataset;
  influence::InfluenceIndex index =
      IndexFromIncidence(covered, 25, &dataset);
  std::vector<market::Advertiser> ads = {Adv(0, 8, 12.0), Adv(1, 5, 7.0),
                                         Adv(2, 12, 30.0)};
  Assignment s(&index, ads, RegretParams{0.5});

  for (int step = 0; step < 300; ++step) {
    double choice = rng.UniformDouble();
    if (choice < 0.45 && !s.FreeBillboards().empty()) {
      const auto& free = s.FreeBillboards();
      model::BillboardId o = free[rng.UniformU64(free.size())];
      market::AdvertiserId a =
          static_cast<market::AdvertiserId>(rng.UniformU64(3));
      double delta = s.DeltaAssign(o, a);
      double before = s.TotalRegret();
      s.Assign(o, a);
      ASSERT_NEAR(s.TotalRegret() - before, delta, 1e-9);
    } else if (choice < 0.8) {
      market::AdvertiserId a =
          static_cast<market::AdvertiserId>(rng.UniformU64(3));
      if (s.BillboardsOf(a).empty()) continue;
      const auto& set = s.BillboardsOf(a);
      model::BillboardId o = set[rng.UniformU64(set.size())];
      double delta = s.DeltaRelease(o);
      double before = s.TotalRegret();
      s.Release(o);
      ASSERT_NEAR(s.TotalRegret() - before, delta, 1e-9);
    } else {
      market::AdvertiserId i =
          static_cast<market::AdvertiserId>(rng.UniformU64(3));
      market::AdvertiserId j =
          static_cast<market::AdvertiserId>(rng.UniformU64(3));
      if (i == j) continue;
      double delta = s.DeltaSwapSets(i, j);
      double before = s.TotalRegret();
      s.SwapSets(i, j);
      ASSERT_NEAR(s.TotalRegret() - before, delta, 1e-9);
    }
    if (step % 50 == 0) {
      EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
    }
  }
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentSoakTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace mroam::core
