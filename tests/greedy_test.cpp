#include "core/greedy.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;
using mroam::testing::PaperExampleAdvertisers;
using mroam::testing::PaperExampleIncidence;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : index_(IndexFromIncidence(PaperExampleIncidence(), 20, &dataset_)) {}

  Assignment MakeAssignment(double gamma = 0.5) {
    return Assignment(&index_, PaperExampleAdvertisers(),
                      RegretParams{gamma});
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(PaperExampleTest, StrategyOneRegretsMatchTableThree) {
  // Strategy 1 (Table 3): S1={o2}, S2={o4}, S3={o1,o3,o5,o6}
  // (paper ids are 1-based; ours are 0-based).
  Assignment s = MakeAssignment();
  s.Assign(1, 0);                    // o2 -> a1, influence 6 (demand 5)
  s.Assign(3, 1);                    // o4 -> a2, influence 7 (demand 7)
  for (model::BillboardId o : {0, 2, 4, 5}) s.Assign(o, 2);  // influence 7
  EXPECT_EQ(s.InfluenceOf(0), 6);
  EXPECT_EQ(s.InfluenceOf(1), 7);
  EXPECT_EQ(s.InfluenceOf(2), 7);
  EXPECT_TRUE(s.IsSatisfied(0));
  EXPECT_TRUE(s.IsSatisfied(1));
  EXPECT_FALSE(s.IsSatisfied(2));  // Table 3: a3 not satisfied
  // a1 over-satisfied by 1/5: R = 10 * 1/5 = 2 (excessive).
  EXPECT_DOUBLE_EQ(s.RegretOf(0), 2.0);
  EXPECT_DOUBLE_EQ(s.RegretOf(1), 0.0);
  // a3: R = 20 * (1 - 0.5 * 7/8) = 11.25 (revenue regret).
  EXPECT_DOUBLE_EQ(s.RegretOf(2), 11.25);
}

TEST_F(PaperExampleTest, StrategyTwoAchievesZeroRegret) {
  // Strategy 2 (Table 4): S1={o1,o3}, S2={o4}, S3={o2,o5,o6}.
  Assignment s = MakeAssignment();
  s.Assign(0, 0);
  s.Assign(2, 0);  // 2 + 3 = 5
  s.Assign(3, 1);  // 7
  for (model::BillboardId o : {1, 4, 5}) s.Assign(o, 2);  // 6+1+1 = 8
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.Breakdown().satisfied_count, 3);
}

TEST_F(PaperExampleTest, BestBillboardPrefersExactFit) {
  // For a1 (demand 5, payment 10) on an empty plan, the single billboard
  // reaching the demand exactly dominates: o2 (influence 6) has ratio
  // (10 - 2)/6 = 1.33 vs 1.0 (= L*gamma/I) for sub-demand boards and
  // 6/7 for the overshooting o4.
  Assignment s = MakeAssignment();
  EXPECT_EQ(BestBillboardFor(s, 0), 1);
}

TEST_F(PaperExampleTest, BestBillboardSkipsZeroInfluence) {
  // With only a zero-influence billboard free, there is no candidate.
  std::vector<std::vector<model::TrajectoryId>> covered{{0, 1}, {}};
  model::Dataset d;
  auto index = IndexFromIncidence(covered, 2, &d);
  Assignment s(&index, {Adv(0, 5, 10.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  EXPECT_EQ(BestBillboardFor(s, 0), model::kInvalidBillboard);
}

TEST_F(PaperExampleTest, GOrderReachesZeroRegretHere) {
  // Hand-traced: a3 (BE 2.5) takes {o1, o2} for exactly 8, a1 (BE 2.0)
  // takes {o3, o5, o6} for exactly 5, a2 (BE 1.57) takes {o4} for 7.
  Assignment s = MakeAssignment();
  BudgetEffectiveGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.Breakdown().satisfied_count, 3);

  std::vector<model::BillboardId> a3 = s.BillboardsOf(2);
  std::sort(a3.begin(), a3.end());
  EXPECT_EQ(a3, (std::vector<model::BillboardId>{0, 1}));
}

TEST_F(PaperExampleTest, GGlobalIsGreedyButSuboptimalHere) {
  // Hand-traced: in round one a1 grabs o2 (ratio 8/6) and over-satisfies,
  // leaving a3 to starve at influence 7:
  // total = 2 + 0 + 20*(1 - 0.5*7/8) = 13.25.
  Assignment s = MakeAssignment();
  SynchronousGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 13.25);
  EXPECT_TRUE(s.IsSatisfied(0));
  EXPECT_TRUE(s.IsSatisfied(1));
  EXPECT_FALSE(s.IsSatisfied(2));
}

TEST(BudgetEffectiveGreedyTest, ServesHighBudgetEffectivenessFirst) {
  // Two advertisers want the same single good billboard; the more
  // budget-effective one (higher L/I) must get it.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1, 2}}, 3, &d);
  Assignment s(&index, {Adv(0, 3, 3.0), Adv(1, 3, 9.0)}, RegretParams{0.5});
  BudgetEffectiveGreedy(&s);
  EXPECT_EQ(s.OwnerOf(0), 1);
  EXPECT_TRUE(s.IsSatisfied(1));
  EXPECT_FALSE(s.IsSatisfied(0));
}

TEST(BudgetEffectiveGreedyTest, UnsatisfiableAdvertiserDoesNotDrainPool) {
  // a0's demand (5) exceeds its reachable audience (4 trajectories in
  // total), so after taking every billboard that still adds influence the
  // remaining candidates have zero marginal gain for it. The selection
  // must skip them — not hand them out with a flat regret ratio — so the
  // `while (!IsSatisfied)` loop terminates and o1 stays free for a1.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {0}, {2}, {3}}, 4, &d);
  Assignment s(&index, {Adv(0, 5, 100.0), Adv(1, 1, 1.0)},
               RegretParams{0.5});
  BudgetEffectiveGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_FALSE(s.IsSatisfied(0));
  EXPECT_EQ(s.InfluenceOf(0), 4);  // o0, o2, o3 — never the redundant o1
  EXPECT_EQ(s.OwnerOf(1), 1);      // the zero-gain leftover serves a1
  EXPECT_TRUE(s.IsSatisfied(1));
}

TEST(BestBillboardTest, SkipsZeroMarginalGainCandidates) {
  // o1's audience is a subset of o0's: once a0 owns o0, o1 can never
  // change a0's influence and must not be offered.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {0}}, 2, &d);
  Assignment s(&index, {Adv(0, 5, 10.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  EXPECT_EQ(BestBillboardFor(s, 0), model::kInvalidBillboard);
}

TEST(BudgetEffectiveGreedyTest, StopsWhenBillboardsRunOut) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  Assignment s(&index, {Adv(0, 10, 10.0), Adv(1, 10, 5.0)},
               RegretParams{0.5});
  BudgetEffectiveGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  // Everything goes to the first-ordered advertiser; none satisfied.
  EXPECT_EQ(s.BillboardsOf(0).size(), 2u);
  EXPECT_TRUE(s.FreeBillboards().empty());
}

TEST(SynchronousGreedyTest, RoundRobinSharesBillboards) {
  // Two identical advertisers, four unit billboards: each should get two.
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}, {2}, {3}}, 4, &d);
  Assignment s(&index, {Adv(0, 2, 4.0), Adv(1, 2, 4.0)}, RegretParams{0.5});
  SynchronousGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_EQ(s.BillboardsOf(0).size(), 2u);
  EXPECT_EQ(s.BillboardsOf(1).size(), 2u);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
}

TEST(SynchronousGreedyTest, ReleasesLeastBudgetEffectiveUnderScarcity) {
  // Three advertisers each demand 2; only 4 unit billboards exist, so at
  // most two can be satisfied. The least budget-effective unsatisfied
  // advertiser (a2, BE = 1.0) must be released so the others succeed.
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}, {2}, {3}}, 4, &d);
  Assignment s(&index,
               {Adv(0, 2, 6.0), Adv(1, 2, 4.0), Adv(2, 2, 2.0)},
               RegretParams{0.5});
  SynchronousGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_TRUE(s.IsSatisfied(0));
  EXPECT_TRUE(s.IsSatisfied(1));
  EXPECT_FALSE(s.IsSatisfied(2));
  EXPECT_TRUE(s.BillboardsOf(2).empty());
  // a2's regret is its full payment (influence 0).
  EXPECT_DOUBLE_EQ(s.RegretOf(2), 2.0);
}

TEST(SynchronousGreedyTest, ResumesFromNonEmptyState) {
  // Algorithm 3 line 3.8 / Algorithm 5 line 5.11: greedy must accept and
  // keep a pre-seeded assignment.
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}, {2}, {3}}, 4, &d);
  Assignment s(&index, {Adv(0, 2, 4.0), Adv(1, 2, 4.0)}, RegretParams{0.5});
  s.Assign(3, 0);  // pre-seed
  SynchronousGreedy(&s);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  EXPECT_EQ(s.OwnerOf(3), 0);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
}

TEST(GreedyTieBreakTest, GammaZeroFallsBackToCoverageEfficiency) {
  // With gamma = 0 every non-crossing billboard has regret delta 0, so
  // the ratio rule ties at 0; the tie-break must prefer the billboard
  // whose coverage is least wasted (higher marginal gain per supplied
  // influence).
  // o0 covers {0,1}; o1 covers {1,2,3}; advertiser already covers {1}
  // via o2={1}. Marginal-gain ratios: o0 = 1/2, o1 = 2/3 -> pick o1.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {1, 2, 3}, {1}}, 4, &d);
  Assignment s(&index, {Adv(0, 4, 8.0)}, RegretParams{0.0});
  s.Assign(2, 0);
  EXPECT_EQ(BestBillboardFor(s, 0), 1);
}

TEST(GreedyTieBreakTest, FullTieBreaksToLowestId) {
  // Identical billboards: ratio and gain-ratio tie exactly; the lowest id
  // wins so runs are deterministic. Once o0 is taken the other three have
  // zero gain, and only o4 can help. Every candidate with supply is
  // scored, each pick.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {2}}, 3, &d);
  Assignment s(&index, {Adv(0, 3, 9.0)}, RegretParams{0.5});
  int64_t scored = 0;
  EXPECT_EQ(BestBillboardFor(s, 0, &scored), 0);
  EXPECT_EQ(scored, 5);
  s.Assign(0, 0);
  EXPECT_EQ(BestBillboardFor(s, 0, &scored), 4);
  EXPECT_EQ(scored, 9);
}

TEST(BestBillboardTest, ImpressionThresholdKeepsZeroGainBoardsEligible) {
  // At threshold 2 no single board influences anyone, so every gain is 0
  // on the empty plan. The boards stay eligible, since the first meeting
  // bootstraps coverage, and the tie goes to the lowest id. After o0, o1
  // lifts t0 and t1 to two meetings.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {0, 1}, {2}}, 3, &d);
  Assignment s(&index, {Adv(0, 2, 4.0)}, RegretParams{0.5},
               /*impression_threshold=*/2);
  EXPECT_EQ(s.MarginalGain(0, 0), 0);
  EXPECT_EQ(BestBillboardFor(s, 0), 0);
  s.Assign(0, 0);
  EXPECT_EQ(s.MarginalGain(0, 1), 2);
  EXPECT_EQ(BestBillboardFor(s, 0), 1);
}

TEST(SynchronousGreedyTest, SingleUnsatisfiedAdvertiserIsNotReleased) {
  // With one advertiser and insufficient supply, greedy assigns what it
  // can and returns (no release when fewer than two are unsatisfied).
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  Assignment s(&index, {Adv(0, 5, 10.0)}, RegretParams{0.5});
  SynchronousGreedy(&s);
  EXPECT_EQ(s.BillboardsOf(0).size(), 2u);
  EXPECT_FALSE(s.IsSatisfied(0));
}

}  // namespace
}  // namespace mroam::core
