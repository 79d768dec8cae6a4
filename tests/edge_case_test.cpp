// Edge cases across the solver stack: degenerate markets, zero-influence
// inventories, single-billboard economies, and boundary workloads.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/local_search.h"
#include "core/solver.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

TEST(EdgeCaseTest, NoAdvertisersIsANoOp) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    SolveResult result = Solve(index, {}, config);
    EXPECT_TRUE(result.sets.empty()) << MethodName(method);
    EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
    EXPECT_EQ(result.breakdown.advertiser_count, 0);
  }
}

TEST(EdgeCaseTest, NoBillboardsLeavesEveryoneUnserved) {
  model::Dataset d;
  auto index = IndexFromIncidence({}, 3, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 2, 5.0), Adv(1, 1, 3.0)};
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    SolveResult result = Solve(index, ads, config);
    EXPECT_DOUBLE_EQ(result.breakdown.total, 8.0) << MethodName(method);
    EXPECT_EQ(result.breakdown.satisfied_count, 0);
  }
}

TEST(EdgeCaseTest, AllZeroInfluenceBillboards) {
  model::Dataset d;
  auto index = IndexFromIncidence({{}, {}, {}}, 2, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 1, 2.0)};
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    SolveResult result = Solve(index, ads, config);
    // Nothing can be satisfied; no method may loop forever.
    EXPECT_DOUBLE_EQ(result.breakdown.total, 2.0) << MethodName(method);
  }
}

TEST(EdgeCaseTest, SingleBillboardSingleAdvertiser) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1, 2}}, 3, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 3, 9.0)};
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    SolveResult result = Solve(index, ads, config);
    EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0) << MethodName(method);
    EXPECT_EQ(result.influences[0], 3);
  }
}

TEST(EdgeCaseTest, DemandOfOne) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}}, 1, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 1, 1.0)};
  SolverConfig config;
  config.method = Method::kBls;
  SolveResult result = Solve(index, ads, config);
  EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
}

TEST(EdgeCaseTest, MoreAdvertisersThanBillboards) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 1, 3.0), Adv(1, 1, 2.0),
                                         Adv(2, 1, 1.0), Adv(3, 1, 0.5)};
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    SolveResult result = Solve(index, ads, config);
    EXPECT_LE(result.breakdown.satisfied_count, 2) << MethodName(method);
    EXPECT_GE(result.breakdown.satisfied_count, 1) << MethodName(method);
  }
}

TEST(EdgeCaseTest, IdenticalBillboardsAreInterchangeable) {
  // Five identical billboards; any two satisfy the advertiser... but the
  // coverage fully overlaps, so more than one adds nothing.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}, 2, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 2, 6.0)};
  SolverConfig config;
  config.method = Method::kBls;
  SolveResult result = Solve(index, ads, config);
  EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
  EXPECT_EQ(result.sets[0].size(), 1u);  // one board suffices; extras waste
}

TEST(EdgeCaseTest, LocalSearchOnEmptyAssignmentTerminates) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  Assignment s(&index, {Adv(0, 5, 5.0)}, RegretParams{0.5});
  LocalSearchConfig config;
  // ALS with a single advertiser has no pairs; must return immediately.
  LocalSearchStats stats = AdvertiserDrivenLocalSearch(&s, config);
  EXPECT_EQ(stats.moves_applied, 0);
  // BLS will allocate via the greedy move and then stop.
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_EQ(s.BillboardsOf(0).size(), 2u);
}

TEST(EdgeCaseTest, HugePaymentSmallDemand) {
  // Extremely budget-effective advertiser must be served first by G-Order.
  model::Dataset d;
  auto index = IndexFromIncidence({{0}}, 1, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 1, 1e9), Adv(1, 1, 1.0)};
  SolverConfig config;
  config.method = Method::kGOrder;
  SolveResult result = Solve(index, ads, config);
  EXPECT_EQ(result.influences[0], 1);
  EXPECT_EQ(result.influences[1], 0);
}

TEST(EdgeCaseTest, GammaBoundariesAreAccepted) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}}, 1, &d);
  for (double gamma : {0.0, 1.0}) {
    SolverConfig config;
    config.regret.gamma = gamma;
    SolveResult result = Solve(index, {Adv(0, 2, 4.0)}, config);
    EXPECT_GE(result.breakdown.total, 0.0);
  }
}

}  // namespace
}  // namespace mroam::core
