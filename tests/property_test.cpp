// Property-based tests of the solver stack: hardness-reduction instances,
// duality, local-maximum guarantees, and random-instance invariants.
#include <algorithm>
#include <bit>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/local_search.h"
#include "core/solver.h"
#include "market/workload.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

// ---------------------------------------------------------------------------
// N3DM-shaped instances (the paper's hardness reduction, §4): three groups
// of billboards with influences c + x_i, 3c + y_i, 9c + z_i and advertisers
// all demanding b + 13c. When the underlying N3DM instance has a perfect
// matching, zero regret is achievable by construction. BLS with restarts
// should find it on small instances.
// ---------------------------------------------------------------------------

struct N3dmInstance {
  std::vector<std::vector<model::TrajectoryId>> covered;
  int32_t num_trajectories = 0;
  std::vector<market::Advertiser> advertisers;
};

N3dmInstance BuildN3dm(const std::vector<int>& xs, const std::vector<int>& ys,
                       const std::vector<int>& zs, int b, int c) {
  N3dmInstance inst;
  int32_t next_traj = 0;
  auto add_billboard = [&](int influence) {
    std::vector<model::TrajectoryId> list;
    for (int k = 0; k < influence; ++k) list.push_back(next_traj++);
    inst.covered.push_back(std::move(list));
  };
  for (int x : xs) add_billboard(c + x);
  for (int y : ys) add_billboard(3 * c + y);
  for (int z : zs) add_billboard(9 * c + z);
  inst.num_trajectories = next_traj;
  const int64_t demand = b + 13 * c;
  for (size_t i = 0; i < xs.size(); ++i) {
    inst.advertisers.push_back(
        Adv(static_cast<market::AdvertiserId>(i), demand,
            static_cast<double>(demand)));
  }
  return inst;
}

TEST(N3dmTest, ZeroRegretPlanExistsAndIsRecognized) {
  // Matching: (1,5,9), (2,6,7), (3,4,8); b = 15.
  N3dmInstance inst = BuildN3dm({1, 2, 3}, {5, 6, 4}, {9, 7, 8}, 15, 20);
  model::Dataset dataset;
  auto index =
      IndexFromIncidence(inst.covered, inst.num_trajectories, &dataset);
  Assignment s(&index, inst.advertisers, RegretParams{0.0});
  // Hand-assign the known matching: advertiser i gets (x_i, y_i, z_i)
  // where the triples above sum to 15.
  s.Assign(0, 0);  // x=1
  s.Assign(3, 0);  // y=5
  s.Assign(6, 0);  // z=9
  s.Assign(1, 1);  // x=2
  s.Assign(4, 1);  // y=6
  s.Assign(7, 1);  // z=7
  s.Assign(2, 2);  // x=3
  s.Assign(5, 2);  // y=4
  s.Assign(8, 2);  // z=8
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST(N3dmTest, BlsSolvesSmallMatchingInstances) {
  N3dmInstance inst = BuildN3dm({1, 2, 3}, {5, 6, 4}, {9, 7, 8}, 15, 20);
  model::Dataset dataset;
  auto index =
      IndexFromIncidence(inst.covered, inst.num_trajectories, &dataset);
  SolverConfig config;
  config.method = Method::kBls;
  config.regret.gamma = 0.0;
  config.local_search.restarts = 8;
  config.seed = 17;
  SolveResult result = Solve(index, inst.advertisers, config);
  EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
  EXPECT_EQ(result.breakdown.satisfied_count, 3);
}

TEST(N3dmTest, NoMatchingMeansPositiveRegretForEveryMethod) {
  // An unmatchable instance: b = 16 but z = 12 would need x + y = 4 while
  // min(x) + min(y) = 5, so no perfect matching exists. Total supply still
  // equals total demand (48 = 3 * 16 + residuals), so any plan must over-
  // and under-shoot somewhere, and c = 20 is large enough that every
  // zero-regret group would have to be one billboard from each tier.
  N3dmInstance inst = BuildN3dm({1, 2, 3}, {4, 5, 6}, {7, 8, 12}, 16, 20);
  model::Dataset dataset;
  auto index =
      IndexFromIncidence(inst.covered, inst.num_trajectories, &dataset);
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    config.regret.gamma = 0.0;
    SolveResult result = Solve(index, inst.advertisers, config);
    EXPECT_GT(result.breakdown.total, 0.0) << MethodName(method);
  }
}

// ---------------------------------------------------------------------------
// Theorem 2 premise: after BLS, the plan is a (1+r)-approximate local
// maximum of the dual R' (Definition 6.1) for the single-advertiser case
// with gamma = 1 (where min-R and max-R' coincide exactly).
// ---------------------------------------------------------------------------

class DualLocalMaxTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualLocalMaxTest, BlsOutputIsApproximateLocalMaximumOfDual) {
  common::Rng rng(GetParam());
  const int32_t num_billboards = 10;
  const int32_t num_trajectories = 40;
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (int32_t t = 0; t < num_trajectories; ++t) {
      if (rng.Bernoulli(0.2)) list.push_back(t);
    }
  }
  model::Dataset dataset;
  auto index = IndexFromIncidence(covered, num_trajectories, &dataset);
  std::vector<market::Advertiser> ads = {Adv(0, 18, 18.0)};

  const double r = 0.01;
  Assignment s(&index, ads, RegretParams{1.0});
  SynchronousGreedy(&s);
  LocalSearchConfig config;
  config.improvement_ratio = r;
  BillboardDrivenLocalSearch(&s, config);

  const double dual = s.DualOf(0);
  // Removal neighbors: (1+r) R'(S) >= R'(S \ {o}).
  for (model::BillboardId o : s.BillboardsOf(0)) {
    int64_t influence_without = s.InfluenceOf(0) - s.MarginalLoss(0, o);
    double neighbor = DualRevenue(ads[0], influence_without);
    EXPECT_GE((1.0 + r) * dual, neighbor - 1e-9) << "remove " << o;
  }
  // Addition neighbors: (1+r) R'(S) >= R'(S ∪ {o}).
  for (model::BillboardId o : s.FreeBillboards()) {
    int64_t influence_with = s.InfluenceOf(0) + s.MarginalGain(0, o);
    double neighbor = DualRevenue(ads[0], influence_with);
    EXPECT_GE((1.0 + r) * dual, neighbor - 1e-9) << "add " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualLocalMaxTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// ---------------------------------------------------------------------------
// Random-instance sweeps: structural invariants of every method.
// ---------------------------------------------------------------------------

struct RandomInstance {
  model::Dataset dataset;
  std::vector<std::vector<model::TrajectoryId>> covered;
  std::vector<market::Advertiser> advertisers;
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  common::Rng rng(seed);
  RandomInstance inst;
  const int32_t num_billboards = 3 + static_cast<int32_t>(rng.UniformU64(15));
  const int32_t num_trajectories = 20 + static_cast<int32_t>(rng.UniformU64(40));
  inst.covered.resize(num_billboards);
  for (auto& list : inst.covered) {
    for (int32_t t = 0; t < num_trajectories; ++t) {
      if (rng.Bernoulli(0.2)) list.push_back(t);
    }
  }
  const int32_t num_ads = 1 + static_cast<int32_t>(rng.UniformU64(5));
  for (int32_t a = 0; a < num_ads; ++a) {
    int64_t demand = 1 + static_cast<int64_t>(rng.UniformU64(num_trajectories));
    double payment = std::max(1.0, std::floor(static_cast<double>(demand) *
                                              rng.UniformDouble(0.9, 1.1)));
    inst.advertisers.push_back(
        Adv(a, demand, payment));
  }
  return inst;
}

class RandomInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstanceTest, AllMethodsKeepStructuralInvariants) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  auto index = IndexFromIncidence(
      inst.covered, 64, &inst.dataset);
  double payment_sum = market::TotalPayment(inst.advertisers);
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    config.regret.gamma = 0.5;
    config.local_search.restarts = 2;
    config.seed = GetParam() * 31 + 7;
    SolveResult result = Solve(index, inst.advertisers, config);

    // Disjoint sets.
    std::set<model::BillboardId> seen;
    for (const auto& set : result.sets) {
      for (model::BillboardId o : set) {
        EXPECT_TRUE(seen.insert(o).second);
      }
    }
    // Influence matches union counting.
    for (size_t a = 0; a < result.sets.size(); ++a) {
      EXPECT_EQ(result.influences[a], index.InfluenceOfSet(result.sets[a]));
    }
    // Unsatisfied penalty can never exceed the payment sum.
    EXPECT_LE(result.breakdown.unsatisfied_penalty, payment_sum + 1e-9);
    EXPECT_GE(result.breakdown.total, -1e-9);
  }
}

TEST_P(RandomInstanceTest, LocalSearchMethodsNeverLoseToGGlobal) {
  RandomInstance inst = MakeRandomInstance(GetParam() + 5000);
  auto index = IndexFromIncidence(inst.covered, 64, &inst.dataset);
  SolverConfig global_cfg;
  global_cfg.method = Method::kGGlobal;
  double global =
      Solve(index, inst.advertisers, global_cfg).breakdown.total;
  for (Method method : {Method::kAls, Method::kBls}) {
    SolverConfig config;
    config.method = method;
    config.local_search.restarts = 2;
    config.seed = GetParam();
    double regret = Solve(index, inst.advertisers, config).breakdown.total;
    EXPECT_LE(regret, global + 1e-9) << MethodName(method);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Compaction: an index's universe is the trajectories some board covers,
// so trajectories no board meets change no plan. Inserting them at random
// positions renumbers every covered trajectory's dataset id, yet every
// method at thresholds 1-3 returns the same sets, regret and BLS counters,
// and every counter holds exactly the covered trajectories.
// ---------------------------------------------------------------------------

class CompactionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactionTest, UncoveredTrajectoriesChangeNoPlan) {
  RandomInstance inst = MakeRandomInstance(GetParam() + 9000);
  constexpr int32_t kTrajectories = 64;  // MakeRandomInstance's ids fit
  common::Rng rng(GetParam());
  std::vector<model::TrajectoryId> spread(kTrajectories);
  model::TrajectoryId next = 0;
  for (model::TrajectoryId& id : spread) {
    next += static_cast<model::TrajectoryId>(rng.UniformU64(4));
    id = next++;
  }
  std::vector<std::vector<model::TrajectoryId>> padded = inst.covered;
  for (auto& list : padded) {
    for (model::TrajectoryId& t : list) t = spread[static_cast<size_t>(t)];
  }
  // The two instances go through different factories (Build and
  // FromIncidence), so neither can hide an order its compaction breaks.
  const auto base =
      IndexFromIncidence(inst.covered, kTrajectories, &inst.dataset);
  const auto wide = influence::InfluenceIndex::FromIncidence(
      padded, next + 2, testing::kFixtureLambda);
  ASSERT_EQ(wide.num_covered(), base.num_covered());
  ASSERT_GT(wide.num_trajectories(), base.num_trajectories());
  EXPECT_EQ(wide.covered(), base.covered());

  for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
    const Assignment empty(&wide, inst.advertisers, RegretParams{0.5},
                           threshold);
    for (int32_t a = 0; a < empty.num_advertisers(); ++a) {
      EXPECT_EQ(empty.CounterOf(a).universe(), wide.num_covered());
    }
    for (Method method : AllMethods()) {
      SolverConfig config;
      config.method = method;
      config.regret.gamma = 0.5;
      config.impression_threshold = threshold;
      config.local_search.restarts = 2;
      config.seed = GetParam() * 13 + threshold;
      const SolveResult want = Solve(base, inst.advertisers, config);
      const SolveResult got = Solve(wide, inst.advertisers, config);
      const std::string where = std::string(MethodName(method)) +
                                " at threshold " + std::to_string(threshold);
      EXPECT_EQ(got.sets, want.sets) << where;
      EXPECT_EQ(got.influences, want.influences) << where;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.breakdown.total),
                std::bit_cast<uint64_t>(want.breakdown.total))
          << where;
      EXPECT_EQ(got.search_stats.moves_applied,
                want.search_stats.moves_applied)
          << where;
      EXPECT_EQ(got.search_stats.deltas_evaluated,
                want.search_stats.deltas_evaluated)
          << where;
      EXPECT_EQ(got.search_stats.sweeps, want.search_stats.sweeps) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Objective-shape property: total regret of the returned plans is bounded
// below by the LP-ish lower bound |I^A - I*|-scaled penalty when gamma = 1
// and coverage is disjoint (supply is exactly partitionable).
// ---------------------------------------------------------------------------

TEST(DisjointSupplyTest, GammaOneRegretAtLeastDemandSupplyGap) {
  // 4 disjoint unit billboards, one advertiser demanding 6 at payment 6:
  // even a perfect plan leaves demand 2 unmet -> regret >= 6 * (1 - 4/6).
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}, {2}, {3}}, 4, &d);
  std::vector<market::Advertiser> ads = {Adv(0, 6, 6.0)};
  for (Method method : AllMethods()) {
    SolverConfig config;
    config.method = method;
    config.regret.gamma = 1.0;
    double regret = Solve(index, ads, config).breakdown.total;
    EXPECT_GE(regret, 6.0 * (1.0 - 4.0 / 6.0) - 1e-9) << MethodName(method);
  }
}

}  // namespace
}  // namespace mroam::core
