#include "core/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::CompressedTwin;
using mroam::testing::IndexFromIncidence;
using mroam::testing::PaperExampleAdvertisers;
using mroam::testing::PaperExampleIncidence;

/// Paper Example 3 with x = 5: o0={t0..t3}, o1={t0,t1,t2,t4}, o2={t4,t5};
/// advertisers a0 (I=5, L=5) and a1 (I=4, L=4). Starting from
/// S0={o0,o1}, S1={o2}, swapping whole sets makes things worse, but
/// exchanging o0 with o2 reaches zero regret — the separation between ALS
/// and BLS the paper uses to motivate BLS.
class ExampleThreeTest : public ::testing::Test {
 protected:
  ExampleThreeTest()
      : index_(IndexFromIncidence(
            {{0, 1, 2, 3}, {0, 1, 2, 4}, {4, 5}}, 6, &dataset_)) {}

  Assignment InitialPlan() {
    Assignment s(&index_, {Adv(0, 5, 5.0), Adv(1, 4, 4.0)},
                 RegretParams{0.5});
    s.Assign(0, 0);
    s.Assign(1, 0);
    s.Assign(2, 1);
    return s;
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(ExampleThreeTest, InitialRegretsMatchThePaper) {
  Assignment s = InitialPlan();
  EXPECT_EQ(s.InfluenceOf(0), 5);
  EXPECT_EQ(s.InfluenceOf(1), 2);
  // R = (x - 1) - 2*gamma = 4 - 1 = 3 at gamma = 0.5.
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 3.0);
  // Swapping the whole sets yields x + 1 - 2*gamma = 5: strictly worse.
  EXPECT_GT(s.DeltaSwapSets(0, 1), 0.0);
}

TEST_F(ExampleThreeTest, AlsCannotEscape) {
  Assignment s = InitialPlan();
  LocalSearchConfig config;
  LocalSearchStats stats = AdvertiserDrivenLocalSearch(&s, config);
  EXPECT_EQ(stats.moves_applied, 0);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 3.0);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

TEST_F(ExampleThreeTest, BlsFindsTheZeroRegretExchange) {
  Assignment s = InitialPlan();
  LocalSearchConfig config;
  LocalSearchStats stats = BillboardDrivenLocalSearch(&s, config);
  EXPECT_GT(stats.moves_applied, 0);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.InfluenceOf(0), 5);
  EXPECT_EQ(s.InfluenceOf(1), 4);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

class PaperExampleSearchTest : public ::testing::Test {
 protected:
  PaperExampleSearchTest()
      : index_(IndexFromIncidence(PaperExampleIncidence(), 20, &dataset_)) {}

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(PaperExampleSearchTest, LocalSearchNeverWorsensTheGreedyPlan) {
  for (SearchStrategy strategy : {SearchStrategy::kAdvertiserDriven,
                                  SearchStrategy::kBillboardDriven}) {
    Assignment s(&index_, PaperExampleAdvertisers(), RegretParams{0.5});
    SynchronousGreedy(&s);
    double greedy_regret = s.TotalRegret();
    LocalSearchConfig config;
    if (strategy == SearchStrategy::kAdvertiserDriven) {
      AdvertiserDrivenLocalSearch(&s, config);
    } else {
      BillboardDrivenLocalSearch(&s, config);
    }
    EXPECT_LE(s.TotalRegret(), greedy_regret + 1e-9);
    EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
  }
}

TEST_F(PaperExampleSearchTest, BlsRepairsTheGreedyPlanToZero) {
  // SynchronousGreedy ends at 13.25 here (see greedy_test); a perfect
  // partition exists, and billboard-level moves can reach it.
  Assignment s(&index_, PaperExampleAdvertisers(), RegretParams{0.5});
  SynchronousGreedy(&s);
  LocalSearchConfig config;
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
}

TEST_F(PaperExampleSearchTest, RandomizedFrameworkIsDeterministicPerSeed) {
  LocalSearchConfig config;
  config.restarts = 3;
  for (SearchStrategy strategy : {SearchStrategy::kAdvertiserDriven,
                                  SearchStrategy::kBillboardDriven}) {
    common::Rng rng_a(7), rng_b(7);
    Assignment a = RandomizedLocalSearch(index_, PaperExampleAdvertisers(),
                                         RegretParams{0.5}, strategy, config,
                                         &rng_a);
    Assignment b = RandomizedLocalSearch(index_, PaperExampleAdvertisers(),
                                         RegretParams{0.5}, strategy, config,
                                         &rng_b);
    EXPECT_DOUBLE_EQ(a.TotalRegret(), b.TotalRegret());
    for (int32_t adv = 0; adv < a.num_advertisers(); ++adv) {
      EXPECT_EQ(a.InfluenceOf(adv), b.InfluenceOf(adv));
    }
  }
}

TEST_F(PaperExampleSearchTest, FrameworkNeverWorseThanSynchronousGreedy) {
  Assignment greedy(&index_, PaperExampleAdvertisers(), RegretParams{0.5});
  SynchronousGreedy(&greedy);
  LocalSearchConfig config;
  config.restarts = 2;
  common::Rng rng(11);
  Assignment best = RandomizedLocalSearch(
      index_, PaperExampleAdvertisers(), RegretParams{0.5},
      SearchStrategy::kBillboardDriven, config, &rng);
  EXPECT_LE(best.TotalRegret(), greedy.TotalRegret() + 1e-9);
  EXPECT_EQ(best.CheckInvariants(), common::Status::Ok());
}

// Algorithm 3 fidelity regression: the greedy incumbent must get local
// search applied even with zero restarts. On this fixture the greedy plan
// (regret 13.25) is known to be improvable by billboard exchanges, so the
// pre-fix behavior (returning the raw greedy plan) is strictly worse.
TEST_F(PaperExampleSearchTest, ZeroRestartsStillSearchesTheIncumbent) {
  Assignment greedy(&index_, PaperExampleAdvertisers(), RegretParams{0.5});
  SynchronousGreedy(&greedy);
  ASSERT_GT(greedy.TotalRegret(), 0.0);  // precondition: improvable

  for (SearchStrategy strategy : {SearchStrategy::kAdvertiserDriven,
                                  SearchStrategy::kBillboardDriven}) {
    LocalSearchConfig config;
    config.restarts = 0;
    common::Rng rng(5);
    LocalSearchStats stats;
    Assignment best = RandomizedLocalSearch(
        index_, PaperExampleAdvertisers(), RegretParams{0.5}, strategy,
        config, &rng, &stats);
    // The incumbent was actually searched (effort counters moved) and is
    // never worse than the plain greedy plan.
    EXPECT_GT(stats.deltas_evaluated, 0);
    EXPECT_LE(best.TotalRegret(), greedy.TotalRegret() + 1e-9);
    if (strategy == SearchStrategy::kBillboardDriven) {
      // BLS provably repairs this plan to zero (see
      // BlsRepairsTheGreedyPlanToZero) — restarts must not be required.
      EXPECT_DOUBLE_EQ(best.TotalRegret(), 0.0);
    }
    EXPECT_EQ(best.CheckInvariants(), common::Status::Ok());
  }
}

TEST_F(PaperExampleSearchTest, ParallelRestartsMatchSerialBitForBit) {
  LocalSearchConfig config;
  config.restarts = 5;
  for (SearchStrategy strategy : {SearchStrategy::kAdvertiserDriven,
                                  SearchStrategy::kBillboardDriven}) {
    common::Rng rng_serial(13), rng_parallel(13);
    LocalSearchConfig serial_cfg = config;
    serial_cfg.num_threads = 1;
    LocalSearchConfig parallel_cfg = config;
    parallel_cfg.num_threads = 8;
    LocalSearchStats serial_stats, parallel_stats;
    Assignment serial = RandomizedLocalSearch(
        index_, PaperExampleAdvertisers(), RegretParams{0.5}, strategy,
        serial_cfg, &rng_serial, &serial_stats);
    Assignment parallel = RandomizedLocalSearch(
        index_, PaperExampleAdvertisers(), RegretParams{0.5}, strategy,
        parallel_cfg, &rng_parallel, &parallel_stats);
    EXPECT_EQ(serial.TotalRegret(), parallel.TotalRegret());
    for (int32_t a = 0; a < serial.num_advertisers(); ++a) {
      EXPECT_EQ(serial.BillboardsOf(a), parallel.BillboardsOf(a));
    }
    EXPECT_EQ(serial_stats.deltas_evaluated, parallel_stats.deltas_evaluated);
    EXPECT_EQ(serial_stats.moves_applied, parallel_stats.moves_applied);
    EXPECT_EQ(serial_stats.sweeps, parallel_stats.sweeps);
  }
}

// Satellite of the telemetry PR: LocalSearchStats is reduced over the
// restart tasks in task-index order, so the aggregate totals must be a
// pure function of the seed — identical for every thread count, not just
// the serial/8-way pair above.
TEST_F(PaperExampleSearchTest, StatsAggregateDeterministicAcrossThreadCounts) {
  LocalSearchConfig config;
  config.restarts = 6;
  for (SearchStrategy strategy : {SearchStrategy::kAdvertiserDriven,
                                  SearchStrategy::kBillboardDriven}) {
    LocalSearchConfig baseline_cfg = config;
    baseline_cfg.num_threads = 1;
    common::Rng baseline_rng(29);
    LocalSearchStats baseline_stats;
    Assignment baseline = RandomizedLocalSearch(
        index_, PaperExampleAdvertisers(), RegretParams{0.5}, strategy,
        baseline_cfg, &baseline_rng, &baseline_stats);

    for (int32_t threads : {2, 3, 8}) {
      LocalSearchConfig cfg = config;
      cfg.num_threads = threads;
      common::Rng rng(29);
      LocalSearchStats stats;
      Assignment result = RandomizedLocalSearch(
          index_, PaperExampleAdvertisers(), RegretParams{0.5}, strategy,
          cfg, &rng, &stats);
      EXPECT_EQ(stats.sweeps, baseline_stats.sweeps) << threads;
      EXPECT_EQ(stats.moves_applied, baseline_stats.moves_applied) << threads;
      EXPECT_EQ(stats.deltas_evaluated, baseline_stats.deltas_evaluated)
          << threads;
      EXPECT_EQ(result.TotalRegret(), baseline.TotalRegret()) << threads;
    }
  }
}

// Exercises the first-improvement exchange scans (moves 1-2) across many
// sweeps on a randomized instance: a scan picks its move and only then
// applies it, so no list it walks changes under it (run under
// -DMROAM_SANITIZE=address to make any violation fatal).
TEST(FirstImprovementTest, ScanSurvivesMidSweepListMutation) {
  common::Rng gen(97);
  const int32_t num_billboards = 14;
  const int32_t num_trajectories = 40;
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (int32_t t = 0; t < num_trajectories; ++t) {
      if (gen.Bernoulli(0.3)) list.push_back(t);
    }
  }
  model::Dataset d;
  auto index = IndexFromIncidence(covered, num_trajectories, &d);
  Assignment s(&index,
               {Adv(0, 12, 12.0), Adv(1, 9, 9.0), Adv(2, 5, 5.0)},
               RegretParams{0.5});
  // Deliberately bad initial assignment so many exchanges fire.
  for (model::BillboardId o = 0; o < 9; ++o) {
    s.Assign(o, o % 3);
  }
  LocalSearchConfig config;
  config.best_improvement = false;  // the first-improvement path
  LocalSearchStats stats = BillboardDrivenLocalSearch(&s, config);
  EXPECT_GT(stats.moves_applied, 0);
  EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
}

/// The MoveScanTables instances: random assignments of four advertisers,
/// some boards left free, over a plain index and its compressed twin at
/// impression thresholds 1-3. Calls visit(s, where) on each, `where`
/// naming the instance for failure messages.
template <typename Visit>
void ForEachScanInstance(Visit&& visit) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    common::Rng gen(seed);
    const int32_t num_billboards = 24;
    const int32_t num_trajectories = 60;
    std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
    for (auto& list : covered) {
      for (int32_t t = 0; t < num_trajectories; ++t) {
        if (gen.Bernoulli(0.25)) list.push_back(t);
      }
    }
    model::Dataset d;
    const influence::InfluenceIndex plain =
        IndexFromIncidence(covered, num_trajectories, &d);
    const influence::InfluenceIndex compressed = CompressedTwin(plain);
    for (const influence::InfluenceIndex* index : {&plain, &compressed}) {
      for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
        Assignment s(index,
                     {Adv(0, 20, 12.0), Adv(1, 9, 9.0), Adv(2, 30, 5.0),
                      Adv(3, 4, 7.5)},
                     RegretParams{0.5}, threshold);
        common::Rng owners(seed * 31 + threshold);
        for (model::BillboardId o = 0; o < num_billboards; ++o) {
          const uint64_t a = owners.UniformU64(6);  // 4, 5: stays free
          if (a < 4) s.Assign(o, static_cast<market::AdvertiserId>(a));
        }
        visit(s, "seed " + std::to_string(seed) + " threshold " +
                     std::to_string(threshold) +
                     (index == &plain ? " plain" : " compressed"));
      }
    }
  }
}

/// Every scan of moves 1-2 on `s`: each ordered advertiser pair (i, j)
/// and each replace scan (i, kNoAdvertiser).
std::vector<std::pair<market::AdvertiserId, market::AdvertiserId>> AllScans(
    const Assignment& s) {
  std::vector<std::pair<market::AdvertiserId, market::AdvertiserId>> scans;
  for (market::AdvertiserId i = 0; i < s.num_advertisers(); ++i) {
    for (market::AdvertiserId j = market::kNoAdvertiser;
         j < s.num_advertisers(); ++j) {
      if (j != i) scans.emplace_back(i, j);
    }
  }
  return scans;
}

/// DeltaExchangeAcross or, for a replace scan, DeltaReplace.
double ReferenceDelta(const Assignment& s, market::AdvertiserId j,
                      model::BillboardId om, model::BillboardId on) {
  return j == market::kNoAdvertiser ? s.DeltaReplace(om, on)
                                    : s.DeltaExchangeAcross(om, on);
}

// The exhaustive scans of moves 1-2 score candidates from per-scan tables.
// Every table delta must equal the per-candidate reference bit for bit —
// EXPECT_EQ, not NEAR — on plain lists and on their compressed twin, at
// impression thresholds 1-3, for every ordered advertiser pair and every
// replace scan, with one tables object reused across all of them as BLS
// does.
TEST(MoveScanTablesTest, TableDeltasEqualTheReferenceBitForBit) {
  ForEachScanInstance([](const Assignment& s, const std::string& where) {
    MoveScanTables tables;
    int64_t checked = 0;
    for (const auto& [i, j] : AllScans(s)) {
      tables.Start(s, i, j);
      for (size_t x = 0; x < tables.rows().size(); ++x) {
        tables.LoadRow(x);
        for (size_t y = 0; y < tables.cols().size(); ++y) {
          const model::BillboardId om = tables.rows()[x];
          const model::BillboardId on = tables.cols()[y];
          EXPECT_EQ(tables.Delta(y), ReferenceDelta(s, j, om, on))
              << where << " i " << i << " j " << j << " om " << om
              << " on " << on;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 100) << where;
  });
}

// A scan skips the walk of every row whose RowBound fails the acceptance
// test, so the bound must never exceed a delta of the row. For each row
// the limits are the r = 0 acceptance limit, each column's own delta (the
// delta == limit edge) and one value below them all; whenever some column
// is at or under a limit, the bound must be too, keeping the row. The
// scan tries CoarseRowBound first, which must never exceed RowBound, so
// that it skips no row RowBound would keep. Both must skip rows, or the
// scan saves nothing.
TEST(MoveScanTablesTest, RowBoundKeepsEveryRowWithAnAcceptableColumn) {
  constexpr double kLimitAtRZero = -1e-9;  // Accepts at r = 0
  int64_t rows = 0;
  int64_t skipped = 0;
  int64_t coarse_skipped = 0;
  ForEachScanInstance([&](const Assignment& s, const std::string& where) {
    MoveScanTables tables;
    for (const auto& [i, j] : AllScans(s)) {
      tables.Start(s, i, j);
      for (size_t x = 0; x < tables.rows().size(); ++x) {
        const model::BillboardId om = tables.rows()[x];
        std::vector<double> limits;
        for (model::BillboardId on : tables.cols()) {
          limits.push_back(ReferenceDelta(s, j, om, on));
        }
        if (limits.empty()) continue;
        const double lowest = *std::min_element(limits.begin(), limits.end());
        limits.push_back(kLimitAtRZero);
        limits.push_back(lowest - 1.0);
        const double bound = tables.RowBound(x);
        for (double limit : limits) {
          if (lowest <= limit) {
            EXPECT_LE(bound, limit) << where << " i " << i << " j " << j
                                    << " om " << om << " lowest " << lowest;
          }
        }
        const double coarse = tables.CoarseRowBound(x);
        EXPECT_LE(coarse, bound) << where << " i " << i << " j " << j
                                 << " om " << om;
        ++rows;
        if (bound > kLimitAtRZero) ++skipped;
        if (coarse > kLimitAtRZero) ++coarse_skipped;
      }
    }
  });
  EXPECT_GT(skipped, 0) << "of " << rows << " rows";
  EXPECT_GT(coarse_skipped, 0) << "of " << rows << " rows";
}

// A search that ends before its sweep cap made no move in its last sweep,
// so it stops at a local optimum of Algorithm 5's neighborhood: no
// exchange between two targets, no replace of a target's board by a free
// one, no release and no greedy completion passes the acceptance rule on
// its per-pair reference. Checked on every scan instance for first and
// best improvement, at two improvement ratios, over the whole book and
// over a restricted target set, whose other advertisers keep their boards.
TEST(LocalOptimumTest, NoMovePassesTheAcceptanceRuleWhereTheSearchStops) {
  int64_t runs = 0;
  int64_t optima = 0;
  ForEachScanInstance([&](const Assignment& start, const std::string& where) {
    const std::vector<market::AdvertiserId> all = {0, 1, 2, 3};
    const std::vector<market::AdvertiserId> restricted = {1, 3};
    for (const bool best : {false, true}) {
      for (const double r : {0.0, 0.01}) {
        for (const std::vector<market::AdvertiserId>* targets :
             {&all, &restricted}) {
          Assignment s = start;
          LocalSearchConfig config;
          config.best_improvement = best;
          config.improvement_ratio = r;
          const LocalSearchStats stats =
              targets == &all
                  ? BillboardDrivenLocalSearch(&s, config)
                  : BillboardDrivenLocalSearchOver(&s, *targets, config);
          ++runs;
          const std::string run = where + (best ? " best" : " first") +
                                  " r " + std::to_string(r) +
                                  (targets == &all ? " all" : " restricted");
          for (market::AdvertiserId a = 0; a < s.num_advertisers(); ++a) {
            if (std::find(targets->begin(), targets->end(), a) ==
                targets->end()) {
              EXPECT_EQ(s.BillboardsOf(a), start.BillboardsOf(a)) << run;
            }
          }
          if (stats.sweeps >= config.max_sweeps) continue;
          ++optima;
          auto accepts = [&](double delta) {
            return delta <= -(1e-9 + r * std::abs(s.TotalRegret()));
          };
          for (const market::AdvertiserId i : *targets) {
            for (const model::BillboardId om : s.BillboardsOf(i)) {
              EXPECT_FALSE(accepts(s.DeltaRelease(om)))
                  << run << " release " << om;
              for (const model::BillboardId on : s.FreeBillboards()) {
                EXPECT_FALSE(accepts(s.DeltaReplace(om, on)))
                    << run << " replace " << om << " by " << on;
              }
              for (const market::AdvertiserId j : *targets) {
                if (j == i) continue;
                for (const model::BillboardId on : s.BillboardsOf(j)) {
                  EXPECT_FALSE(accepts(s.DeltaExchangeAcross(om, on)))
                      << run << " exchange " << om << " with " << on;
                }
              }
            }
          }
          Assignment completed = s;
          SynchronousGreedyOver(&completed, *targets);
          EXPECT_FALSE(accepts(completed.TotalRegret() - s.TotalRegret()))
              << run << " completion";
        }
      }
    }
  });
  EXPECT_EQ(optima, runs) << "searches that reached the sweep cap";
}

TEST(BlsMovesTest, ReleaseMoveTrimsPureExcess) {
  // One advertiser already satisfied exactly by o0; o1 adds only excess,
  // so BLS must release it.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {2}}, 3, &d);
  Assignment s(&index, {Adv(0, 2, 10.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);  // influence 3 > demand 2: regret 5
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 5.0);
  LocalSearchConfig config;
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.OwnerOf(1), market::kNoAdvertiser);
}

TEST(BlsMovesTest, ReplaceMoveUpgradesToFreeBillboard) {
  // a0 demands 3 and holds o0 (2 trajectories); free o1 covers exactly 3.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {2, 3, 4}}, 5, &d);
  Assignment s(&index, {Adv(0, 3, 9.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  LocalSearchConfig config;
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.OwnerOf(1), 0);
}

TEST(BlsMovesTest, GreedyCompletionMoveAllocatesFreePool) {
  // Nothing assigned; the sweep's move 4 must invoke SynchronousGreedy
  // and adopt its (better) plan.
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}}, 2, &d);
  Assignment s(&index, {Adv(0, 2, 6.0)}, RegretParams{0.5});
  LocalSearchConfig config;
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
  EXPECT_EQ(s.BillboardsOf(0).size(), 2u);
}

TEST(ImprovementRatioTest, LargeRatioBlocksSmallImprovements) {
  // The zero-regret exchange of Example 3 improves by 3 (100% of the
  // objective); with r far above that the move is rejected.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1, 2, 3}, {0, 1, 2, 4}, {4, 5}}, 6, &d);
  Assignment s(&index, {Adv(0, 5, 5.0), Adv(1, 4, 4.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  LocalSearchConfig strict;
  strict.improvement_ratio = 10.0;  // demands 10x the current total
  BillboardDrivenLocalSearch(&s, strict);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 3.0);  // nothing accepted
}

TEST(MaxSweepsTest, CapsIterations) {
  model::Dataset d;
  auto index = IndexFromIncidence({{0}, {1}, {2}, {3}}, 4, &d);
  Assignment s(&index, {Adv(0, 2, 4.0), Adv(1, 2, 4.0)}, RegretParams{0.5});
  LocalSearchConfig config;
  config.max_sweeps = 1;
  LocalSearchStats stats = BillboardDrivenLocalSearch(&s, config);
  EXPECT_LE(stats.sweeps, 1);
}

TEST(BestImprovementTest, FindsTheSteepestExchange) {
  // Two improving exchanges exist for a0<->a1; best-improvement must take
  // the steeper one in a single move. Setup: a0 (demand 4, payment 8)
  // holds o2={0}; a1 holds o0={1,2,3,4} (4) and o1={1,2} while demanding
  // 1 (payment 2). Exchanging o2<->o0 fixes a0 exactly; o2<->o1 helps
  // less.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{1, 2, 3, 4}, {1, 2}, {0}}, 5, &d);
  auto build = [&]() {
    Assignment s(&index, {Adv(0, 4, 8.0), Adv(1, 1, 2.0)},
                 RegretParams{0.5});
    s.Assign(2, 0);
    s.Assign(0, 1);
    s.Assign(1, 1);
    return s;
  };

  Assignment greedy_first = build();
  Assignment steepest = build();
  LocalSearchConfig first_cfg;
  first_cfg.max_sweeps = 1;
  LocalSearchConfig best_cfg = first_cfg;
  best_cfg.best_improvement = true;
  LocalSearchStats first_stats =
      BillboardDrivenLocalSearch(&greedy_first, first_cfg);
  LocalSearchStats best_stats =
      BillboardDrivenLocalSearch(&steepest, best_cfg);
  // Both improve, and the steepest-descent variant is at least as good
  // after the single allowed sweep while evaluating at least as many
  // deltas.
  EXPECT_GT(first_stats.moves_applied, 0);
  EXPECT_GT(best_stats.moves_applied, 0);
  EXPECT_LE(steepest.TotalRegret(), greedy_first.TotalRegret() + 1e-9);
  EXPECT_GE(best_stats.deltas_evaluated, first_stats.deltas_evaluated);
  EXPECT_EQ(steepest.CheckInvariants(), common::Status::Ok());
}

TEST(BestImprovementTest, StillReachesZeroOnExampleThree) {
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1, 2, 3}, {0, 1, 2, 4}, {4, 5}}, 6, &d);
  Assignment s(&index, {Adv(0, 5, 5.0), Adv(1, 4, 4.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  LocalSearchConfig config;
  config.best_improvement = true;
  BillboardDrivenLocalSearch(&s, config);
  EXPECT_DOUBLE_EQ(s.TotalRegret(), 0.0);
}

TEST(SearchStatsTest, CountersReflectWork) {
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1, 2, 3}, {0, 1, 2, 4}, {4, 5}}, 6, &d);
  Assignment s(&index, {Adv(0, 5, 5.0), Adv(1, 4, 4.0)}, RegretParams{0.5});
  s.Assign(0, 0);
  s.Assign(1, 0);
  s.Assign(2, 1);
  LocalSearchConfig config;
  LocalSearchStats stats = BillboardDrivenLocalSearch(&s, config);
  EXPECT_GE(stats.sweeps, 1);
  EXPECT_GE(stats.moves_applied, 1);
  EXPECT_GE(stats.deltas_evaluated, stats.moves_applied);
}

}  // namespace
}  // namespace mroam::core
