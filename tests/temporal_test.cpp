#include "temporal/time_slots.h"

#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"

namespace mroam::temporal {
namespace {

using mroam::testing::Adv;

TEST(TimeWindowTest, OverlapCases) {
  TimeWindow window{3600.0, 7200.0};  // 01:00-02:00
  EXPECT_TRUE(window.Overlaps(3600.0, 60.0));    // starts inside
  EXPECT_TRUE(window.Overlaps(0.0, 3600.0));     // ends at window start
  EXPECT_TRUE(window.Overlaps(7000.0, 1000.0));  // straddles the end
  EXPECT_TRUE(window.Overlaps(0.0, 90000.0));    // spans the whole window
  EXPECT_FALSE(window.Overlaps(7200.0, 60.0));   // starts at window end
  EXPECT_FALSE(window.Overlaps(0.0, 1800.0));    // entirely before
}

/// Two billboards far apart; three audiences at billboard 0 with start
/// times in different halves of the day; one audience at billboard 1.
model::Dataset TimedDataset() {
  model::Dataset d;
  d.name = "temporal-fixture";
  for (int i = 0; i < 2; ++i) {
    model::Billboard b;
    b.id = i;
    b.location = {10000.0 * i, 0.0};
    d.billboards.push_back(b);
  }
  auto add_trajectory = [&](geo::Point where, double start, double dur) {
    model::Trajectory t;
    t.id = static_cast<model::TrajectoryId>(d.trajectories.size());
    t.points = {where};
    t.start_time_seconds = start;
    t.travel_time_seconds = dur;
    d.trajectories.push_back(std::move(t));
  };
  add_trajectory({0, 0}, 8 * 3600.0, 600.0);    // morning at billboard 0
  add_trajectory({0, 0}, 9 * 3600.0, 600.0);    // morning at billboard 0
  add_trajectory({0, 0}, 20 * 3600.0, 600.0);   // evening at billboard 0
  add_trajectory({10000, 0}, 13 * 3600.0, 600.0);  // afternoon at board 1
  return d;
}

TEST(BuildTemporalMarketTest, OneSlotReproducesTheStaticModel) {
  model::Dataset d = TimedDataset();
  TemporalConfig config;
  config.slots_per_day = 1;
  config.lambda = 1.0;
  TemporalMarket market = BuildTemporalMarket(d, config);
  auto static_index = influence::InfluenceIndex::Build(d, 1.0);
  ASSERT_EQ(market.index.num_billboards(), static_index.num_billboards());
  for (int32_t o = 0; o < static_index.num_billboards(); ++o) {
    EXPECT_EQ(testing::DatasetIdsCoveredBy(market.index, o),
              testing::DatasetIdsCoveredBy(static_index, o));
  }
  EXPECT_EQ(market.slots[0].window.end_seconds, 86400.0);
}

TEST(BuildTemporalMarketTest, SlotsFilterByTime) {
  model::Dataset d = TimedDataset();
  TemporalConfig config;
  config.slots_per_day = 2;  // 00:00-12:00 and 12:00-24:00
  config.lambda = 1.0;
  TemporalMarket market = BuildTemporalMarket(d, config);
  ASSERT_EQ(market.index.num_billboards(), 4);
  ASSERT_EQ(market.slots.size(), 4u);
  // Billboard 0, morning slot: trajectories 0 and 1.
  EXPECT_EQ(testing::DatasetIdsCoveredBy(market.index, 0),
            (std::vector<model::TrajectoryId>{0, 1}));
  // Billboard 0, evening slot: trajectory 2.
  EXPECT_EQ(testing::DatasetIdsCoveredBy(market.index, 1),
            (std::vector<model::TrajectoryId>{2}));
  // Billboard 1: afternoon audience is in the second slot only.
  EXPECT_TRUE(market.index.CoveredBy(2).empty());
  EXPECT_EQ(testing::DatasetIdsCoveredBy(market.index, 3),
            (std::vector<model::TrajectoryId>{3}));
  // Slot metadata lines up.
  EXPECT_EQ(market.slots[1].base_billboard, 0);
  EXPECT_EQ(market.slots[1].slot_index, 1);
  EXPECT_DOUBLE_EQ(market.slots[1].window.begin_seconds, 43200.0);
}

TEST(BuildTemporalMarketTest, SupplyIsPartitionedNotDuplicated) {
  // With non-overlapping windows, each (billboard, trajectory) pair lands
  // in at least one slot; a trajectory spanning a boundary may appear in
  // two. Supply must be >= the static supply.
  model::Dataset d = TimedDataset();
  auto static_index = influence::InfluenceIndex::Build(d, 1.0);
  for (int32_t k : {2, 4, 8}) {
    TemporalConfig config;
    config.slots_per_day = k;
    config.lambda = 1.0;
    TemporalMarket market = BuildTemporalMarket(d, config);
    EXPECT_GE(market.index.TotalSupply(), static_index.TotalSupply());
    EXPECT_EQ(market.index.num_billboards(), 2 * k);
  }
}

TEST(BuildTemporalMarketTest, SlotLabelIsReadable) {
  model::Dataset d = TimedDataset();
  TemporalConfig config;
  config.slots_per_day = 4;
  config.lambda = 1.0;
  TemporalMarket market = BuildTemporalMarket(d, config);
  EXPECT_EQ(market.SlotLabel(1), "billboard 0 @ 06:00-12:00");
  EXPECT_EQ(market.SlotLabel(7), "billboard 1 @ 18:00-24:00");
}

TEST(BuildTemporalMarketTest, SolverRunsOnSlotMarket) {
  // Two advertisers each demanding the audience of one half of the day at
  // billboard 0. With slots they can share the same physical billboard.
  model::Dataset d = TimedDataset();
  TemporalConfig config;
  config.slots_per_day = 2;
  config.lambda = 1.0;
  TemporalMarket market = BuildTemporalMarket(d, config);

  std::vector<market::Advertiser> ads = {Adv(0, 2, 4.0), Adv(1, 1, 2.0)};
  core::SolverConfig solver;
  solver.method = core::Method::kBls;
  core::SolveResult result = core::Solve(market.index, ads, solver);
  EXPECT_EQ(result.breakdown.satisfied_count, 2);
  EXPECT_DOUBLE_EQ(result.breakdown.total, 0.0);
  // The two advertisers hold different slots of the same billboard.
  ASSERT_EQ(result.sets[0].size(), 1u);
  EXPECT_EQ(market.slots[result.sets[0][0]].base_billboard, 0);
}

}  // namespace
}  // namespace mroam::temporal
