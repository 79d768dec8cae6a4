// Churn-handling suite for ReplanPolicy::kIncremental: the warm-started
// replanner runs a full solve only on a book the market has not solved
// yet (its first non-empty day, and the first day after RestoreBook),
// replans identically on plain and compressed indexes, carries a book
// across ExportBook/RestoreBook, and keeps the market's ticket
// bookkeeping intact under cancellation-heavy churn.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/daily_market.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::CompressedTwin;
using mroam::testing::IndexFromIncidence;

/// Random incidence lists: `boards` billboards each covering 1-5 of
/// `trajectories` trajectories. Deterministic per seed.
std::vector<std::vector<model::TrajectoryId>> RandomIncidence(
    common::Rng* rng, int32_t boards, int32_t trajectories) {
  std::vector<std::vector<model::TrajectoryId>> covered(
      static_cast<size_t>(boards));
  for (int32_t o = 0; o < boards; ++o) {
    const int32_t k = 1 + static_cast<int32_t>(rng->UniformU64(5));
    for (int32_t j = 0; j < k; ++j) {
      covered[static_cast<size_t>(o)].push_back(
          static_cast<model::TrajectoryId>(
              rng->UniformU64(static_cast<uint64_t>(trajectories))));
    }
  }
  return covered;
}

/// Random arrival schedule: `days` days of 0-3 arrivals with demands 1-6
/// and payments 1-10. Deterministic per seed.
std::vector<std::vector<market::Advertiser>> RandomSchedule(
    common::Rng* rng, int days) {
  std::vector<std::vector<market::Advertiser>> schedule(
      static_cast<size_t>(days));
  for (auto& day : schedule) {
    const int arrivals = static_cast<int>(rng->UniformU64(4));
    for (int a = 0; a < arrivals; ++a) {
      day.push_back(Adv(0, 1 + static_cast<int64_t>(rng->UniformU64(6)),
                        1.0 + rng->UniformDouble(0.0, 9.0)));
    }
  }
  return schedule;
}

/// Drives one market through `schedule`, cancelling an early ticket every
/// third day (identically for every index, since tickets are monotone
/// and roster-driven). Returns the per-day results; `final_sets` receives
/// the deployment of the final active book.
std::vector<DayResult> Drive(
    const influence::InfluenceIndex& index, DailyMarketConfig config,
    const std::vector<std::vector<market::Advertiser>>& schedule,
    std::vector<std::vector<model::BillboardId>>* final_sets) {
  DailyMarket market(&index, config);
  std::vector<DayResult> days;
  for (size_t d = 0; d < schedule.size(); ++d) {
    const int32_t day = static_cast<int32_t>(d) + 1;
    if (day >= 3 && day % 3 == 0) {
      market.Cancel(day - 2);  // a miss is a harmless no-op
    }
    days.push_back(market.AdvanceDay(schedule[d]));
  }
  *final_sets = market.ActiveSets();
  return days;
}

DailyMarketConfig BaseConfig(uint16_t impression_threshold) {
  DailyMarketConfig config;
  config.policy = ReplanPolicy::kIncremental;
  config.contract_duration_days = 3;
  config.solver.method = Method::kGGlobal;
  config.solver.impression_threshold = impression_threshold;
  return config;
}

TEST(IncrementalReplanTest, NamesCoverNewPolicyAndModes) {
  EXPECT_STREQ(ReplanPolicyName(ReplanPolicy::kIncremental), "incremental");
  EXPECT_STREQ(ReplanModeName(ReplanMode::kNone), "none");
  EXPECT_STREQ(ReplanModeName(ReplanMode::kFull), "full");
  EXPECT_STREQ(ReplanModeName(ReplanMode::kIncremental), "incremental");
  EXPECT_STREQ(ReplanModeName(ReplanMode::kGreedy), "greedy");
}

// On randomized churn schedules the market solves in full only on its
// first non-empty day and replans every later day incrementally. The
// same schedule driven over the index's compressed twin (the mmap serving
// shape, whose blast radius walks the blobs) replans identically, day by
// day.
TEST(IncrementalReplanTest, OnlyTheFirstBookIsSolvedInFull) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
      common::Rng gen_rng(seed);
      model::Dataset dataset;
      auto index = IndexFromIncidence(RandomIncidence(&gen_rng, 20, 60), 60,
                                      &dataset);
      const influence::InfluenceIndex twin = CompressedTwin(index);
      common::Rng schedule_rng(seed + 100);
      auto schedule = RandomSchedule(&schedule_rng, 8);

      const DailyMarketConfig config = BaseConfig(threshold);
      std::vector<std::vector<model::BillboardId>> sets;
      auto incremental = Drive(index, config, schedule, &sets);
      std::vector<std::vector<model::BillboardId>> twin_sets;
      auto twin_days = Drive(twin, config, schedule, &twin_sets);

      SCOPED_TRACE("seed " + std::to_string(seed) + " threshold " +
                   std::to_string(threshold));
      int incremental_days = 0;
      bool solved = false;
      for (size_t d = 0; d < incremental.size(); ++d) {
        SCOPED_TRACE("day " + std::to_string(d + 1));
        const DayResult& day = incremental[d];
        const bool first = !solved && day.active_contracts > 0;
        solved = solved || first;
        EXPECT_EQ(day.full_solve_fallback, first);
        if (day.active_contracts > 0) {
          EXPECT_EQ(day.mode,
                    first ? ReplanMode::kFull : ReplanMode::kIncremental);
        }
        if (day.mode == ReplanMode::kIncremental) ++incremental_days;
      }
      EXPECT_GE(incremental_days, 1);

      ASSERT_EQ(twin_days.size(), incremental.size());
      for (size_t d = 0; d < incremental.size(); ++d) {
        SCOPED_TRACE("compressed twin, day " + std::to_string(d + 1));
        const DayResult& want = incremental[d];
        const DayResult& got = twin_days[d];
        EXPECT_EQ(got.breakdown.total, want.breakdown.total);
        EXPECT_EQ(got.breakdown.excessive, want.breakdown.excessive);
        EXPECT_EQ(got.breakdown.unsatisfied_penalty,
                  want.breakdown.unsatisfied_penalty);
        EXPECT_EQ(got.breakdown.satisfied_count,
                  want.breakdown.satisfied_count);
        EXPECT_EQ(got.breakdown.advertiser_count,
                  want.breakdown.advertiser_count);
        EXPECT_EQ(got.admitted_tickets, want.admitted_tickets);
        EXPECT_EQ(got.boards_touched, want.boards_touched);
        EXPECT_EQ(got.reoptimized_advertisers, want.reoptimized_advertisers);
        EXPECT_EQ(got.full_solve_fallback, want.full_solve_fallback);
      }
      EXPECT_EQ(twin_sets, sets);
    }
  }
}

class IncrementalReplanFixtureTest : public ::testing::Test {
 protected:
  // Six disjoint unit-influence billboards.
  IncrementalReplanFixtureTest()
      : index_(IndexFromIncidence({{0}, {1}, {2}, {3}, {4}, {5}}, 6,
                                  &dataset_)) {}

  DailyMarketConfig Config() {
    DailyMarketConfig config;
    config.policy = ReplanPolicy::kIncremental;
    config.contract_duration_days = 7;
    config.solver.method = Method::kGGlobal;
    return config;
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

// The first non-empty day has no plan of the market's own to warm-start
// from, so it runs a full solve, even after an empty first day; the next
// day replans incrementally.
TEST_F(IncrementalReplanFixtureTest, FirstNonEmptyDaySolvesInFull) {
  DailyMarket market(&index_, Config());
  DayResult empty = market.AdvanceDay({});
  EXPECT_EQ(empty.mode, ReplanMode::kNone);
  EXPECT_FALSE(empty.full_solve_fallback);
  DayResult day1 = market.AdvanceDay({Adv(0, 2, 4.0)});
  EXPECT_TRUE(day1.full_solve_fallback);
  EXPECT_EQ(day1.mode, ReplanMode::kFull);
  DayResult day2 = market.AdvanceDay({Adv(0, 1, 2.0)});
  EXPECT_FALSE(day2.full_solve_fallback);
  EXPECT_EQ(day2.mode, ReplanMode::kIncremental);
  EXPECT_EQ(day2.breakdown.satisfied_count, 2);
}

// An arrival the warm start cannot serve (the incumbent holds all six
// boards) leaves regret above zero, and the day still replans
// incrementally: only an unsolved book runs a full solve.
TEST_F(IncrementalReplanFixtureTest, UnservableArrivalStaysIncremental) {
  DailyMarket market(&index_, Config());
  DayResult day1 = market.AdvanceDay({Adv(0, 6, 12.0)});  // takes all six
  EXPECT_DOUBLE_EQ(day1.breakdown.total, 0.0);
  DayResult day2 = market.AdvanceDay({Adv(0, 2, 4.0)});
  EXPECT_FALSE(day2.full_solve_fallback);
  EXPECT_EQ(day2.mode, ReplanMode::kIncremental);
  EXPECT_GT(day2.breakdown.total, 0.0);
}

// A restart: the book of a market that has churned for a few days goes
// through ExportBook into a fresh market's RestoreBook. Day, tickets,
// deployment and the ticket sequence carry over; the restored market has
// not solved that book itself, so its first day is a full solve and the
// day after replans incrementally.
TEST_F(IncrementalReplanFixtureTest, RestoredBookSolvesInFullOnce) {
  DailyMarket original(&index_, Config());
  original.AdvanceDay({Adv(0, 2, 4.0), Adv(0, 1, 2.0)});
  ASSERT_TRUE(original.Cancel(1));
  original.AdvanceDay({Adv(0, 2, 4.0)});
  original.AdvanceDay({Adv(0, 1, 3.0)});
  const market::ContractBook book = original.ExportBook();

  DailyMarket restored(&index_, Config());
  restored.RestoreBook(book);
  EXPECT_EQ(restored.today(), original.today());
  EXPECT_EQ(restored.ActiveTickets(), original.ActiveTickets());
  EXPECT_EQ(restored.ActiveTickets(), (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(restored.ActiveSets(), original.ActiveSets());

  DayResult first = restored.AdvanceDay({Adv(0, 1, 2.0)});
  EXPECT_EQ(first.admitted_tickets,
            original.AdvanceDay({Adv(0, 1, 2.0)}).admitted_tickets);
  EXPECT_EQ(first.admitted_tickets, (std::vector<int64_t>{5}));
  EXPECT_EQ(first.day, 4);
  EXPECT_EQ(first.mode, ReplanMode::kFull);
  EXPECT_TRUE(first.full_solve_fallback);

  DayResult second = restored.AdvanceDay({Adv(0, 1, 2.0)});
  EXPECT_EQ(second.mode, ReplanMode::kIncremental);
  EXPECT_FALSE(second.full_solve_fallback);
}

// A quiet day (no arrivals, expiries, or cancellations) with a satisfied
// book must not move a single billboard under the incremental policy.
TEST_F(IncrementalReplanFixtureTest, QuietDayTouchesNoBoards) {
  DailyMarket market(&index_, Config());
  market.AdvanceDay({Adv(0, 2, 4.0), Adv(0, 3, 6.0)});
  std::vector<std::vector<model::BillboardId>> before = market.ActiveSets();
  for (auto& set : before) std::sort(set.begin(), set.end());

  DayResult quiet = market.AdvanceDay({});
  EXPECT_EQ(quiet.mode, ReplanMode::kIncremental);
  EXPECT_EQ(quiet.churn_boards, 0);
  EXPECT_EQ(quiet.boards_touched, 0);
  EXPECT_EQ(quiet.reoptimized_advertisers, 0);

  std::vector<std::vector<model::BillboardId>> after = market.ActiveSets();
  for (auto& set : after) std::sort(set.begin(), set.end());
  EXPECT_EQ(after, before);
}

// Cancellation churn: the withdrawn contract's inventory is inside the
// next day's blast radius, so a same-sized newcomer is served from it
// without disturbing the other incumbent.
TEST_F(IncrementalReplanFixtureTest, CancelChurnServesNewcomer) {
  DailyMarket market(&index_, Config());
  DayResult day1 = market.AdvanceDay({Adv(0, 3, 6.0), Adv(0, 3, 9.0)});
  EXPECT_EQ(day1.breakdown.satisfied_count, 2);
  const int64_t first_ticket = day1.admitted_tickets[0];
  std::vector<model::BillboardId> keeper = market.ActiveSets()[1];
  std::sort(keeper.begin(), keeper.end());

  ASSERT_TRUE(market.Cancel(first_ticket));
  DayResult day2 = market.AdvanceDay({Adv(0, 3, 6.0)});
  EXPECT_EQ(day2.cancelled, 1);
  EXPECT_EQ(day2.churn_boards, 3);
  EXPECT_EQ(day2.mode, ReplanMode::kIncremental);
  EXPECT_EQ(day2.breakdown.satisfied_count, 2);
  EXPECT_DOUBLE_EQ(day2.breakdown.total, 0.0);

  std::vector<model::BillboardId> kept = market.ActiveSets()[0];
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, keeper);  // survivor's deployment untouched
}

// Cancel-heavy bookkeeping: after a middle contract is withdrawn, every
// later ticket still resolves (the ticket->index map is re-synced), the
// dense caches stay aligned, and double-cancel reports false.
TEST_F(IncrementalReplanFixtureTest, CancelKeepsTicketBookkeepingInSync) {
  DailyMarket market(&index_, Config());
  DayResult day1 = market.AdvanceDay(
      {Adv(0, 1, 2.0), Adv(0, 1, 3.0), Adv(0, 1, 4.0), Adv(0, 1, 5.0)});
  ASSERT_EQ(day1.admitted_tickets.size(), 4u);

  ASSERT_TRUE(market.Cancel(2));
  EXPECT_FALSE(market.Cancel(2));
  EXPECT_EQ(market.ActiveTickets(), (std::vector<int64_t>{1, 3, 4}));
  // Dense ids and terms stay aligned with the shifted roster.
  for (size_t i = 0; i < market.ActiveTerms().size(); ++i) {
    EXPECT_EQ(market.ActiveTerms()[i].id,
              static_cast<market::AdvertiserId>(i));
  }
  // Tickets behind the erased slot still cancel in O(1).
  ASSERT_TRUE(market.Cancel(4));
  ASSERT_TRUE(market.Cancel(1));
  EXPECT_EQ(market.ActiveTickets(), (std::vector<int64_t>{3}));

  DayResult day2 = market.AdvanceDay({});
  EXPECT_EQ(day2.cancelled, 3);
  EXPECT_EQ(day2.active_contracts, 1);
  EXPECT_EQ(day2.breakdown.satisfied_count, 1);
}

// A long cancellation-heavy run: admit/cancel waves with expiries mixed
// in; the roster and regret must stay consistent every day (satisfied
// count equals active contracts on this disjoint fixture whenever supply
// suffices).
TEST_F(IncrementalReplanFixtureTest, CancelHeavyChurnStress) {
  DailyMarketConfig config = Config();
  config.contract_duration_days = 2;
  DailyMarket market(&index_, config);
  common::Rng rng(9);
  int64_t last_ticket = 0;
  for (int day = 1; day <= 15; ++day) {
    // Cancel up to two random live tickets.
    for (int c = 0; c < 2; ++c) {
      if (last_ticket > 0) {
        market.Cancel(static_cast<int64_t>(
            rng.UniformU64(static_cast<uint64_t>(last_ticket)) + 1));
      }
    }
    std::vector<market::Advertiser> arrivals;
    const int n = static_cast<int>(rng.UniformU64(3));
    for (int a = 0; a < n; ++a) {
      arrivals.push_back(Adv(0, 1 + static_cast<int64_t>(rng.UniformU64(2)),
                             2.0 + rng.UniformDouble()));
    }
    DayResult result = market.AdvanceDay(arrivals);
    if (!result.admitted_tickets.empty()) {
      last_ticket = result.admitted_tickets.back();
    }
    // The dense caches must stay mutually aligned after every churn mix.
    ASSERT_EQ(market.ActiveTerms().size(), market.ActiveSets().size());
    ASSERT_EQ(market.ActiveTerms().size(), market.ActiveTickets().size());
    ASSERT_EQ(static_cast<int32_t>(market.ActiveTerms().size()),
              result.active_contracts);
  }
}

}  // namespace
}  // namespace mroam::core
