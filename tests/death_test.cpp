// Death tests: misuse of the solver-state API must crash loudly (the
// library treats broken solver invariants as unrecoverable bugs).
#include <gtest/gtest.h>

#include "core/assignment.h"
#include "core/daily_market.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

class AssignmentDeathTest : public ::testing::Test {
 protected:
  AssignmentDeathTest()
      : index_(IndexFromIncidence({{0, 1}, {2}, {}}, 3, &dataset_)) {}

  Assignment Make() {
    return Assignment(&index_, {Adv(0, 2, 4.0), Adv(1, 1, 2.0)},
                      RegretParams{0.5});
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(AssignmentDeathTest, DoubleAssignCrashes) {
  Assignment s = Make();
  s.Assign(0, 0);
  EXPECT_DEATH(s.Assign(0, 1), "Check failed");
}

TEST_F(AssignmentDeathTest, ReleaseOfFreeBillboardCrashes) {
  Assignment s = Make();
  EXPECT_DEATH(s.Release(0), "Check failed");
}

TEST_F(AssignmentDeathTest, AssignToUnknownAdvertiserCrashes) {
  Assignment s = Make();
  EXPECT_DEATH(s.Assign(0, 7), "Check failed");
}

TEST_F(AssignmentDeathTest, ExchangeWithinOneAdvertiserCrashes) {
  Assignment s = Make();
  s.Assign(0, 0);
  s.Assign(1, 0);
  EXPECT_DEATH(s.ExchangeAcross(0, 1), "Check failed");
}

TEST_F(AssignmentDeathTest, ReplaceWithAssignedBillboardCrashes) {
  Assignment s = Make();
  s.Assign(0, 0);
  s.Assign(1, 1);
  EXPECT_DEATH(s.Replace(0, 1), "Check failed");
}

TEST_F(AssignmentDeathTest, InvalidGammaCrashes) {
  EXPECT_DEATH(Assignment(&index_, {Adv(0, 2, 4.0)}, RegretParams{1.5}),
               "Check failed");
}

TEST_F(AssignmentDeathTest, NonPositiveDemandCrashes) {
  EXPECT_DEATH(Assignment(&index_, {Adv(0, 0, 4.0)}, RegretParams{0.5}),
               "Check failed");
}

// RestoreBook resumes a book only in a fresh market: restoring into one
// that has advanced would interleave two books' days and tickets.
TEST(DailyMarketDeathTest, RestoreBookIntoAdvancedMarketCrashes) {
  model::Dataset dataset;
  const influence::InfluenceIndex index =
      IndexFromIncidence({{0}, {1}}, 2, &dataset);
  DailyMarket advanced(&index, DailyMarketConfig{});
  advanced.AdvanceDay({Adv(0, 1, 2.0)});
  const market::ContractBook book = advanced.ExportBook();
  EXPECT_DEATH(advanced.RestoreBook(book),
               "RestoreBook requires a fresh market");
}

// FromIncidence is a public ingestion point, so its precondition checks
// stay on in release builds and must name the offending incidence list.
TEST(FromIncidenceDeathTest, UnsortedListCrashesNamingBillboard) {
  EXPECT_DEATH(
      influence::InfluenceIndex::FromIncidence({{0, 2}, {1, 0}}, 3, 1.0),
      "incidence list of billboard 1 is not sorted");
}

TEST(FromIncidenceDeathTest, DuplicateIdsCrashNamingBillboard) {
  EXPECT_DEATH(
      influence::InfluenceIndex::FromIncidence({{}, {}, {1, 1}}, 3, 1.0),
      "incidence list of billboard 2 contains duplicate");
}

TEST(FromIncidenceDeathTest, OutOfRangeIdsCrashNamingBillboard) {
  EXPECT_DEATH(influence::InfluenceIndex::FromIncidence({{0, 3}}, 3, 1.0),
               "incidence list of billboard 0 references trajectory ids "
               "outside");
}

TEST(FromIncidenceDeathTest, NegativeTrajectoryCountCrashes) {
  EXPECT_DEATH(influence::InfluenceIndex::FromIncidence({}, -1, 1.0),
               "num_trajectories");
}

// A counter spends one byte on each trajectory, so both factories that
// build from scratch refuse a trajectory more boards cover than that
// holds, naming it; 255 boards still fit.
TEST(FromIncidenceDeathTest, TrajectoryOverOneByteOfBoardsCrashesNamingIt) {
  std::vector<std::vector<model::TrajectoryId>> covered(
      influence::kMaxCoveringBoards + 1, {2});
  EXPECT_DEATH(influence::InfluenceIndex::FromIncidence(covered, 4, 1.0),
               "trajectory 2 is covered by 256 boards");
  covered.pop_back();
  EXPECT_EQ(
      influence::InfluenceIndex::FromIncidence(covered, 4, 1.0).num_covered(),
      1);
}

TEST(BuildDeathTest, TrajectoryOverOneByteOfBoardsCrashesNamingIt) {
  std::vector<std::vector<model::TrajectoryId>> covered(
      influence::kMaxCoveringBoards + 1, {1});
  const model::Dataset dataset = testing::DatasetFromIncidence(covered, 3);
  EXPECT_DEATH(
      influence::InfluenceIndex::Build(dataset, testing::kFixtureLambda),
      "trajectory 1 is covered by 256 boards");
}

}  // namespace
}  // namespace mroam::core
