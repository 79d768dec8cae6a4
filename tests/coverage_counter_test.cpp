#include "influence/coverage_counter.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace mroam::influence {
namespace {

using mroam::testing::IndexFromIncidence;

TEST(CoverageCounterTest, AddRemoveMaintainsInfluence) {
  model::Dataset keep;
  InfluenceIndex index = IndexFromIncidence(
      {{0, 1, 2}, {2, 3}, {4}, {}}, 5, &keep);
  CoverageCounter counter(&index);
  EXPECT_EQ(counter.influence(), 0);

  counter.Add(0);
  EXPECT_EQ(counter.influence(), 3);
  counter.Add(1);
  EXPECT_EQ(counter.influence(), 4);  // trajectory 2 shared
  counter.Add(3);
  EXPECT_EQ(counter.influence(), 4);  // empty list
  counter.Remove(0);
  EXPECT_EQ(counter.influence(), 2);  // {2, 3} remain
  counter.Remove(1);
  counter.Remove(3);
  EXPECT_EQ(counter.influence(), 0);
}

TEST(CoverageCounterTest, CountOfTracksMultiplicity) {
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence({{0, 1}, {1, 2}, {1}}, 3, &keep);
  CoverageCounter counter(&index);
  counter.Add(0);
  counter.Add(1);
  counter.Add(2);
  EXPECT_EQ(counter.CountOf(0), 1);
  EXPECT_EQ(counter.CountOf(1), 3);
  EXPECT_EQ(counter.CountOf(2), 1);
}

TEST(CoverageCounterTest, MarginalGainCountsOnlyUncovered) {
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence({{0, 1, 2}, {2, 3, 4}}, 5, &keep);
  CoverageCounter counter(&index);
  EXPECT_EQ(counter.MarginalGain(1), 3);
  counter.Add(0);
  EXPECT_EQ(counter.MarginalGain(1), 2);  // trajectory 2 already covered
}

TEST(CoverageCounterTest, MarginalLossCountsSoleCoverage) {
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence({{0, 1, 2}, {2, 3}}, 4, &keep);
  CoverageCounter counter(&index);
  counter.Add(0);
  counter.Add(1);
  EXPECT_EQ(counter.MarginalLoss(0), 2);  // 0 and 1 only covered by o0
  EXPECT_EQ(counter.MarginalLoss(1), 1);  // 3 only covered by o1
}

TEST(CoverageCounterTest, ClearResets) {
  model::Dataset keep;
  InfluenceIndex index = IndexFromIncidence({{0, 1}}, 2, &keep);
  CoverageCounter counter(&index);
  counter.Add(0);
  counter.Clear();
  EXPECT_EQ(counter.influence(), 0);
  EXPECT_EQ(counter.CountOf(0), 0);
  counter.Add(0);  // usable again
  EXPECT_EQ(counter.influence(), 2);
}

TEST(CoverageCounterTest, MarginalGainAfterRemoveHandCases) {
  model::Dataset keep;
  // o0={0,1}, o1={1,2}, o2={2,3}.
  InfluenceIndex index =
      IndexFromIncidence({{0, 1}, {1, 2}, {2, 3}}, 4, &keep);
  CoverageCounter counter(&index);
  counter.Add(0);
  counter.Add(1);  // covered: {0,1,2}; counts: 1,2,1,0
  // Remove o1, add o2: t2 was covered only by o1 -> gain, t3 new -> gain.
  EXPECT_EQ(counter.MarginalGainAfterRemove(/*add=*/2, /*rem=*/1), 2);
  // Remove o0, add o2: t2 still covered by o1 -> no, t3 new -> 1.
  EXPECT_EQ(counter.MarginalGainAfterRemove(/*add=*/2, /*rem=*/0), 1);
}

TEST(ImpressionThresholdTest, ThresholdTwoRequiresTwoMeetings) {
  model::Dataset keep;
  // o0={0,1}, o1={1,2}, o2={1,2}.
  InfluenceIndex index =
      IndexFromIncidence({{0, 1}, {1, 2}, {1, 2}}, 3, &keep);
  CoverageCounter counter(&index, /*impression_threshold=*/2);
  EXPECT_EQ(counter.impression_threshold(), 2);
  counter.Add(0);
  EXPECT_EQ(counter.influence(), 0);  // one meeting each: not influenced
  counter.Add(1);
  EXPECT_EQ(counter.influence(), 1);  // t1 met o0 and o1
  counter.Add(2);
  EXPECT_EQ(counter.influence(), 2);  // t2 met o1 and o2
  counter.Remove(1);
  EXPECT_EQ(counter.influence(), 1);  // t2 falls back below the threshold
}

TEST(ImpressionThresholdTest, MarginalsAtThresholdTwo) {
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence({{0, 1}, {1, 2}, {1, 2}}, 3, &keep);
  CoverageCounter counter(&index, /*impression_threshold=*/2);
  counter.Add(0);
  // Adding o1 takes t1 from 1 to 2 meetings: gain 1 (t2 only reaches 1).
  EXPECT_EQ(counter.MarginalGain(1), 1);
  counter.Add(1);
  // Removing o0 drops t1 from 2 to 1: loss 1.
  EXPECT_EQ(counter.MarginalLoss(0), 1);
  // Exchange o0 -> o2 (o2 covers {1,2}): after removing o0 the counts are
  // t1=1, t2=1; adding o2 lifts both to the threshold.
  EXPECT_EQ(counter.MarginalGainAfterRemove(/*add=*/2, /*rem=*/0), 2);
}

// Property sweep: MarginalGainAfterRemove must equal the influence change
// computed by actually applying remove+add, over random incidence
// structures, random set states, and impression thresholds 1-3.
class CoverageCounterPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(CoverageCounterPropertyTest, GainAfterRemoveMatchesMutation) {
  common::Rng rng(std::get<0>(GetParam()));
  const uint16_t threshold = static_cast<uint16_t>(std::get<1>(GetParam()));
  const int32_t num_billboards = 12;
  const int32_t num_trajectories = 30;
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (int32_t t = 0; t < num_trajectories; ++t) {
      if (rng.Bernoulli(0.25)) list.push_back(t);
    }
  }
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence(covered, num_trajectories, &keep);

  // Random member set.
  std::vector<model::BillboardId> members;
  CoverageCounter counter(&index, threshold);
  for (int32_t o = 0; o < num_billboards; ++o) {
    if (rng.Bernoulli(0.5)) {
      counter.Add(o);
      members.push_back(o);
    }
  }
  if (members.empty()) return;

  for (int trial = 0; trial < 20; ++trial) {
    model::BillboardId rem = members[rng.UniformU64(members.size())];
    model::BillboardId add;
    do {
      add = static_cast<model::BillboardId>(rng.UniformU64(num_billboards));
    } while (std::find(members.begin(), members.end(), add) != members.end());

    int64_t predicted_gain_after = counter.MarginalGainAfterRemove(add, rem);
    int64_t predicted_gain = counter.MarginalGain(add);
    int64_t predicted_loss = counter.MarginalLoss(rem);

    // Ground truths by mutation.
    int64_t initial = counter.influence();
    counter.Add(add);
    EXPECT_EQ(counter.influence() - initial, predicted_gain);
    counter.Remove(add);

    counter.Remove(rem);
    EXPECT_EQ(initial - counter.influence(), predicted_loss);
    int64_t without_rem = counter.influence();
    counter.Add(add);
    EXPECT_EQ(counter.influence() - without_rem, predicted_gain_after)
        << "trial " << trial;
    // Restore.
    counter.Remove(add);
    counter.Add(rem);
    EXPECT_EQ(counter.influence(), initial);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, CoverageCounterPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 2, 3)));

/// I(S) recomputed from nothing but the incidence lists: per-trajectory
/// meet counts, then count those at/above the threshold. Shares no code
/// with CoverageCounter's incremental machinery.
int64_t BruteForceInfluence(const InfluenceIndex& index,
                            const std::vector<model::BillboardId>& set,
                            uint16_t threshold) {
  std::vector<int> counts(index.num_trajectories(), 0);
  for (model::BillboardId o : set) {
    for (model::TrajectoryId t : index.CoveredBy(o)) ++counts[t];
  }
  int64_t influence = 0;
  for (int c : counts) {
    if (c >= threshold) ++influence;
  }
  return influence;
}

// MarginalGainAfterRemove relies on sorted incidence lists for its merge
// pointer; this pins its output to a from-scratch recompute of
// I(S \ {rem} ∪ {add}) - I(S \ {rem}) on randomized sets so any silent
// ordering regression (or merge bug) shows up as a wrong gain. The
// ForEachRemoveShift kernel must reach the same gains as
// MarginalGain(add) plus its summed shifts — alone, and with a partner
// counter holding the `outside` boards, whose own shifts must give the
// partner's gain of rem after it drops `add`.
TEST(CoverageCounterBruteForceTest, GainAfterRemoveMatchesRecompute) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
      common::Rng rng(seed);
      const int32_t num_billboards = 10;
      const int32_t num_trajectories = 25;
      std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
      for (auto& list : covered) {
        for (int32_t t = 0; t < num_trajectories; ++t) {
          if (rng.Bernoulli(0.3)) list.push_back(t);
        }
      }
      model::Dataset keep;
      InfluenceIndex index =
          IndexFromIncidence(covered, num_trajectories, &keep);

      std::vector<model::BillboardId> members;
      std::vector<model::BillboardId> outside;
      CoverageCounter counter(&index, threshold);
      for (int32_t o = 0; o < num_billboards; ++o) {
        if (rng.Bernoulli(0.5)) {
          counter.Add(o);
          members.push_back(o);
        } else {
          outside.push_back(o);
        }
      }
      if (members.empty() || outside.empty()) continue;
      CoverageCounter partner(&index, threshold);
      for (model::BillboardId o : outside) partner.Add(o);

      for (model::BillboardId rem : members) {
        std::vector<model::BillboardId> without_rem;
        for (model::BillboardId o : members) {
          if (o != rem) without_rem.push_back(o);
        }
        const int64_t base =
            BruteForceInfluence(index, without_rem, threshold);
        std::vector<int64_t> shift(num_billboards, 0);
        counter.ForEachRemoveShift(
            rem, nullptr, [&](model::BillboardId o, int s, int partner_s) {
              shift[o] += s;
              EXPECT_EQ(partner_s, 0);
            });
        std::vector<int64_t> own(num_billboards, 0);
        std::vector<int64_t> mirrored(num_billboards, 0);
        counter.ForEachRemoveShift(
            rem, &partner, [&](model::BillboardId o, int s, int partner_s) {
              own[o] += s;
              mirrored[o] += partner_s;
            });
        for (model::BillboardId add : outside) {
          std::vector<model::BillboardId> swapped = without_rem;
          swapped.push_back(add);
          const int64_t expected =
              BruteForceInfluence(index, swapped, threshold) - base;
          EXPECT_EQ(counter.MarginalGainAfterRemove(add, rem), expected)
              << "seed " << seed << " threshold " << threshold << " rem "
              << rem << " add " << add;
          EXPECT_EQ(counter.MarginalGain(add) + shift[add], expected)
              << "kernel: seed " << seed << " threshold " << threshold
              << " rem " << rem << " add " << add;
          EXPECT_EQ(counter.MarginalGain(add) + own[add], expected)
              << "kernel with partner: seed " << seed << " threshold "
              << threshold << " rem " << rem << " add " << add;

          // The partner's side of the exchange: it drops `add`, takes rem.
          std::vector<model::BillboardId> partner_without;
          for (model::BillboardId o : outside) {
            if (o != add) partner_without.push_back(o);
          }
          std::vector<model::BillboardId> partner_swapped = partner_without;
          partner_swapped.push_back(rem);
          const int64_t partner_expected =
              BruteForceInfluence(index, partner_swapped, threshold) -
              BruteForceInfluence(index, partner_without, threshold);
          EXPECT_EQ(partner.MarginalGain(rem) + mirrored[add],
                    partner_expected)
              << "partner: seed " << seed << " threshold " << threshold
              << " rem " << rem << " add " << add;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mroam::influence
