#include "influence/coverage_counter.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assignment.h"
#include "test_util.h"

namespace mroam::influence {
namespace {

using mroam::testing::CompressedTwin;
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
  // Dataset trajectory 1 meets no board, so the counter's universe is
  // trajectories 0, 2 and 3, counted at compacted ids 0, 1 and 2.
  model::Dataset keep;
  InfluenceIndex index =
      IndexFromIncidence({{0, 2}, {2, 3}, {2}}, 4, &keep);
  ASSERT_EQ(index.dataset_ids(), (std::vector<model::TrajectoryId>{0, 2, 3}));
  CoverageCounter counter(&index);
  EXPECT_EQ(counter.universe(), 3);
  counter.Add(0);
  counter.Add(1);
  counter.Add(2);
  EXPECT_EQ(counter.CountOf(0), 1);  // dataset trajectory 0
  EXPECT_EQ(counter.CountOf(1), 3);  // dataset trajectory 2
  EXPECT_EQ(counter.CountOf(2), 1);  // dataset trajectory 3
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
  std::vector<int> counts(index.num_covered(), 0);
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

// --- the maintained marginal tables --------------------------------------

/// Every board's MarginalGain/MarginalLoss against a recount from CountOf
/// over its incidence list.
void ExpectTablesMatchRecount(const CoverageCounter& counter,
                              const std::string& where) {
  const InfluenceIndex& index = counter.index();
  const int m = counter.impression_threshold();
  for (model::BillboardId o = 0; o < index.num_billboards(); ++o) {
    int64_t gain = 0;
    int64_t loss = 0;
    index.ForEachCovered(o, [&](model::TrajectoryId t) {
      if (counter.CountOf(t) == m - 1) ++gain;
      if (counter.CountOf(t) == m) ++loss;
    });
    EXPECT_EQ(counter.MarginalGain(o), gain) << where << ", board " << o;
    EXPECT_EQ(counter.MarginalLoss(o), loss) << where << ", board " << o;
  }
}

/// Random incidence over `num_trajectories` with plenty of overlap, as a
/// plain index.
InfluenceIndex RandomIndex(int32_t num_billboards, int32_t num_trajectories,
                           common::Rng* rng) {
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (model::TrajectoryId t = 0; t < num_trajectories; ++t) {
      if (rng->Bernoulli(0.3)) list.push_back(t);
    }
  }
  return InfluenceIndex::FromIncidence(covered, num_trajectories,
                                       testing::kFixtureLambda);
}

// Add/Remove/Clear, copy-construction and copy-assignment keep the tables
// equal to recounts on both representations, at thresholds 1-3.
TEST(CoverageCounterTablesTest, MatchRecountsUnderRandomOperations) {
  for (uint64_t seed : {3u, 5u, 8u}) {
    common::Rng rng(seed);
    const InfluenceIndex plain = RandomIndex(16, 40, &rng);
    const InfluenceIndex twin = CompressedTwin(plain);
    for (const InfluenceIndex* index : {&plain, &twin}) {
      for (uint16_t m : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
        const std::string run = "seed " + std::to_string(seed) +
                                (index->has_plain() ? " plain" : " twin") +
                                " m " + std::to_string(m);
        CoverageCounter counter(index, m);
        ExpectTablesMatchRecount(counter, run + " empty");
        std::vector<bool> in(16, false);
        for (int step = 0; step < 300; ++step) {
          const std::string where = run + " step " + std::to_string(step);
          const auto o = static_cast<model::BillboardId>(rng.UniformU64(16));
          if (rng.Bernoulli(0.01)) {
            counter.Clear();
            in.assign(16, false);
          } else if (!in[o]) {
            counter.Add(o);
            in[o] = true;
          } else {
            counter.Remove(o);
            in[o] = false;
          }
          ExpectTablesMatchRecount(counter, where);
          if (HasFailure()) return;
          if (step % 25 == 0) {
            CoverageCounter copy(counter);
            ExpectTablesMatchRecount(copy, where + " copy");
            CoverageCounter assigned(index, m);
            assigned.Add(o);
            assigned = counter;
            ExpectTablesMatchRecount(assigned, where + " assigned");
            // The copies are independent of the original.
            if (in[o]) {
              copy.Remove(o);
            } else {
              copy.Add(o);
            }
            ExpectTablesMatchRecount(copy, where + " copy mutated");
            ExpectTablesMatchRecount(counter, where + " after copy");
          }
        }
      }
    }
  }
}

// The Assignment paths that move whole counters — copy-construction,
// copy-assignment, CopyDeploymentFrom and SwapSets — keep every
// advertiser's tables equal to recounts.
TEST(CoverageCounterTablesTest, MatchRecountsThroughAssignmentMoves) {
  common::Rng rng(13);
  const InfluenceIndex plain = RandomIndex(20, 30, &rng);
  const InfluenceIndex twin = CompressedTwin(plain);
  const std::vector<market::Advertiser> ads = {
      testing::Adv(0, 8, 10.0), testing::Adv(1, 12, 20.0),
      testing::Adv(2, 5, 7.0)};
  for (const InfluenceIndex* index : {&plain, &twin}) {
    for (uint16_t m : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
      core::Assignment s(index, ads, core::RegretParams{0.5}, m);
      core::Assignment other(s);
      for (int step = 0; step < 200; ++step) {
        const auto a = static_cast<market::AdvertiserId>(rng.UniformU64(3));
        const auto b = static_cast<market::AdvertiserId>(rng.UniformU64(3));
        const double op = rng.UniformDouble();
        if (op < 0.45 && !s.FreeBillboards().empty()) {
          const auto& free = s.FreeBillboards();
          s.Assign(free[rng.UniformU64(free.size())], a);
        } else if (op < 0.7 && !s.BillboardsOf(a).empty()) {
          s.Release(s.BillboardsOf(a).front());
        } else if (op < 0.8 && a != b) {
          s.SwapSets(a, b);
        } else if (op < 0.88) {
          other.CopyDeploymentFrom(s);
          if (!other.FreeBillboards().empty()) {
            other.Assign(other.FreeBillboards().back(), b);
          }
          s.CopyDeploymentFrom(other);
        } else if (op < 0.94) {
          other = s;
        } else {
          core::Assignment copy(other);
          s = copy;
        }
        const std::string where =
            std::string(index->has_plain() ? "plain" : "twin") + " m " +
            std::to_string(m) + " step " + std::to_string(step);
        for (market::AdvertiserId x = 0; x < 3; ++x) {
          ExpectTablesMatchRecount(s.CounterOf(x),
                                   where + " advertiser " + std::to_string(x));
        }
        if (HasFailure()) return;
      }
      EXPECT_EQ(s.CheckInvariants(), common::Status::Ok());
    }
  }
}

}  // namespace
}  // namespace mroam::influence
