#include "core/assignment.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace mroam::core {

using market::AdvertiserId;
using market::kNoAdvertiser;
using model::BillboardId;

Assignment::Assignment(const influence::InfluenceIndex* index,
                       std::vector<market::Advertiser> advertisers,
                       RegretParams params, uint16_t impression_threshold)
    : index_(index),
      advertisers_(std::move(advertisers)),
      params_(params),
      impression_threshold_(impression_threshold),
      owner_(index->num_billboards(), kNoAdvertiser),
      slot_(index->num_billboards(), 0),
      sets_(advertisers_.size()),
      regret_(advertisers_.size(), 0.0) {
  MROAM_CHECK(params_.gamma >= 0.0 && params_.gamma <= 1.0);
  for (size_t a = 0; a < advertisers_.size(); ++a) {
    MROAM_CHECK(advertisers_[a].id == static_cast<AdvertiserId>(a));
    MROAM_CHECK(advertisers_[a].demand > 0);
    MROAM_CHECK(advertisers_[a].payment > 0.0);
  }
  free_.resize(index->num_billboards());
  for (int32_t o = 0; o < index->num_billboards(); ++o) {
    free_[o] = o;
    slot_[o] = o;
  }
  counters_.reserve(advertisers_.size());
  for (size_t a = 0; a < advertisers_.size(); ++a) {
    counters_.emplace_back(index_, impression_threshold_);
    regret_[a] = Regret(advertisers_[a], 0, params_);
    total_regret_ += regret_[a];
  }
}

namespace {

/// Removes the element at `pos` from `list`, keeping `slot` consistent.
void SwapPop(std::vector<BillboardId>* list, std::vector<int32_t>* slot,
             int32_t pos) {
  BillboardId moved = list->back();
  (*list)[pos] = moved;
  (*slot)[moved] = pos;
  list->pop_back();
}

}  // namespace

double Assignment::TotalDual() const {
  double total = 0.0;
  for (int32_t a = 0; a < num_advertisers(); ++a) total += DualOf(a);
  return total;
}

RegretBreakdown Assignment::Breakdown() const {
  RegretBreakdown b;
  b.advertiser_count = num_advertisers();
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    if (IsSatisfied(a)) {
      ++b.satisfied_count;
      b.excessive += regret_[a];
    } else {
      b.unsatisfied_penalty += regret_[a];
    }
  }
  b.total = b.excessive + b.unsatisfied_penalty;
  return b;
}

double Assignment::DeltaAssign(BillboardId o, AdvertiserId a) const {
  MROAM_DCHECK(owner_[o] == kNoAdvertiser);
  return RegretDelta(a, InfluenceOf(a) + counters_[a].MarginalGain(o));
}

double Assignment::DeltaRelease(BillboardId o) const {
  AdvertiserId a = owner_[o];
  MROAM_DCHECK(a != kNoAdvertiser);
  return RegretDelta(a, InfluenceOf(a) - counters_[a].MarginalLoss(o));
}

double Assignment::DeltaExchangeAcross(BillboardId om, BillboardId on) const {
  AdvertiserId a = owner_[om];
  AdvertiserId b = owner_[on];
  MROAM_DCHECK(a != kNoAdvertiser && b != kNoAdvertiser && a != b);
  int64_t new_a = InfluenceOf(a) - counters_[a].MarginalLoss(om) +
                  counters_[a].MarginalGainAfterRemove(on, om);
  int64_t new_b = InfluenceOf(b) - counters_[b].MarginalLoss(on) +
                  counters_[b].MarginalGainAfterRemove(om, on);
  return RegretDelta(a, new_a, b, new_b);
}

double Assignment::DeltaReplace(BillboardId om, BillboardId on) const {
  AdvertiserId a = owner_[om];
  MROAM_DCHECK(a != kNoAdvertiser);
  MROAM_DCHECK(owner_[on] == kNoAdvertiser);
  int64_t new_a = InfluenceOf(a) - counters_[a].MarginalLoss(om) +
                  counters_[a].MarginalGainAfterRemove(on, om);
  return RegretDelta(a, new_a);
}

double Assignment::DeltaSwapSets(AdvertiserId i, AdvertiserId j) const {
  MROAM_DCHECK(i != j);
  // I(S) depends only on the set, so after the swap advertiser i achieves
  // I(S_j) and vice versa.
  return RegretDelta(i, InfluenceOf(j), j, InfluenceOf(i));
}

void Assignment::RecomputeRegret(AdvertiserId a) {
  double fresh = Regret(advertisers_[a], InfluenceOf(a), params_);
  total_regret_ += fresh - regret_[a];
  regret_[a] = fresh;
}

void Assignment::Assign(BillboardId o, AdvertiserId a) {
  MROAM_CHECK(owner_[o] == kNoAdvertiser);
  MROAM_CHECK(a >= 0 && a < num_advertisers());
  SwapPop(&free_, &slot_, slot_[o]);
  owner_[o] = a;
  slot_[o] = static_cast<int32_t>(sets_[a].size());
  sets_[a].push_back(o);
  counters_[a].Add(o);
  RecomputeRegret(a);
}

void Assignment::Release(BillboardId o) {
  AdvertiserId a = owner_[o];
  MROAM_CHECK(a != kNoAdvertiser);
  SwapPop(&sets_[a], &slot_, slot_[o]);
  owner_[o] = kNoAdvertiser;
  slot_[o] = static_cast<int32_t>(free_.size());
  free_.push_back(o);
  counters_[a].Remove(o);
  RecomputeRegret(a);
}

void Assignment::ExchangeAcross(BillboardId om, BillboardId on) {
  AdvertiserId a = owner_[om];
  AdvertiserId b = owner_[on];
  MROAM_CHECK(a != kNoAdvertiser && b != kNoAdvertiser && a != b);
  Release(om);
  Release(on);
  Assign(om, b);
  Assign(on, a);
}

void Assignment::Replace(BillboardId om, BillboardId on) {
  AdvertiserId a = owner_[om];
  MROAM_CHECK(a != kNoAdvertiser);
  MROAM_CHECK(owner_[on] == kNoAdvertiser);
  Release(om);
  Assign(on, a);
}

void Assignment::SwapSets(AdvertiserId i, AdvertiserId j) {
  MROAM_CHECK(i != j);
  std::swap(sets_[i], sets_[j]);
  std::swap(counters_[i], counters_[j]);
  for (BillboardId o : sets_[i]) owner_[o] = i;
  for (BillboardId o : sets_[j]) owner_[o] = j;
  // Slots are positions within the (moved) vectors, so they stay valid.
  RecomputeRegret(i);
  RecomputeRegret(j);
}

void Assignment::ReleaseAll(AdvertiserId a) {
  while (!sets_[a].empty()) {
    Release(sets_[a].back());
  }
}

void Assignment::Reset() {
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    ReleaseAll(a);
  }
}

void Assignment::CopyDeploymentFrom(const Assignment& other) {
  MROAM_CHECK(index_ == other.index_);
  MROAM_CHECK(advertisers_.size() == other.advertisers_.size());
  MROAM_CHECK(impression_threshold_ == other.impression_threshold_);
  owner_ = other.owner_;
  slot_ = other.slot_;
  sets_ = other.sets_;
  free_ = other.free_;
  counters_ = other.counters_;
  regret_ = other.regret_;
  params_ = other.params_;
  total_regret_ = other.total_regret_;
}

void Assignment::RestoreDeployment(
    const std::vector<std::vector<BillboardId>>& sets) {
  MROAM_CHECK(sets.size() <= advertisers_.size())
      << "restore has " << sets.size() << " sets for "
      << advertisers_.size() << " advertisers";
  for (size_t a = 0; a < sets.size(); ++a) {
    for (BillboardId o : sets[a]) {
      Assign(o, static_cast<AdvertiserId>(a));
    }
  }
}

int64_t CountDeploymentDiff(
    const std::vector<std::vector<BillboardId>>& before,
    const std::vector<std::vector<BillboardId>>& after,
    int32_t num_billboards) {
  std::vector<AdvertiserId> owner_before(num_billboards, kNoAdvertiser);
  std::vector<AdvertiserId> owner_after(num_billboards, kNoAdvertiser);
  for (size_t a = 0; a < before.size(); ++a) {
    for (BillboardId o : before[a]) owner_before[o] = static_cast<AdvertiserId>(a);
  }
  for (size_t a = 0; a < after.size(); ++a) {
    for (BillboardId o : after[a]) owner_after[o] = static_cast<AdvertiserId>(a);
  }
  int64_t touched = 0;
  for (int32_t o = 0; o < num_billboards; ++o) {
    if (owner_before[o] != owner_after[o]) ++touched;
  }
  return touched;
}

common::Status Assignment::CheckInvariants() const {
  auto broken = [](const std::string& what) {
    return common::Status::Internal("assignment invariant broken: " + what);
  };
  // Ownership: every board sits at its recorded slot in exactly one of the
  // sets and the free pool, so the sets are disjoint.
  std::vector<int> seen(static_cast<size_t>(num_billboards()), 0);
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    for (size_t pos = 0; pos < sets_[a].size(); ++pos) {
      const BillboardId o = sets_[a][pos];
      if (owner_[o] != a || slot_[o] != static_cast<int32_t>(pos)) {
        return broken("billboard " + std::to_string(o) + " in the set of " +
                      std::to_string(a) + " records owner " +
                      std::to_string(owner_[o]) + ", slot " +
                      std::to_string(slot_[o]));
      }
      ++seen[o];
    }
  }
  for (size_t pos = 0; pos < free_.size(); ++pos) {
    const BillboardId o = free_[pos];
    if (owner_[o] != kNoAdvertiser || slot_[o] != static_cast<int32_t>(pos)) {
      return broken("free billboard " + std::to_string(o) +
                    " records owner " + std::to_string(owner_[o]) +
                    ", slot " + std::to_string(slot_[o]));
    }
    ++seen[o];
  }
  for (int32_t o = 0; o < num_billboards(); ++o) {
    if (seen[o] != 1) {
      return broken("billboard " + std::to_string(o) + " appears " +
                    std::to_string(seen[o]) + " times across sets and pool");
    }
  }

  // Counters and regrets, against recounts from the incidence lists.
  const int m = impression_threshold_;
  std::vector<int> counts(static_cast<size_t>(index_->num_covered()));
  double expected_total = 0.0;
  double scale = 1.0;  // bounds the magnitude of every partial sum
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    const influence::CoverageCounter& counter = counters_[a];
    const std::string who = "advertiser " + std::to_string(a) + ": ";
    std::fill(counts.begin(), counts.end(), 0);
    for (BillboardId o : sets_[a]) {
      index_->ForEachCovered(o, [&](model::TrajectoryId t) { ++counts[t]; });
    }
    int64_t influence = 0;
    for (size_t t = 0; t < counts.size(); ++t) {
      if (counter.CountOf(static_cast<model::TrajectoryId>(t)) != counts[t]) {
        return broken(who + "count of trajectory " + std::to_string(t));
      }
      if (counts[t] >= m) ++influence;
    }
    if (counter.influence() != influence ||
        (m == 1 && influence != index_->InfluenceOfSet(sets_[a]))) {
      return broken(who + "influence " + std::to_string(counter.influence()) +
                    ", recount " + std::to_string(influence));
    }
    for (BillboardId o = 0; o < num_billboards(); ++o) {
      int64_t gain = 0;
      int64_t loss = 0;
      index_->ForEachCovered(o, [&](model::TrajectoryId t) {
        if (counts[t] == m - 1) ++gain;
        if (counts[t] == m) ++loss;
      });
      if (counter.MarginalGain(o) != gain || counter.MarginalLoss(o) != loss) {
        return broken(who + "billboard " + std::to_string(o) + " gain/loss " +
                      std::to_string(counter.MarginalGain(o)) + "/" +
                      std::to_string(counter.MarginalLoss(o)) +
                      ", recount " + std::to_string(gain) + "/" +
                      std::to_string(loss));
      }
    }
    const double expected = Regret(advertisers_[a], influence, params_);
    if (regret_[a] != expected) {
      return broken(who + "cached regret " + std::to_string(regret_[a]) +
                    ", Eq. 1 gives " + std::to_string(expected));
    }
    expected_total += expected;
    scale += advertisers_[a].payment + expected;
  }
  // The cached total is a running sum of per-move differences, so it may
  // carry rounding; anything past it is a missed update.
  if (std::abs(expected_total - total_regret_) > 1e-9 * scale) {
    return broken("cached total regret " + std::to_string(total_regret_) +
                  ", Eq. 1 sums to " + std::to_string(expected_total));
  }
  return common::Status::Ok();
}

}  // namespace mroam::core
