#include "core/assignment.h"

#include <algorithm>
#include <cmath>

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
  ++free_add_epoch_;
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
  // The swapped counter objects carry their epochs with them, so a stamp
  // cached against "advertiser i's counter" could still match numerically
  // while describing what is now advertiser j's set: invalidate both.
  counters_[i].MarkStructuralChange();
  counters_[j].MarkStructuralChange();
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
  // The copied counters carry `other`'s epochs, which could collide with
  // stamps cached against this assignment's previous state.
  for (influence::CoverageCounter& c : counters_) c.MarkStructuralChange();
  ++free_add_epoch_;
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

void Assignment::VerifyInvariants() const {
  // Ownership structure.
  std::vector<int> seen(index_->num_billboards(), 0);
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    for (size_t pos = 0; pos < sets_[a].size(); ++pos) {
      BillboardId o = sets_[a][pos];
      MROAM_CHECK(owner_[o] == a) << "billboard " << o << " owner mismatch";
      MROAM_CHECK(slot_[o] == static_cast<int32_t>(pos));
      ++seen[o];
    }
  }
  for (size_t pos = 0; pos < free_.size(); ++pos) {
    BillboardId o = free_[pos];
    MROAM_CHECK(owner_[o] == kNoAdvertiser);
    MROAM_CHECK(slot_[o] == static_cast<int32_t>(pos));
    ++seen[o];
  }
  for (int32_t o = 0; o < index_->num_billboards(); ++o) {
    MROAM_CHECK(seen[o] == 1) << "billboard " << o << " appears " << seen[o]
                              << " times across sets/free";
  }

  // Influence and regret caches.
  double expected_total = 0.0;
  for (int32_t a = 0; a < num_advertisers(); ++a) {
    influence::CoverageCounter fresh(index_, impression_threshold_);
    for (BillboardId o : sets_[a]) fresh.Add(o);
    MROAM_CHECK(fresh.influence() == InfluenceOf(a))
        << "advertiser " << a << " influence cache stale";
    double expected = Regret(advertisers_[a], fresh.influence(), params_);
    MROAM_CHECK(std::abs(expected - regret_[a]) < 1e-6)
        << "advertiser " << a << " regret cache stale";
    expected_total += expected;
  }
  MROAM_CHECK(std::abs(expected_total - total_regret_) < 1e-5)
      << "total regret cache stale";
}

}  // namespace mroam::core
