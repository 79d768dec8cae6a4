#include "core/greedy.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::core {

using market::AdvertiserId;
using model::BillboardId;

namespace {

/// Comparison tolerance of the greedy selection rule: ratios within this
/// band tie and fall through to the next tie-break key.
constexpr double kSelectionTieTolerance = 1e-12;

/// The greedy selection comparator (Algorithms 1 & 2, lines 1.5 / 2.6): a
/// candidate beats the incumbent on a strictly higher regret-delta ratio;
/// within the tie band it wins on a higher marginal-gain ratio, then on a
/// smaller id.
bool SelectionBeats(double ratio, double gain_ratio, BillboardId id,
                    double best_ratio, double best_gain_ratio,
                    BillboardId best_id) {
  if (ratio > best_ratio + kSelectionTieTolerance) return true;
  if (ratio > best_ratio - kSelectionTieTolerance) {
    if (gain_ratio > best_gain_ratio + kSelectionTieTolerance) return true;
    if (gain_ratio > best_gain_ratio - kSelectionTieTolerance &&
        id < best_id) {
      return true;
    }
  }
  return false;
}

}  // namespace

BillboardId BestBillboardFor(const Assignment& assignment, AdvertiserId a,
                             int64_t* scored) {
  const influence::InfluenceIndex& index = assignment.index();
  const market::Advertiser& ad = assignment.advertiser(a);
  const RegretParams& params = assignment.params();
  const int64_t influence = assignment.InfluenceOf(a);
  const double current_regret = Regret(ad, influence, params);
  // Zero-gain candidates are only *permanently* useless under the
  // set-union model; with an impression threshold m > 1 the first board
  // meeting a trajectory has gain 0 yet bootstraps coverage (greedy.h).
  const bool skip_zero_gain = assignment.impression_threshold() == 1;
  BillboardId best = model::kInvalidBillboard;
  double best_ratio = 0.0;
  double best_gain_ratio = 0.0;
  int64_t candidates = 0;
  for (BillboardId o : assignment.FreeBillboards()) {
    const double supplied = static_cast<double>(index.InfluenceOf(o));
    if (supplied <= 0.0) continue;
    const int64_t gain = assignment.MarginalGain(a, o);
    ++candidates;
    if (gain == 0 && skip_zero_gain) continue;  // can never help again
    const double ratio =
        (current_regret - Regret(ad, influence + gain, params)) / supplied;
    const double gain_ratio = static_cast<double>(gain) / supplied;
    if (best == model::kInvalidBillboard ||
        SelectionBeats(ratio, gain_ratio, o, best_ratio, best_gain_ratio,
                       best)) {
      best = o;
      best_ratio = ratio;
      best_gain_ratio = gain_ratio;
    }
  }
  if (scored != nullptr) *scored += candidates;
  return best;
}

void BudgetEffectiveGreedy(Assignment* assignment) {
  MROAM_TRACE_SPAN("greedy.budget_effective");
  int64_t assigned = 0;
  int64_t scored = 0;
  std::vector<AdvertiserId> order(assignment->num_advertisers());
  for (int32_t a = 0; a < assignment->num_advertisers(); ++a) order[a] = a;
  std::sort(order.begin(), order.end(),
            [assignment](AdvertiserId a, AdvertiserId b) {
              double ea = assignment->advertiser(a).BudgetEffectiveness();
              double eb = assignment->advertiser(b).BudgetEffectiveness();
              if (ea != eb) return ea > eb;
              return a < b;
            });
  for (AdvertiserId a : order) {
    while (!assignment->IsSatisfied(a)) {
      BillboardId o = BestBillboardFor(*assignment, a, &scored);
      if (o == model::kInvalidBillboard) break;  // nothing can still help
      assignment->Assign(o, a);
      ++assigned;
    }
  }
  // One flush per call: the registry never sits in the inner loop.
  MROAM_COUNTER_ADD("greedy.budget_effective_runs", 1);
  MROAM_COUNTER_ADD("greedy.assignments", assigned);
  MROAM_COUNTER_ADD("greedy.deltas", scored);
}

void SynchronousGreedy(Assignment* assignment) {
  std::vector<AdvertiserId> all(assignment->num_advertisers());
  for (int32_t a = 0; a < assignment->num_advertisers(); ++a) all[a] = a;
  SynchronousGreedyOver(assignment, all);
}

void SynchronousGreedyOver(Assignment* assignment,
                           const std::vector<AdvertiserId>& targets) {
  MROAM_TRACE_SPAN("greedy.synchronous");
  int64_t assigned = 0;
  int64_t victims = 0;
  int64_t scored = 0;
  const int32_t n = assignment->num_advertisers();
  std::vector<bool> active(n, false);
  for (AdvertiserId a : targets) {
    MROAM_DCHECK(a >= 0 && a < n);
    active[a] = true;
  }

  auto unsatisfied_active = [&]() {
    std::vector<AdvertiserId> out;
    for (AdvertiserId a : targets) {
      if (active[a] && !assignment->IsSatisfied(a)) out.push_back(a);
    }
    return out;
  };

  // Counters flush once on every exit path, never inside the round loop.
  auto flush = [&] {
    MROAM_COUNTER_ADD("greedy.synchronous_runs", 1);
    MROAM_COUNTER_ADD("greedy.assignments", assigned);
    MROAM_COUNTER_ADD("greedy.victims_released", victims);
    MROAM_COUNTER_ADD("greedy.deltas", scored);
  };

  while (true) {
    bool assigned_any = false;
    for (AdvertiserId a : targets) {
      if (!active[a] || assignment->IsSatisfied(a)) continue;
      BillboardId o = BestBillboardFor(*assignment, a, &scored);
      if (o == model::kInvalidBillboard) continue;
      assignment->Assign(o, a);
      assigned_any = true;
      ++assigned;
    }
    std::vector<AdvertiserId> unsat = unsatisfied_active();
    if (unsat.empty()) return flush();
    if (assigned_any) continue;

    // No billboard could be handed out this round. Release the least
    // budget-effective unsatisfied advertiser so the rest can be served,
    // unless at most one advertiser remains unsatisfied.
    if (unsat.size() < 2) return flush();
    AdvertiserId victim = unsat[0];
    for (AdvertiserId a : unsat) {
      if (assignment->advertiser(a).BudgetEffectiveness() <
          assignment->advertiser(victim).BudgetEffectiveness()) {
        victim = a;
      }
    }
    assignment->ReleaseAll(victim);
    active[victim] = false;
    ++victims;
  }
}

}  // namespace mroam::core
