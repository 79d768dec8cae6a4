#ifndef MROAM_CORE_GREEDY_H_
#define MROAM_CORE_GREEDY_H_

#include "core/assignment.h"

namespace mroam::core {

/// Picks the free billboard maximizing the paper's greedy selection rule
/// (R(S_a) - R(S_a ∪ {o})) / I({o}) for advertiser `a` (Algorithms 1 & 2,
/// lines 1.5 / 2.6). Billboards with I({o}) = 0 are always skipped.
/// Under the set-union model (impression_threshold == 1) billboards with
/// zero marginal gain w.r.t. S_a are skipped too: a fully-overlapped
/// billboard can never raise the advertiser's influence again, and
/// assigning it would burn the free pool on an advertiser that cannot be
/// helped. Under the impression-count model (threshold m > 1) zero-gain
/// billboards stay eligible — the first board meeting a trajectory has
/// gain 0 yet is how coverage toward the threshold is bootstrapped.
/// Ties are broken by higher
/// marginal-influence-per-supplied-influence, then by lower id, so the
/// selection is deterministic (and meaningful when gamma = 0 makes the
/// regret ratio flat). Returns model::kInvalidBillboard when no eligible
/// billboard exists.
///
/// The scan is exhaustive over the free pool, and each candidate costs
/// O(1): the advertiser's CoverageCounter keeps every board's marginal
/// gain up to date (DESIGN.md §5.1). When `scored` is non-null, the number
/// of candidates scored is added to it.
model::BillboardId BestBillboardFor(const Assignment& assignment,
                                    market::AdvertiserId a,
                                    int64_t* scored = nullptr);

/// Algorithm 1 — Budget-Effective Greedy ("G-Order"): serves advertisers
/// in descending order of budget-effectiveness L_i/I_i, assigning each the
/// best billboards until it is satisfied or no billboard can still raise
/// its influence. Expects (but does not require) an empty assignment.
void BudgetEffectiveGreedy(Assignment* assignment);

/// Algorithm 2 — Synchronous Greedy ("G-Global"): one billboard per
/// unsatisfied advertiser per round. When no billboard can be handed out
/// and at least two advertisers remain unsatisfied, the unsatisfied
/// advertiser with minimum budget-effectiveness releases its billboards
/// and is dropped from further rounds (paper lines 2.9-2.11; we read the
/// guard as ">= 2 unsatisfied", consistent with the text's "the while
/// loop breaks as fewer than two advertisers are unsatisfied").
///
/// Works from any starting assignment (the local-search framework and BLS
/// move 4 call it with non-empty state, per Algorithm 3 line 3.8 and
/// Algorithm 5 line 5.11).
void SynchronousGreedy(Assignment* assignment);

/// Restricted Synchronous Greedy: identical round structure, but only the
/// advertisers listed in `targets` compete for inventory (and only they
/// can be released as victims); everyone else's deployment is untouched.
/// With `targets` = {0, ..., n-1} this is bit-identical to
/// SynchronousGreedy. The incremental replanner hands it the blast radius
/// of a day's churn so the rest of the book stays stable.
void SynchronousGreedyOver(Assignment* assignment,
                           const std::vector<market::AdvertiserId>& targets);

}  // namespace mroam::core

#endif  // MROAM_CORE_GREEDY_H_
