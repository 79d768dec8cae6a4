#include "influence/coverage_counter.h"

#include <algorithm>

namespace mroam::influence {

int64_t CoverageCounter::MarginalGainAfterRemove(model::BillboardId add,
                                                 model::BillboardId rem) const {
  // A trajectory t newly reaches the threshold through `add` iff, after
  // removing `rem`, its count is threshold-1 — i.e. counts_[t] equals
  // threshold-1 (and rem does not cover t), or threshold (and rem covers
  // t). Membership in rem's sorted list is tested with a merge pointer;
  // a compressed list is decoded first (ForEach yields ascending order).
  const std::vector<model::TrajectoryId>* rem_list = &rem_scratch_;
  if (index_->has_plain()) {
    rem_list = &index_->CoveredBy(rem);
  } else {
    rem_scratch_.clear();
    index_->compressed_covered().Decode(rem, &rem_scratch_);
  }
  // The monotone merge pointer below silently returns wrong gains if
  // rem's list is unsorted; InfluenceIndex guarantees sortedness at
  // build time and this guards the precondition in debug builds.
  MROAM_DCHECK(std::is_sorted(rem_list->begin(), rem_list->end()));
  const int at_gain = threshold_ - 1;
  int64_t gain = 0;
  size_t ri = 0;
  index_->ForEachCovered(add, [&](model::TrajectoryId t) {
    const int count = counts_[t];
    if (count != at_gain && count != threshold_) return;
    while (ri < rem_list->size() && (*rem_list)[ri] < t) ++ri;
    const bool rem_covers = ri < rem_list->size() && (*rem_list)[ri] == t;
    if (count - (rem_covers ? 1 : 0) == at_gain) {
      ++gain;
    }
  });
  return gain;
}

}  // namespace mroam::influence
