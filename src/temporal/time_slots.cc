#include "temporal/time_slots.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace mroam::temporal {

namespace {

std::string FormatClock(double seconds) {
  int total_minutes = static_cast<int>(std::lround(seconds / 60.0));
  char buf[16];
  // Window ends may land on 24:00, which reads better than 00:00 here.
  std::snprintf(buf, sizeof(buf), "%02d:%02d", total_minutes / 60,
                total_minutes % 60);
  return buf;
}

}  // namespace

std::string TemporalMarket::SlotLabel(model::BillboardId s) const {
  MROAM_CHECK(s >= 0 && static_cast<size_t>(s) < slots.size());
  const Slot& slot = slots[s];
  return "billboard " + std::to_string(slot.base_billboard) + " @ " +
         FormatClock(slot.window.begin_seconds) + "-" +
         FormatClock(slot.window.end_seconds);
}

TemporalMarket BuildTemporalMarket(const model::Dataset& dataset,
                                   const TemporalConfig& config) {
  MROAM_CHECK(config.slots_per_day >= 1);
  MROAM_CHECK(config.day_length_seconds > 0.0);

  // Geometric incidence first (who could ever see whom).
  influence::InfluenceIndex geometric =
      influence::InfluenceIndex::Build(dataset, config.lambda);

  TemporalMarket market;
  const int32_t k = config.slots_per_day;
  const double window_len = config.day_length_seconds / k;

  std::vector<std::vector<model::TrajectoryId>> covered;
  covered.reserve(static_cast<size_t>(geometric.num_billboards()) * k);
  market.slots.reserve(covered.capacity());

  for (model::BillboardId o = 0; o < geometric.num_billboards(); ++o) {
    for (int32_t s = 0; s < k; ++s) {
      Slot slot;
      slot.base_billboard = o;
      slot.slot_index = s;
      slot.window = {s * window_len, (s + 1) * window_len};

      std::vector<model::TrajectoryId> list;
      for (model::TrajectoryId t : geometric.CoveredBy(o)) {
        const model::TrajectoryId id = geometric.dataset_ids()[t];
        const model::Trajectory& trajectory = dataset.trajectories[id];
        if (slot.window.Overlaps(trajectory.start_time_seconds,
                                 trajectory.travel_time_seconds)) {
          list.push_back(id);
        }
      }
      covered.push_back(std::move(list));
      market.slots.push_back(slot);
    }
  }
  market.index = influence::InfluenceIndex::FromIncidence(
      std::move(covered), geometric.num_trajectories(), config.lambda);
  return market;
}

}  // namespace mroam::temporal
