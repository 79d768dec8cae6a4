// General applicability (paper §1): the same regret machinery provisions
// any divisible resource pool against customer demands. Here: a telecom
// infrastructure host assigns cell towers to mobile operators. Towers play
// the billboards, subscribers play the trajectories (a subscriber is
// "covered" when some assigned tower is in range), and each operator's
// contract demands a covered-subscriber count for a committed fee.
//
// Run: ./capacity_provisioning
#include <iostream>

#include "common/rng.h"
#include "common/strings.h"
#include "core/solver.h"
#include "influence/influence_index.h"
#include "model/dataset.h"

namespace {
using namespace mroam;  // NOLINT: example brevity

// A region with towers on a coarse grid and subscribers clustered around
// a few population centers. Each subscriber is one "trajectory" with a
// single home location; a tower within 2 km covers it.
model::Dataset BuildRegion(common::Rng* rng) {
  model::Dataset region;
  region.name = "telecom-region";
  const double size_m = 30000.0;

  int32_t id = 0;
  for (double x = 1000.0; x < size_m; x += 2500.0) {
    for (double y = 1000.0; y < size_m; y += 2500.0) {
      model::Billboard tower;
      tower.id = id++;
      tower.location = {x + rng->UniformDouble(-500, 500),
                        y + rng->UniformDouble(-500, 500)};
      region.billboards.push_back(tower);
    }
  }

  const int kCenters = 6;
  std::vector<geo::Point> centers;
  for (int c = 0; c < kCenters; ++c) {
    centers.push_back({rng->UniformDouble(4000, size_m - 4000),
                       rng->UniformDouble(4000, size_m - 4000)});
  }
  for (int32_t s = 0; s < 20000; ++s) {
    const geo::Point& center = centers[rng->UniformU64(kCenters)];
    model::Trajectory subscriber;
    subscriber.id = s;
    subscriber.points = {{center.x + rng->Normal(0.0, 2000.0),
                          center.y + rng->Normal(0.0, 2000.0)}};
    region.trajectories.push_back(std::move(subscriber));
  }
  return region;
}

}  // namespace

int main() {
  common::Rng rng(31);
  model::Dataset region = BuildRegion(&rng);
  influence::InfluenceIndex coverage =
      influence::InfluenceIndex::Build(region, /*lambda=*/2000.0);

  std::cout << "Telecom host: " << coverage.num_billboards() << " towers, "
            << common::FormatWithCommas(coverage.num_trajectories())
            << " subscribers, aggregate coverage capacity "
            << common::FormatWithCommas(coverage.TotalSupply()) << "\n\n";

  // Three operators with different footprints and fees. Demands are in
  // covered subscribers; fees are committed payments.
  std::vector<market::Advertiser> operators(3);
  operators[0] = {.id = 0, .demand = 9000, .payment = 11000.0};
  operators[1] = {.id = 1, .demand = 6000, .payment = 6500.0};
  operators[2] = {.id = 2, .demand = 3500, .payment = 3400.0};

  for (core::Method method : core::AllMethods()) {
    core::SolverConfig config;
    config.method = method;
    config.regret.gamma = 0.5;
    config.local_search.restarts = 2;
    core::SolveResult result = core::Solve(coverage, operators, config);
    std::cout << core::MethodName(method) << ": regret "
              << common::FormatDouble(result.breakdown.total, 0) << " ("
              << common::FormatDouble(result.breakdown.ExcessivePercent(), 0)
              << "% over-provisioning, "
              << common::FormatDouble(result.breakdown.UnsatisfiedPercent(), 0)
              << "% unmet demand; " << result.breakdown.satisfied_count
              << "/3 operators served)\n";
    for (size_t op = 0; op < result.sets.size(); ++op) {
      std::cout << "    operator " << op << ": "
                << result.sets[op].size() << " towers, "
                << common::FormatWithCommas(result.influences[op]) << "/"
                << common::FormatWithCommas(operators[op].demand)
                << " subscribers\n";
    }
  }
  std::cout << "\nOver-provisioning a tower to one operator is capacity\n"
               "another operator would have paid for — exactly the\n"
               "excessive-influence regret of MROAM.\n";
  return 0;
}
