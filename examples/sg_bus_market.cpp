// SG bus-mode scenario: billboards live at bus stops and audiences are
// smart-card bus rides. Shows how the transport mode changes the regret
// profile (more uniform influence, low overlap -> less excess influence),
// and how the influence radius lambda behaves for stop-anchored audiences.
//
// Run: ./sg_bus_market
#include <iostream>

#include "common/strings.h"
#include "eval/experiment.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "influence/reports.h"

namespace {
using namespace mroam;  // NOLINT: example brevity
}

int main() {
  gen::SgLikeConfig city_config;
  city_config.num_billboards = 1200;
  city_config.num_trajectories = 10000;
  common::Rng rng(7);
  model::Dataset city = gen::GenerateSgLike(city_config, &rng);
  model::DatasetStats stats = model::ComputeStats(city);
  std::cout << "Generated " << city.name << ": "
            << common::FormatWithCommas(
                   static_cast<int64_t>(stats.num_trajectories))
            << " bus rides, " << stats.num_billboards
            << " bus-stop billboards, avg ride "
            << common::FormatDouble(stats.avg_distance_km, 1) << " km / "
            << common::FormatDouble(stats.avg_travel_time_sec, 0) << " s\n";

  // Lambda sensitivity: rides only carry points at stops, so supply
  // barely moves until lambda reaches the inter-stop scale (paper Fig 12).
  std::cout << "\nlambda sensitivity of the supply:\n";
  for (double lambda : {50.0, 100.0, 150.0, 200.0}) {
    influence::InfluenceIndex index =
        influence::InfluenceIndex::Build(city, lambda);
    std::cout << "  lambda=" << lambda << "m  I* = "
              << common::FormatWithCommas(index.TotalSupply()) << "\n";
  }

  influence::InfluenceIndex index =
      influence::InfluenceIndex::Build(city, /*lambda=*/100.0);
  influence::InfluenceSummary summary = influence::SummarizeInfluence(index);
  std::cout << "\nTop 10% of billboards hold only "
            << common::FormatDouble(summary.top_decile_share * 100.0, 1)
            << "% of the supply (more uniform than NYC, Fig 1a purple)\n\n";

  // Small vs big advertisers at full demand (the paper's Q2).
  eval::ExperimentConfig config;
  config.workload.alpha = 1.0;
  config.regret.gamma = 0.5;
  config.local_search.restarts = 2;
  config.local_search.max_sweeps = 8;

  std::vector<eval::ExperimentPoint> points;
  for (double p : {0.02, 0.05, 0.10}) {
    config.workload.avg_individual_demand_ratio = p;
    auto point = eval::RunExperimentPoint(
        index, config, "p=" + common::FormatDouble(p * 100, 0) + "%");
    if (!point.ok()) {
      std::cerr << "experiment failed: " << point.status() << "\n";
      return 1;
    }
    points.push_back(std::move(point).value());
  }
  eval::PrintExperimentSeries(std::cout,
                              "SG-like market: advertiser size (Q2)", points);
  std::cout << "Many medium advertisers give the host flexibility; a few\n"
               "huge ones make every miss expensive (paper §7.2, Case 4).\n";
  return 0;
}
