#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "bench_report.h"
#include "common/strings.h"

namespace mroam::bench {

const char* CityName(City city) {
  return city == City::kNyc ? "NYC-like" : "SG-like";
}

BenchScale ScaleFromEnv() {
  BenchScale scale;
  const char* env = std::getenv("MROAM_BENCH_SCALE");
  if (env == nullptr) return scale;
  auto factor = common::ParseDouble(env);
  // Both scaled counts must fit int32_t.
  const double largest =
      std::max(scale.nyc_trajectories, scale.sg_trajectories);
  if (!factor.ok() || !std::isfinite(*factor) || *factor <= 0.0 ||
      *factor * largest > std::numeric_limits<int32_t>::max()) {
    std::cerr << "ignoring invalid MROAM_BENCH_SCALE='" << env << "'\n";
    return scale;
  }
  scale.nyc_trajectories = std::max(
      200, static_cast<int32_t>(scale.nyc_trajectories * *factor));
  scale.sg_trajectories = std::max(
      200, static_cast<int32_t>(scale.sg_trajectories * *factor));
  return scale;
}

int32_t ThreadsFromEnv() {
  const char* env = std::getenv("MROAM_BENCH_THREADS");
  if (env == nullptr) return 1;
  auto threads = common::ParseInt64(env);
  if (!threads.ok() || *threads < 0 || *threads > 1024) {
    std::cerr << "ignoring invalid MROAM_BENCH_THREADS='" << env << "'\n";
    return 1;
  }
  return static_cast<int32_t>(*threads);
}

model::Dataset MakeCity(City city, const BenchScale& scale) {
  if (city == City::kNyc) {
    gen::NycLikeConfig config;  // 1,462 billboards (Table 5)
    config.num_trajectories = scale.nyc_trajectories;
    common::Rng rng(0xC17C0DEULL);
    return gen::GenerateNycLike(config, &rng);
  }
  gen::SgLikeConfig config;  // 4,092 billboards (Table 5)
  config.num_trajectories = scale.sg_trajectories;
  common::Rng rng(0x5106C0DEULL);
  return gen::GenerateSgLike(config, &rng);
}

influence::InfluenceIndex MakeIndex(const model::Dataset& dataset,
                                    double lambda) {
  return influence::InfluenceIndex::Build(dataset, lambda);
}

eval::ExperimentConfig DefaultExperimentConfig() {
  eval::ExperimentConfig config;
  config.workload.alpha = 1.0;                     // Table 6 default
  config.workload.avg_individual_demand_ratio = 0.05;  // Table 6 default
  config.regret.gamma = 0.5;                       // Table 6 default
  config.local_search.restarts = 3;
  config.local_search.max_sweeps = 6;
  config.local_search.num_threads = ThreadsFromEnv();
  config.workload_seed = 7;
  config.solver_seed = 42;
  return config;
}

void PrintBanner(const std::string& experiment, const model::Dataset& dataset,
                 const influence::InfluenceIndex& index) {
  model::DatasetStats stats = model::ComputeStats(dataset);
  std::cout << "### " << experiment << "\n"
            << "dataset: " << dataset.name << "  |T|="
            << common::FormatWithCommas(
                   static_cast<int64_t>(stats.num_trajectories))
            << "  |U|=" << stats.num_billboards
            << "  lambda=" << index.lambda() << "m  I*="
            << common::FormatWithCommas(index.TotalSupply()) << "\n"
            << "defaults (Table 6): alpha=100%  p=5%  gamma=0.5\n\n";
}

void RunRegretVsAlpha(City city, double p, const std::string& figure_name,
                      const std::string& bench_slug) {
  BenchScale scale = ScaleFromEnv();
  model::Dataset dataset = MakeCity(city, scale);
  influence::InfluenceIndex index = MakeIndex(dataset, /*lambda=*/100.0);
  PrintBanner(figure_name, dataset, index);

  eval::ExperimentConfig config = DefaultExperimentConfig();
  config.workload.avg_individual_demand_ratio = p;
  const int32_t advertisers_at_full_demand =
      market::NumAdvertisers(config.workload);  // |A| at alpha=100%

  std::vector<eval::ExperimentPoint> points;
  for (double alpha : {0.4, 0.6, 0.8, 1.0, 1.2}) {
    config.workload.alpha = alpha;
    auto point = eval::RunExperimentPoint(
        index, config,
        "alpha=" + common::FormatDouble(alpha * 100, 0) + "%");
    if (!point.ok()) {
      std::cerr << "point failed: " << point.status() << "\n";
      continue;
    }
    points.push_back(std::move(point).value());
  }
  eval::PrintExperimentSeries(
      std::cout,
      figure_name + ": regret vs alpha at p=" +
          common::FormatDouble(p * 100, 0) + "% (|A|=" +
          std::to_string(advertisers_at_full_demand) + " at alpha=100%)",
      points);

  ReportWriter report(bench_slug);
  report.AddNote("figure", figure_name);
  report.SetDataset(dataset, index);
  report.AddNumber("p", p);
  report.AddNumber("threads", ThreadsFromEnv());
  report.AddSeries("points", points);
  if (auto status = report.Write(); !status.ok()) {
    std::cerr << status << "\n";
  }
}

void RunRegretVsGamma(City city, const std::string& figure_name,
                      const std::string& bench_slug) {
  BenchScale scale = ScaleFromEnv();
  model::Dataset dataset = MakeCity(city, scale);
  influence::InfluenceIndex index = MakeIndex(dataset, /*lambda=*/100.0);
  PrintBanner(figure_name, dataset, index);

  eval::ExperimentConfig config = DefaultExperimentConfig();
  std::vector<eval::ExperimentPoint> points;
  for (double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    config.regret.gamma = gamma;
    auto point = eval::RunExperimentPoint(
        index, config, "gamma=" + common::FormatDouble(gamma, 2));
    if (!point.ok()) {
      std::cerr << "point failed: " << point.status() << "\n";
      continue;
    }
    points.push_back(std::move(point).value());
  }
  eval::PrintExperimentSeries(
      std::cout, figure_name + ": regret vs gamma (" + CityName(city) + ")",
      points);

  ReportWriter report(bench_slug);
  report.AddNote("figure", figure_name);
  report.SetDataset(dataset, index);
  report.AddNumber("threads", ThreadsFromEnv());
  report.AddSeries("points", points);
  if (auto status = report.Write(); !status.ok()) {
    std::cerr << status << "\n";
  }
}

}  // namespace mroam::bench
