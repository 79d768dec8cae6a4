// Ablation study of the local-search design choices (DESIGN.md §3):
//   (a) randomized restarts (Algorithm 3) vs a single deterministic start;
//   (b) the improvement ratio r of Definition 6.1;
//   (c) first- vs best-improvement exchange scans.
// All runs use BLS on the NYC-like city at the Table 6 defaults. Timing
// comes from the solver's own telemetry (SolveResult::report) rather than
// ad-hoc stopwatches, so the table and BENCH_ablation_local_search.json
// agree by construction.
#include <iostream>

#include "bench_common.h"
#include "bench_report.h"
#include "common/strings.h"
#include "core/solver.h"
#include "eval/table_printer.h"
#include "market/workload.h"

int main() {
  using namespace mroam;  // NOLINT: harness brevity
  bench::BenchScale scale = bench::ScaleFromEnv();
  model::Dataset dataset = bench::MakeCity(bench::City::kNyc, scale);
  influence::InfluenceIndex index = bench::MakeIndex(dataset, 100.0);
  bench::PrintBanner("Ablation: local-search knobs (BLS, NYC-like)", dataset,
                     index);

  market::WorkloadConfig workload;  // Table 6 defaults
  common::Rng workload_rng(7);
  auto ads_or =
      market::GenerateAdvertisers(index.TotalSupply(), workload,
                                  &workload_rng);
  if (!ads_or.ok()) {
    std::cerr << ads_or.status() << "\n";
    return 1;
  }
  const std::vector<market::Advertiser> ads = std::move(ads_or).value();

  struct Variant {
    std::string name;
    core::LocalSearchConfig config;
  };
  core::LocalSearchConfig base;
  base.restarts = 2;
  base.max_sweeps = 4;

  std::vector<Variant> variants;
  {
    Variant v{"baseline (2 restarts, r=0)", base};
    variants.push_back(v);
  }
  {
    Variant v{"no restarts (greedy start only)", base};
    v.config.restarts = 0;
    variants.push_back(v);
  }
  {
    Variant v{"4 restarts", base};
    v.config.restarts = 4;
    variants.push_back(v);
  }
  {
    Variant v{"improvement ratio r=0.01", base};
    v.config.improvement_ratio = 0.01;
    variants.push_back(v);
  }
  {
    Variant v{"best-improvement exchanges", base};
    v.config.best_improvement = true;
    variants.push_back(v);
  }

  bench::ReportWriter report("ablation_local_search");
  report.SetDataset(dataset, index);

  auto solve_variant = [&](core::Method method,
                           const core::LocalSearchConfig& config) {
    core::SolverConfig solver;
    solver.method = method;
    solver.regret = core::RegretParams{0.5};
    solver.local_search = config;
    solver.seed = 42;
    return core::Solve(index, ads, solver);
  };

  eval::TablePrinter table({"variant", "regret", "satisfied", "moves",
                            "deltas", "search_s", "time_s"});
  std::string variants_json = "[";
  for (size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    core::SolveResult result = solve_variant(core::Method::kBls, v.config);
    const core::RegretBreakdown& b = result.breakdown;
    table.AddRow({v.name, common::FormatDouble(b.total, 1),
                  std::to_string(b.satisfied_count) + "/" +
                      std::to_string(b.advertiser_count),
                  std::to_string(result.search_stats.moves_applied),
                  std::to_string(result.search_stats.deltas_evaluated),
                  common::FormatDouble(
                      result.report.PhaseSeconds("restarts.search"), 3),
                  common::FormatDouble(result.seconds, 3)});
    if (i > 0) variants_json.push_back(',');
    result.report.label = v.name;
    variants_json.push_back('\n');
    variants_json += result.report.ToJson();
  }
  variants_json += "\n]";
  report.AddRaw("variants", std::move(variants_json));
  table.Print(std::cout);

  std::cout << "\nALS vs BLS head-to-head at the same budget:\n";
  eval::TablePrinter duel({"strategy", "regret", "time_s"});
  for (core::Method method : {core::Method::kAls, core::Method::kBls}) {
    core::SolveResult result = solve_variant(method, base);
    duel.AddRow({core::MethodName(method),
                 common::FormatDouble(result.breakdown.total, 1),
                 common::FormatDouble(result.seconds, 3)});
    report.AddRunReport(std::string("duel_") + core::MethodName(method),
                        result.report);
  }
  duel.Print(std::cout);

  if (auto status = report.Write(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  return 0;
}
