// Extension experiment (ours): the paper's motivating daily operation
// (§1 — "the host needs to deal with multiple advertisers coming every
// day") as a rolling simulation. Contracts arrive every day and last a
// week; we compare re-optimizing the whole book daily (BLS) against
// locking existing deployments and serving only newcomers greedily.
#include <iostream>

#include "bench_common.h"
#include "bench_report.h"
#include "common/strings.h"
#include "core/daily_market.h"
#include "eval/table_printer.h"

int main() {
  using namespace mroam;  // NOLINT: harness brevity
  bench::BenchScale scale = bench::ScaleFromEnv();
  model::Dataset dataset = bench::MakeCity(bench::City::kNyc, scale);
  influence::InfluenceIndex index = bench::MakeIndex(dataset, 100.0);
  bench::PrintBanner("Extension: daily market, replanning policies",
                     dataset, index);

  constexpr int kDays = 12;
  constexpr int kArrivalsPerDay = 3;
  const int64_t supply = index.TotalSupply();

  bench::ReportWriter report("ext_daily_market");
  report.SetDataset(dataset, index);
  report.AddNumber("days", kDays);
  report.AddNumber("arrivals_per_day", kArrivalsPerDay);

  for (core::ReplanPolicy policy : {core::ReplanPolicy::kReoptimizeAll,
                                    core::ReplanPolicy::kLockExisting}) {
    core::DailyMarketConfig config;
    config.policy = policy;
    config.contract_duration_days = 7;
    config.solver.method = core::Method::kBls;
    config.solver.local_search.restarts = 2;
    config.solver.local_search.max_sweeps = 4;
    core::DailyMarket market(&index, config);

    // Same arrival stream for both policies.
    common::Rng rng(777);
    eval::TablePrinter table({"day", "active", "arrived", "expired",
                              "regret", "satisfied", "time_s"});
    double cumulative_regret = 0.0;
    double cumulative_seconds = 0.0;
    std::string days_json = "[";
    for (int day = 0; day < kDays; ++day) {
      std::vector<market::Advertiser> arrivals;
      for (int k = 0; k < kArrivalsPerDay; ++k) {
        market::Advertiser a;
        a.id = 0;  // reassigned by the market
        double fraction = rng.UniformDouble(0.01, 0.04);
        a.demand = std::max<int64_t>(
            1, static_cast<int64_t>(fraction * static_cast<double>(supply)));
        a.payment = std::floor(rng.UniformDouble(0.9, 1.1) *
                               static_cast<double>(a.demand));
        arrivals.push_back(a);
      }
      core::DayResult r = market.AdvanceDay(std::move(arrivals));
      cumulative_regret += r.breakdown.total;
      cumulative_seconds += r.seconds;
      table.AddRow({std::to_string(r.day), std::to_string(r.active_contracts),
                    std::to_string(r.arrived), std::to_string(r.expired),
                    common::FormatDouble(r.breakdown.total, 1),
                    std::to_string(r.breakdown.satisfied_count) + "/" +
                        std::to_string(r.active_contracts),
                    common::FormatDouble(r.seconds, 3)});
      if (day > 0) days_json.push_back(',');
      days_json.push_back('\n');
      days_json += r.report.ToJson();
    }
    days_json += "\n]";
    std::cout << "policy: " << core::ReplanPolicyName(policy) << "\n";
    table.Print(std::cout);
    std::cout << "cumulative regret over " << kDays << " days: "
              << common::FormatDouble(cumulative_regret, 1) << "  (compute "
              << common::FormatDouble(cumulative_seconds, 2) << " s)\n\n";
    const std::string slug = core::ReplanPolicyName(policy);
    report.AddNumber(slug + ".cumulative_regret", cumulative_regret);
    report.AddNumber(slug + ".cumulative_seconds", cumulative_seconds);
    report.AddRaw(slug + ".days", std::move(days_json));
  }
  std::cout << "Re-optimizing daily costs more compute but repacks the\n"
               "inventory as contracts churn; locking is what hosts do when\n"
               "customers expect stable placements.\n";
  if (auto status = report.Write(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  return 0;
}
