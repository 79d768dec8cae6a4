// google-benchmark micro-benchmarks of the daily-market replanners: the
// same deterministic churn schedule (arrivals, expiries, cancellations)
// driven through a full per-day re-solve and the incremental warm-start
// replanner. The timed loop is the day loop; the counters are the
// replanner's deterministic work measures (boards touched per day,
// full-solve fallback rate, advertisers re-optimized per day), which the
// check_replan_regression ctest entry gates against a committed baseline.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/daily_market.h"
#include "market/workload.h"
#include "micro_main.h"

namespace {

using namespace mroam;  // NOLINT: harness brevity

constexpr int kDays = 12;
constexpr int kPerDay = 3;

struct Fixture {
  model::Dataset dataset;
  influence::InfluenceIndex index;
  std::vector<market::Advertiser> arrivals;

  Fixture()
      : dataset([] {
          gen::NycLikeConfig config;
          config.num_billboards = 300;
          config.num_trajectories = 3000;
          common::Rng rng(1);
          return gen::GenerateNycLike(config, &rng);
        }()),
        index(influence::InfluenceIndex::Build(dataset, 100.0)) {
    market::WorkloadConfig workload;
    workload.avg_individual_demand_ratio = 0.01;
    workload.alpha = workload.avg_individual_demand_ratio *
                     static_cast<double>(kDays * kPerDay);
    common::Rng rng(7);
    arrivals = market::GenerateAdvertisers(index.TotalSupply(), workload,
                                           &rng)
                   .value();
  }
};

Fixture& TheFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

struct ScheduleTotals {
  double boards_touched = 0.0;
  double fallbacks = 0.0;
  double reoptimized = 0.0;
  double final_regret = 0.0;
};

/// One full pass over the fixed churn schedule: kDays days of kPerDay
/// arrivals each, a 5-day contract term (so expiry churn starts on day 6),
/// and one early-ticket cancellation every third day.
ScheduleTotals DriveSchedule(core::ReplanPolicy policy) {
  Fixture& f = TheFixture();
  core::DailyMarketConfig config;
  config.solver.method = core::Method::kGGlobal;
  config.contract_duration_days = 5;
  config.policy = policy;
  core::DailyMarket market(&f.index, config);

  ScheduleTotals totals;
  size_t next = 0;
  for (int day = 1; day <= kDays; ++day) {
    if (day >= 4 && day % 3 == 1) {
      market.Cancel(static_cast<int64_t>(day) - 3);
    }
    std::vector<market::Advertiser> batch;
    for (int k = 0; k < kPerDay && next < f.arrivals.size(); ++k) {
      batch.push_back(f.arrivals[next++]);
    }
    core::DayResult result = market.AdvanceDay(std::move(batch));
    totals.boards_touched += static_cast<double>(result.boards_touched);
    totals.reoptimized +=
        static_cast<double>(result.reoptimized_advertisers);
    if (result.full_solve_fallback) totals.fallbacks += 1.0;
    totals.final_regret = result.breakdown.total;
  }
  return totals;
}

void RunReplanBench(benchmark::State& state, core::ReplanPolicy policy) {
  ScheduleTotals accumulated;
  for (auto _ : state) {
    ScheduleTotals totals = DriveSchedule(policy);
    benchmark::DoNotOptimize(totals.final_regret);
    accumulated.boards_touched += totals.boards_touched;
    accumulated.fallbacks += totals.fallbacks;
    accumulated.reoptimized += totals.reoptimized;
    accumulated.final_regret = totals.final_regret;
  }
  const auto per_iteration = benchmark::Counter::kAvgIterations;
  state.counters["replan.boards_touched_per_day"] = benchmark::Counter(
      accumulated.boards_touched / kDays, per_iteration);
  state.counters["replan.fallback_rate"] = benchmark::Counter(
      accumulated.fallbacks / kDays, per_iteration);
  state.counters["replan.reoptimized_per_day"] = benchmark::Counter(
      accumulated.reoptimized / kDays, per_iteration);
}

void BM_DailyReplanFull(benchmark::State& state) {
  RunReplanBench(state, core::ReplanPolicy::kReoptimizeAll);
}
BENCHMARK(BM_DailyReplanFull)->Unit(benchmark::kMillisecond);

void BM_DailyReplanIncremental(benchmark::State& state) {
  RunReplanBench(state, core::ReplanPolicy::kIncremental);
}
BENCHMARK(BM_DailyReplanIncremental)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mroam::bench::RunMicroBenchmarkMain(argc, argv, "micro_replan");
}
