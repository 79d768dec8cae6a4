// google-benchmark micro-benchmarks of the solver algorithms on a small
// NYC-like market: greedy heuristics, the local searches, and the
// assignment move primitives they are built from. Exhaustive BLS also
// runs on a dense lambda = 1000 m city.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/greedy.h"
#include "micro_main.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/local_search.h"
#include "market/workload.h"

namespace {

using namespace mroam;  // NOLINT: harness brevity

struct Fixture {
  model::Dataset dataset;
  influence::InfluenceIndex index;
  std::vector<market::Advertiser> advertisers;

  Fixture(int32_t num_billboards, int32_t num_trajectories, double lambda,
          market::WorkloadConfig workload = {})
      : dataset([&] {
          gen::NycLikeConfig config;
          config.num_billboards = num_billboards;
          config.num_trajectories = num_trajectories;
          common::Rng rng(1);
          return gen::GenerateNycLike(config, &rng);
        }()),
        index(influence::InfluenceIndex::Build(dataset, lambda)) {
    common::Rng rng(7);
    advertisers = market::GenerateAdvertisers(index.TotalSupply(), workload,
                                              &rng)
                      .value();
  }
};

// The default workload: alpha = 1, p = 5% -> 20 advertisers.
Fixture& TheFixture() {
  static Fixture* fixture = new Fixture(300, 3000, 100.0);
  return *fixture;
}

// The dense city of micro_influence's codec benches (400 billboards, 4000
// trajectories, lambda = 1000 m): covering lists average ~39 boards per
// trajectory, against ~0.55 on the city mroam_serve generates by default,
// so it is where the BLS scans' correction walk costs most. A board there
// meets ~390 trajectories, so the paper's p = 5% of I* = Σ_o I({o}) would
// ask ~7900 of the 4000 each advertiser can reach at all; p = 1% and
// alpha = 0.2 give 20 advertisers wanting ~1300-1900 trajectories, a
// handful of boards each.
Fixture& DenseFixture() {
  static Fixture* fixture = [] {
    market::WorkloadConfig workload;
    workload.alpha = 0.2;
    workload.avg_individual_demand_ratio = 0.01;
    return new Fixture(400, 4000, 1000.0, workload);
  }();
  return *fixture;
}

// Attaches the greedy selection-effort counter (delta over the timed
// loop, averaged per iteration) to BENCH_micro_algorithms.json:
// "greedy.deltas" is the number of candidates the selection rule scored.
void ReportSelectionCounters(benchmark::State& state,
                             const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().Snapshot();
  state.counters["greedy.deltas"] = benchmark::Counter(
      static_cast<double>(after.CounterOf("greedy.deltas") -
                          before.CounterOf("greedy.deltas")),
      benchmark::Counter::kAvgIterations);
}

template <typename GreedyFn>
void RunGreedyBench(benchmark::State& state, GreedyFn greedy) {
  Fixture& f = TheFixture();
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
    greedy(&s);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
  ReportSelectionCounters(state, before);
}

// The tier-1 gate keys its greedy.deltas ceilings on these names.
void BM_BudgetEffectiveGreedy(benchmark::State& state) {
  RunGreedyBench(state, core::BudgetEffectiveGreedy);
}
BENCHMARK(BM_BudgetEffectiveGreedy)->Unit(benchmark::kMillisecond);

void BM_SynchronousGreedy(benchmark::State& state) {
  RunGreedyBench(state, core::SynchronousGreedy);
}
BENCHMARK(BM_SynchronousGreedy)->Unit(benchmark::kMillisecond);

void BM_AdvertiserDrivenLocalSearch(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment greedy(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&greedy);
  for (auto _ : state) {
    core::Assignment s = greedy;
    core::LocalSearchConfig config;
    core::AdvertiserDrivenLocalSearch(&s, config);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
}
BENCHMARK(BM_AdvertiserDrivenLocalSearch)->Unit(benchmark::kMillisecond);

// BLS (the paper's whole neighborhood, as DailyMarket runs it) from the
// SynchronousGreedy plan, with moves 1-2 scored from per-scan tables.
// bls.deltas_evaluated and the plan's Eq. 1 regret are deterministic per
// fixture, so check_bls_regression gates both as exact ceilings: a faster
// scan that finds a worse plan fails.
void RunExhaustiveBlsBench(benchmark::State& state, const Fixture& f) {
  core::Assignment greedy(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&greedy);
  core::LocalSearchStats stats;
  double regret = 0.0;
  for (auto _ : state) {
    core::Assignment s = greedy;
    core::LocalSearchConfig config;
    stats = core::BillboardDrivenLocalSearch(&s, config);
    benchmark::DoNotOptimize(s.TotalRegret());
    regret = s.Breakdown().total;
  }
  state.counters["bls.deltas_evaluated"] =
      benchmark::Counter(static_cast<double>(stats.deltas_evaluated));
  state.counters["bls.moves_applied"] =
      benchmark::Counter(static_cast<double>(stats.moves_applied));
  state.counters["regret"] = benchmark::Counter(regret);
}

void BM_BillboardDrivenLocalSearchExhaustive(benchmark::State& state) {
  RunExhaustiveBlsBench(state, TheFixture());
}
BENCHMARK(BM_BillboardDrivenLocalSearchExhaustive)
    ->Unit(benchmark::kMillisecond);

void BM_BillboardDrivenLocalSearchExhaustiveDense(benchmark::State& state) {
  RunExhaustiveBlsBench(state, DenseFixture());
}
BENCHMARK(BM_BillboardDrivenLocalSearchExhaustiveDense)
    ->Unit(benchmark::kMillisecond);

void BM_DeltaExchangeAcross(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&s);
  // Pick two advertisers with billboards.
  market::AdvertiserId a = 0, b = 1;
  for (int32_t i = 0; i < s.num_advertisers(); ++i) {
    if (!s.BillboardsOf(i).empty()) {
      a = i;
      break;
    }
  }
  for (int32_t i = a + 1; i < s.num_advertisers(); ++i) {
    if (!s.BillboardsOf(i).empty()) {
      b = i;
      break;
    }
  }
  size_t pa = 0, pb = 0;
  for (auto _ : state) {
    const auto& sa = s.BillboardsOf(a);
    const auto& sb = s.BillboardsOf(b);
    benchmark::DoNotOptimize(
        s.DeltaExchangeAcross(sa[pa % sa.size()], sb[pb % sb.size()]));
    ++pa;
    ++pb;
  }
}
BENCHMARK(BM_DeltaExchangeAcross);

void BM_AssignReleaseRoundTrip(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
  for (auto _ : state) {
    model::BillboardId o = s.FreeBillboards().front();
    s.Assign(o, 0);
    s.Release(o);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
}
BENCHMARK(BM_AssignReleaseRoundTrip);

// The cost a hot path pays for an MROAM_TRACE_SPAN when tracing is not
// enabled (the DESIGN.md §6 "disabled-path cost" number): two clock reads
// and a flight-recorder ring write per span, or two relaxed loads with
// MROAM_FLIGHT=0.
void BM_DisabledScopedSpan(benchmark::State& state) {
  for (auto _ : state) {
    MROAM_TRACE_SPAN("bench.disabled_span");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_DisabledScopedSpan);

}  // namespace

int main(int argc, char** argv) {
  return mroam::bench::RunMicroBenchmarkMain(argc, argv, "micro_algorithms");
}
