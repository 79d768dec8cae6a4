#include "core/solver.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/greedy.h"
#include "core/regret.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::core {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kGOrder:
      return "G-Order";
    case Method::kGGlobal:
      return "G-Global";
    case Method::kAls:
      return "ALS";
    case Method::kBls:
      return "BLS";
  }
  return "?";
}

std::vector<Method> AllMethods() {
  return {Method::kGOrder, Method::kGGlobal, Method::kAls, Method::kBls};
}

namespace {

/// Runs `config.method`. Only the greedies start from an empty plan; the
/// local searches build and return their own, so none is built for them.
Assignment RunMethod(const influence::InfluenceIndex& index,
                     const std::vector<market::Advertiser>& advertisers,
                     const SolverConfig& config, common::Rng* rng,
                     LocalSearchStats* stats) {
  if (config.method == Method::kGOrder || config.method == Method::kGGlobal) {
    Assignment plan(&index, advertisers, config.regret,
                    config.impression_threshold);
    if (config.method == Method::kGOrder) {
      BudgetEffectiveGreedy(&plan);
    } else {
      SynchronousGreedy(&plan);
    }
    return plan;
  }
  const SearchStrategy strategy = config.method == Method::kAls
                                      ? SearchStrategy::kAdvertiserDriven
                                      : SearchStrategy::kBillboardDriven;
  return RandomizedLocalSearch(index, advertisers, config.regret, strategy,
                               config.local_search, rng, stats,
                               config.impression_threshold);
}

}  // namespace

SolveResult Solve(const influence::InfluenceIndex& index,
                  const std::vector<market::Advertiser>& advertisers,
                  const SolverConfig& config) {
  MROAM_TRACE_SPAN("core.solve");
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  common::Stopwatch watch;
  common::Rng rng(config.seed);
  SolveResult result;

  const Assignment assignment =
      RunMethod(index, advertisers, config, &rng, &result.search_stats);

  result.seconds = watch.ElapsedSeconds();
  result.breakdown = assignment.Breakdown();
  result.sets.reserve(advertisers.size());
  result.influences.reserve(advertisers.size());
  for (int32_t a = 0; a < assignment.num_advertisers(); ++a) {
    result.sets.push_back(assignment.BillboardsOf(a));
    result.influences.push_back(assignment.InfluenceOf(a));
  }

  // Telemetry: registry delta over this run, per-phase times, and the
  // per-advertiser regret breakdown of the final deployment.
  obs::RunReport& report = result.report;
  report.label = MethodName(config.method);
  report.metrics =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  report.AddPhase("total", result.seconds);
  if (config.method == Method::kGOrder || config.method == Method::kGGlobal) {
    report.AddPhase("greedy", result.seconds);
  } else {
    // Restart tasks observed their greedy/search phases into the rls.*
    // histograms; the delta sums are CPU seconds across all tasks.
    if (const auto* h = report.metrics.FindHistogram("rls.greedy_seconds")) {
      report.AddPhase("restarts.greedy", h->sum);
    }
    if (const auto* h = report.metrics.FindHistogram("rls.search_seconds")) {
      report.AddPhase("restarts.search", h->sum);
    }
  }
  report.advertisers.reserve(advertisers.size());
  for (int32_t a = 0; a < assignment.num_advertisers(); ++a) {
    const market::Advertiser& ad = assignment.advertiser(a);
    obs::RunReport::AdvertiserOutcome outcome;
    outcome.id = ad.id;
    outcome.demand = ad.demand;
    outcome.payment = ad.payment;
    outcome.influence = result.influences[a];
    outcome.regret = Regret(ad, result.influences[a], config.regret);
    outcome.satisfied = Satisfied(ad, result.influences[a]);
    report.advertisers.push_back(outcome);
  }
  MROAM_LOG(Info) << "solve " << report.OneLineSummary();
  return result;
}

}  // namespace mroam::core
