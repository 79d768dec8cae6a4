#ifndef MROAM_CORE_SOLVER_H_
#define MROAM_CORE_SOLVER_H_

#include <string>
#include <vector>

#include "core/local_search.h"
#include "obs/run_report.h"

namespace mroam::core {

/// The four deployment methods compared in the paper's evaluation (§7.1.4).
enum class Method {
  kGOrder,   ///< Budget-Effective Greedy (Algorithm 1)
  kGGlobal,  ///< Synchronous Greedy (Algorithm 2)
  kAls,      ///< Randomized framework + advertiser-driven search (Alg 3+4)
  kBls,      ///< Randomized framework + billboard-driven search (Alg 3+5)
};

/// Display name used in experiment tables ("G-Order", "BLS", ...).
const char* MethodName(Method method);

/// All methods, in the paper's reporting order.
std::vector<Method> AllMethods();

/// Configuration of one solver run.
struct SolverConfig {
  Method method = Method::kBls;
  RegretParams regret;
  /// Local-search knobs, including `num_threads`: ALS/BLS restarts run in
  /// parallel on that many workers with bit-identical results for any
  /// value (per-restart Rng streams are forked from `seed` up front).
  LocalSearchConfig local_search;
  uint64_t seed = 42;  ///< seeds the Rng driving randomized components
  /// Influence measure: 1 = the paper's set-union meet model (default);
  /// m > 1 = impression-count model of [29] (a trajectory counts once it
  /// meets m of the advertiser's billboards).
  uint16_t impression_threshold = 1;
};

/// Outcome of one solver run: the deployment plus its evaluation.
struct SolveResult {
  /// Final billboard sets, indexed by advertiser.
  std::vector<std::vector<model::BillboardId>> sets;
  /// Achieved influence I(S_i) per advertiser.
  std::vector<int64_t> influences;
  /// Regret decomposition (the paper's stacked bars).
  RegretBreakdown breakdown;
  /// Wall-clock seconds spent solving.
  double seconds = 0.0;
  /// Local-search effort counters (zero for the greedy methods).
  LocalSearchStats search_stats;
  /// Structured telemetry: per-phase wall times, the metrics-registry
  /// delta over the run, and per-advertiser outcomes. Serialized by the
  /// bench harness into BENCH_<name>.json.
  obs::RunReport report;
};

/// Runs `config.method` on the given market and returns the deployment.
/// Deterministic given config.seed.
SolveResult Solve(const influence::InfluenceIndex& index,
                  const std::vector<market::Advertiser>& advertisers,
                  const SolverConfig& config);

}  // namespace mroam::core

#endif  // MROAM_CORE_SOLVER_H_
