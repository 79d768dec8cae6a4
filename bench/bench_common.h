#ifndef MROAM_BENCH_BENCH_COMMON_H_
#define MROAM_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "model/dataset.h"

namespace mroam::bench {

/// Which synthetic city a bench runs against.
enum class City { kNyc, kSg };

const char* CityName(City city);

/// Default bench scale (DESIGN.md §4): billboard counts match the paper's
/// Table 5 (1,462 / 4,092); trajectory counts are reduced so every bench
/// binary finishes on a single-core budget. Override the trajectory counts
/// with the MROAM_BENCH_SCALE env var (a float multiplier, e.g. "0.25" for
/// a quick smoke run or "20" to approach paper scale).
struct BenchScale {
  int32_t nyc_trajectories = 60000;
  int32_t sg_trajectories = 80000;
};

/// Reads MROAM_BENCH_SCALE and applies it to the defaults. A value that is
/// not a positive finite number, or that would scale a count past
/// INT32_MAX, is ignored with a warning on stderr.
BenchScale ScaleFromEnv();

/// Reads MROAM_BENCH_THREADS — the `num_threads` knob the benches pass to
/// the solver (parallel ALS/BLS restarts). 1 (the default) keeps the
/// single-core budget of DESIGN.md §4; 0 means one thread per hardware
/// core; results are bit-identical for every value.
int32_t ThreadsFromEnv();

/// Generates the requested city at bench scale with a fixed seed.
model::Dataset MakeCity(City city, const BenchScale& scale);

/// Builds the influence index for `city` at distance threshold `lambda`.
influence::InfluenceIndex MakeIndex(const model::Dataset& dataset,
                                    double lambda);

/// Experiment defaults shared by every figure bench: Table 6 defaults
/// (alpha=100%, p=5%, gamma=0.5) plus bounded local-search effort
/// (3 restarts, at most 6 BLS sweeps).
eval::ExperimentConfig DefaultExperimentConfig();

/// Prints the standard bench banner: dataset, scale, Table 6 defaults.
void PrintBanner(const std::string& experiment, const model::Dataset& dataset,
                 const influence::InfluenceIndex& index);

/// Shared driver for Figures 2-7: regret vs demand-supply ratio alpha at a
/// fixed average-individual demand ratio `p`. Prints the table and writes
/// BENCH_<bench_slug>.json (banner metadata + the series with per-run
/// RunReports).
void RunRegretVsAlpha(City city, double p, const std::string& figure_name,
                      const std::string& bench_slug);

/// Shared driver for Figures 10-11: regret vs unsatisfied penalty gamma.
/// Same JSON contract as RunRegretVsAlpha.
void RunRegretVsGamma(City city, const std::string& figure_name,
                      const std::string& bench_slug);

}  // namespace mroam::bench

#endif  // MROAM_BENCH_BENCH_COMMON_H_
