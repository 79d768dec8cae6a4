#ifndef CONTRACTBENCH_BENCH_UTIL_H_
#define CONTRACTBENCH_BENCH_UTIL_H_

// Shared pieces of the contract-path benchmark's measured process: the
// metric sheet it prints, boots from a snapshot, the output checks, the
// kernel and io probes, and the spans it wraps around its own calls into
// the library when the run is traced.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/regret.h"
#include "influence/influence_index.h"
#include "io/mmap_snapshot.h"
#include "io/snapshot_io.h"
#include "market/advertiser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace contractbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Options of one measured pass (`contract_bench run ...`).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string snapshot;
  /// Non-empty: record spans in memory and write them here at the end.
  std::string trace_path;
};

/// One measured value with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Everything a pass reports: metrics in print order, operation counts,
/// and the output-check violations (any violation fails the run).
struct Sheet {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;

  void Add(std::string name, double value, std::string unit,
           int64_t samples);
  void Violation(std::string what);
  /// One-line JSON object, read by run.py.
  std::string ToJson(const RunOptions& options) const;
};

/// q-quantile (q in [0,1]) of `values` by the nearest-rank rule; 0 when
/// empty. Takes a copy so callers keep their sample order.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Resident set size of this process in MiB (VmRSS).
double RssMiB();

/// The index a pass serves from. Exactly one of `decoded` (a
/// LoadIndexSnapshot boot) or `mapped` (a MappedSnapshot::Map boot) is
/// set; `index` points into it.
struct Boot {
  std::unique_ptr<mroam::io::IndexSnapshot> decoded;
  std::unique_ptr<mroam::io::MappedSnapshot> mapped;
  const mroam::influence::InfluenceIndex* index = nullptr;
};

/// Boots from `path` by decoding (LoadIndexSnapshot) or by mapping
/// (MappedSnapshot::Map). Exits the process on failure.
Boot BootSnapshot(const std::string& path, bool mapped);

/// Records a span around a benchmark call into a layer, only in traced
/// passes (untraced passes leave the program's own instrumentation as
/// the only spans).
class LayerSpan {
 public:
  LayerSpan(const char* name, int64_t id)
      : span_(mroam::obs::Tracer::Enabled()
                  ? std::make_unique<mroam::obs::ScopedSpan>(name, id)
                  : nullptr) {}

 private:
  std::unique_ptr<mroam::obs::ScopedSpan> span_;
};

/// Eq. 1 as the market computes it (the paper's default gamma).
inline const mroam::core::RegretParams kRegretParams{};

/// True when every billboard id in `sets` is valid and no billboard is
/// held by two contracts; violations are added to `sheet`.
bool DisjointSets(
    const mroam::influence::InfluenceIndex& index,
    const std::vector<std::vector<mroam::model::BillboardId>>& sets,
    const std::string& where, Sheet* sheet);

/// Output check of one plan: the billboard sets are pairwise disjoint;
/// each contract's influence, recounted with InfluenceOfSet, gives Eq. 1
/// regrets whose sum matches `reported_total` and whose satisfied count
/// matches `reported_satisfied`; and R + R' = L holds for every
/// advertiser (Eq. 1 with gamma = 1 against Eq. 2 — the identity the
/// paper states; with the market's gamma it holds for the satisfied
/// ones). Violations are added to `sheet`, prefixed with `where`.
void CheckPlan(const mroam::influence::InfluenceIndex& index,
               const std::vector<mroam::market::Advertiser>& terms,
               const std::vector<std::vector<mroam::model::BillboardId>>& sets,
               double reported_total, int64_t reported_satisfied,
               const std::string& where, Sheet* sheet);

/// Kernel probe on the workload's own index (plain lists on decoded
/// boots, compressed lists on mapped ones): a CoverageCounter holding a
/// seeded half of the billboards, timed over MarginalGain of every
/// billboard and over Add+Remove of every billboard, in ns per posting.
void ProbeKernels(const mroam::influence::InfluenceIndex& index,
                  uint64_t seed, Sheet* sheet);

/// InfluenceOfSet over each set of `sets` (the drained book), p50 in us.
void ProbeSetCount(
    const mroam::influence::InfluenceIndex& index,
    const std::vector<std::vector<mroam::model::BillboardId>>& sets,
    Sheet* sheet);

/// io probe: LoadIndexSnapshot and MappedSnapshot::Map of the workload's
/// snapshot, medians in ms, plus the snapshot's size and the index's
/// posting count and compressed bytes per posting.
void ProbeIo(const std::string& path, Sheet* sheet);

/// Core work counters (greedy.*, bls.*) over `days` replans, as
/// per-day counts and ratios.
void AddCoreCounters(const mroam::obs::MetricsSnapshot& before,
                     const mroam::obs::MetricsSnapshot& after, int64_t days,
                     Sheet* sheet);

/// Contract terms for `count` arrivals from the paper's generator at
/// p = 0.01 of the index's supply.
std::vector<mroam::market::Advertiser> GenerateTerms(
    const mroam::influence::InfluenceIndex& index, int64_t count,
    mroam::common::Rng* rng);

}  // namespace contractbench

#endif  // CONTRACTBENCH_BENCH_UTIL_H_
