// contract_bench: the measured process of the contract-path benchmark.
//
//   contract_bench gen --seed N --out PATH
//       Generates the NYC-like city at mroam_serve --gen defaults (400
//       billboards, 20 000 trajectories, lambda = 100 m) from the seed,
//       builds its index and writes it as a v2 snapshot. Run before the
//       measured process, so neither set-up time nor memory includes it.
//
//   contract_bench run --workload admit_lock|replan_churn|market_mixed
//                      --seed N --seconds S --snapshot PATH
//                      [--trace-out PATH]
//       Runs one pass of a workload against the snapshot and prints one
//       JSON line: every metric with its unit and sample count, the
//       operations attempted and failed, and the output-check violations.
//       Human-readable rung tables go to stderr. With --trace-out the
//       tracer records in memory (the program's own spans plus the spans
//       this process wraps around its calls into each layer) and writes
//       Chrome trace-event JSON there at the end. Exits 1 when an output
//       check fails.
//
// run.py, next to this file, builds this program, drives it and reduces
// its output to the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "io/snapshot_io.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef CONTRACTBENCH_BUILD_TYPE
#define CONTRACTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CONTRACTBENCH_SANITIZE
#define CONTRACTBENCH_SANITIZE ""
#endif

namespace {

using contractbench::RunOptions;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "contract_bench: %s\n"
               "usage: contract_bench gen --seed N --out PATH\n"
               "       contract_bench run --workload W --seed N --seconds S "
               "--snapshot PATH [--trace-out PATH]\n",
               why);
  std::exit(2);
}

/// Refuses builds whose numbers would not describe the release program:
/// assertions on, sanitizers, or a non-optimized build type.
bool MeasurableBuild() {
  const std::string build_type = CONTRACTBENCH_BUILD_TYPE;
  std::fprintf(stderr, "contract_bench: build type %s%s%s\n",
               build_type.c_str(),
               std::string(CONTRACTBENCH_SANITIZE).empty() ? "" : ", sanitize=",
               CONTRACTBENCH_SANITIZE);
#ifndef NDEBUG
  std::fprintf(stderr, "contract_bench: refusing a build with assertions\n");
  return false;
#endif
  if (!std::string(CONTRACTBENCH_SANITIZE).empty()) {
    std::fprintf(stderr, "contract_bench: refusing a sanitizer build\n");
    return false;
  }
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "contract_bench: refusing build type %s\n",
                 build_type.c_str());
    return false;
  }
  return true;
}

int Gen(uint64_t seed, const std::string& out) {
  mroam::gen::NycLikeConfig config;
  config.num_billboards = 400;
  config.num_trajectories = 20000;
  mroam::common::Rng rng(seed);
  mroam::model::Dataset dataset = mroam::gen::GenerateNycLike(config, &rng);
  mroam::influence::InfluenceIndex index =
      mroam::influence::InfluenceIndex::Build(dataset, 100.0);
  mroam::common::Status saved =
      mroam::io::SaveIndexSnapshot(out, dataset, index);
  if (!saved.ok()) {
    std::fprintf(stderr, "contract_bench: cannot save %s: %s\n", out.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(const RunOptions& options) {
  // Undisturbed runs: no armed faults, no env-armed tracer, and no Info
  // lines written inside timed replans.
  for (const char* var : {"MROAM_FAULT", "MROAM_TRACE"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') {
      std::fprintf(stderr, "contract_bench: refusing to run with %s set\n",
                   var);
      return 2;
    }
  }
  if (mroam::common::MinLogLevel() < mroam::common::LogLevel::kWarning) {
    mroam::common::SetMinLogLevel(mroam::common::LogLevel::kWarning);
  }
  if (!options.trace_path.empty()) mroam::obs::Tracer::Global().Enable("");

  contractbench::Sheet sheet;
  if (options.workload == "replan_churn") {
    contractbench::RunReplanChurn(options, &sheet);
  } else if (options.workload == "admit_lock") {
    contractbench::RunAdmitLock(options, &sheet);
  } else if (options.workload == "market_mixed") {
    contractbench::RunMarketMixed(options, &sheet);
  } else {
    Usage("unknown workload");
  }

  if (!options.trace_path.empty()) {
    mroam::obs::Tracer::Global().Disable();
    std::ofstream out(options.trace_path, std::ios::trunc);
    out << mroam::obs::Tracer::Global().DumpJson();
    if (!out) {
      std::fprintf(stderr, "contract_bench: cannot write %s\n",
                   options.trace_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", sheet.ToJson(options).c_str());
  std::fflush(stdout);
  return sheet.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage("missing command");
  const std::string command = argv[1];
  RunOptions options;
  std::string out;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("flag without a value");
    const std::string value = argv[++i];
    if (flag == "--seed") {
      auto seed = mroam::common::ParseInt64(value);
      if (!seed.ok() || *seed < 0) Usage("--seed must be a whole number");
      options.seed = static_cast<uint64_t>(*seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      auto seconds = mroam::common::ParseDouble(value);
      if (!seconds.ok() || *seconds <= 0.0 || *seconds > 600.0) {
        Usage("--seconds must be in (0, 600]");
      }
      options.seconds = *seconds;
    } else if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--snapshot") {
      options.snapshot = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (!MeasurableBuild()) return 2;
  if (command == "gen") {
    if (out.empty()) Usage("gen needs --out");
    return Gen(options.seed, out);
  }
  if (command == "run") {
    if (options.snapshot.empty()) Usage("run needs --snapshot");
    return Run(options);
  }
  Usage("unknown command");
}
