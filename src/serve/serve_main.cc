// mroam_serve: the long-running market host (README "Serving").
//
// Boot paths:
//   --snapshot PATH   cold-start from a binary index snapshot: no CSV
//                     parsing, no O(|U| x |T|) index build — the obs
//                     report shows io.snapshot_load_seconds and no
//                     influence.index_build_seconds entry.
//   --snapshot PATH --mmap
//                     zero-copy cold start: the snapshot is mmapped
//                     and the compressed posting blobs are served straight
//                     out of the mapping — no decoded incidence copy ever
//                     exists, so boot cost is page faults plus one CRC
//                     pass and resident memory stays bounded by the file.
//   --gen nyc|sg      generate a synthetic city and build the index
//                     in-process (slow path; useful with --save-snapshot
//                     to produce the snapshot for later cold starts).
//
// A snapshot also carries the serving layer's open contract book; both
// snapshot boot paths restore it, and a drain with --save-snapshot
// persists the current book, so a restart resumes the market instead of
// starting empty. Neither snapshot boot keeps the dataset: their saves
// copy the snapshot's other sections byte for byte.
//
// The process serves until SIGTERM/SIGINT, then drains: in-flight
// requests finish, queued arrivals are flushed through a final replan,
// and MROAM_TRACE output (if enabled) reaches disk.

#include <signal.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "io/mmap_snapshot.h"
#include "io/snapshot_io.h"
#include "model/dataset.h"
#include "obs/crash_handler.h"
#include "obs/metrics.h"
#include "serve/market_server.h"

namespace {

using mroam::common::ParseDouble;
using mroam::common::ParseInt64;
using mroam::common::Status;

struct Options {
  std::string snapshot;       // load path ("" = none)
  bool mmap = false;          // zero-copy --snapshot boot
  std::string save_snapshot;  // save path ("" = none)
  std::string gen;            // "nyc" | "sg" | ""
  int gen_billboards = 400;
  int gen_trajectories = 20000;
  double lambda = 100.0;
  uint64_t seed = 42;
  int port = 8080;
  int threads = 4;
  int batch_max = 64;
  double batch_delay_ms = 50.0;
  mroam::core::ReplanPolicy policy = mroam::core::ReplanPolicy::kIncremental;
  mroam::core::Method method = mroam::core::Method::kBls;
  int duration_days = 7;
  bool once = false;  // start, print, stop — for smoke tests
  // Overload contract knobs (MarketServerConfig defaults).
  int read_idle_timeout_ms = 5000;
  int request_timeout_ms = 15000;
  int write_timeout_ms = 5000;
  int max_connections = 256;
  int max_queue = 1024;
  int degraded_watermark = 256;
  int ticket_history = 1 << 16;
};

/// Distinct exit status for a failed --snapshot cold start, so process
/// supervisors can tell "snapshot missing/corrupt" (redeploy the artifact)
/// from a generic boot failure.
constexpr int kExitSnapshotLoadFailed = 3;

void PrintUsage() {
  std::fprintf(stderr, R"(usage: mroam_serve [options]

boot (exactly one of):
  --snapshot PATH        cold-start from a binary index snapshot
  --gen nyc|sg           generate a synthetic city and build the index

options:
  --mmap                 with --snapshot: mmap the snapshot and serve the
                         compressed index zero-copy out of the mapping
  --save-snapshot PATH   write the booted index as a snapshot before
                         serving, and again with the open contract book on
                         drain
  --billboards N         with --gen: billboard count (default 400)
  --trajectories N       with --gen: trajectory count (default 20000)
  --lambda METERS        with --gen: influence radius (default 100)
  --seed N               with --gen: generator seed (default 42)
  --port N               TCP port; 0 = ephemeral (default 8080)
  --threads N            connection workers (default 4)
  --batch-max N          admission batch size (default 64)
  --batch-delay-ms F     max admission delay before flush (default 50)
  --policy lock|reopt|incremental
                         replan policy (default incremental)
  --method gorder|gglobal|als|bls
                         solver for full solves (default bls)
  --duration-days N      contract term in batch-days (default 7)
  --once                 start, print the port, shut down (smoke test)

overload contract:
  --read-idle-timeout-ms N
                         max wait between request bytes before 408;
                         -1 blocks forever (default 5000)
  --request-timeout-ms N max whole-request read budget before 408;
                         -1 blocks forever (default 15000)
  --write-timeout-ms N   max response-write stall before the worker is
                         reclaimed; -1 blocks forever (default 5000)
  --max-connections N    accept-side cap on open connections (default 256)
  --max-queue N          admission high-watermark; past it POST /contracts
                         sheds with 429 + Retry-After (default 1024)
  --degraded-watermark N queue depth at which /readyz turns 503 and reads
                         carry X-Mroam-Stale (default 256)
  --ticket-history N     committed ticket results kept for GET /tickets/<id>
                         before eviction (default 65536)

exit status: 0 ok, 1 boot/serve failure, 2 usage error, 3 snapshot
load/map failure (--snapshot path missing, not a regular file, corrupt,
or of a version other than 3).
)");
}

bool ParseFlag(int argc, char** argv, int* i, std::string_view name,
               std::string* out) {
  if (argv[*i] != std::string("--") + std::string(name)) return false;
  if (*i + 1 >= argc) {
    MROAM_LOG(Error) << "flag --" << name << " needs a value";
    std::exit(2);
  }
  *out = argv[++*i];
  return true;
}

mroam::common::Result<mroam::core::ReplanPolicy> PolicyFromName(
    const std::string& name) {
  using mroam::core::ReplanPolicy;
  if (name == "lock") return ReplanPolicy::kLockExisting;
  if (name == "reopt") return ReplanPolicy::kReoptimizeAll;
  if (name == "incremental") return ReplanPolicy::kIncremental;
  return Status::InvalidArgument(
      "--policy must be lock, reopt, or incremental, got '" + name + "'");
}

mroam::common::Result<mroam::core::Method> MethodFromName(
    const std::string& name) {
  using mroam::core::Method;
  if (name == "gorder") return Method::kGOrder;
  if (name == "gglobal") return Method::kGGlobal;
  if (name == "als") return Method::kAls;
  if (name == "bls") return Method::kBls;
  return Status::InvalidArgument("unknown --method '" + name + "'");
}

Status ParseOptions(int argc, char** argv, Options* options) {
  constexpr int64_t kMin = std::numeric_limits<int>::min();
  constexpr int64_t kMax = std::numeric_limits<int>::max();
  // Integer flags and their accepted ranges: what the city generator,
  // MarketServer and DailyMarket would otherwise CHECK-fail on, and no
  // value the int fields would truncate.
  struct IntFlag {
    std::string_view name;
    int* out;
    int64_t min;
    int64_t max;
  };
  const IntFlag int_flags[] = {
      {"billboards", &options->gen_billboards, 1, kMax},
      {"trajectories", &options->gen_trajectories, kMin, kMax},
      {"port", &options->port, 0, 65535},
      {"threads", &options->threads, 1, kMax},
      {"batch-max", &options->batch_max, 1, kMax},
      {"duration-days", &options->duration_days, 1, kMax},
      {"read-idle-timeout-ms", &options->read_idle_timeout_ms, kMin, kMax},
      {"request-timeout-ms", &options->request_timeout_ms, kMin, kMax},
      {"write-timeout-ms", &options->write_timeout_ms, kMin, kMax},
      {"max-connections", &options->max_connections, 1, kMax},
      {"max-queue", &options->max_queue, 1, kMax},
      {"degraded-watermark", &options->degraded_watermark, 1, kMax},
      {"ticket-history", &options->ticket_history, 1, kMax},
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& flag : int_flags) {
      if (ParseFlag(argc, argv, &i, flag.name, &value)) {
        int_flag = &flag;
        break;
      }
    }
    if (int_flag != nullptr) {
      MROAM_ASSIGN_OR_RETURN(int64_t n, ParseInt64(value));
      if (n < int_flag->min || n > int_flag->max) {
        return Status::InvalidArgument(
            "--" + std::string(int_flag->name) + " must lie in [" +
            std::to_string(int_flag->min) + ", " +
            std::to_string(int_flag->max) + "], got " + value);
      }
      *int_flag->out = static_cast<int>(n);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--once") {
      options->once = true;
    } else if (arg == "--mmap") {
      options->mmap = true;
    } else if (ParseFlag(argc, argv, &i, "snapshot", &options->snapshot) ||
               ParseFlag(argc, argv, &i, "save-snapshot",
                         &options->save_snapshot) ||
               ParseFlag(argc, argv, &i, "gen", &options->gen)) {
      // handled
    } else if (ParseFlag(argc, argv, &i, "policy", &value)) {
      MROAM_ASSIGN_OR_RETURN(options->policy, PolicyFromName(value));
    } else if (ParseFlag(argc, argv, &i, "method", &value)) {
      MROAM_ASSIGN_OR_RETURN(options->method, MethodFromName(value));
    } else if (ParseFlag(argc, argv, &i, "lambda", &value)) {
      MROAM_ASSIGN_OR_RETURN(options->lambda, ParseDouble(value));
      if (!std::isfinite(options->lambda) || options->lambda <= 0.0) {
        return Status::InvalidArgument(
            "--lambda must be a finite number > 0, got " + value);
      }
    } else if (ParseFlag(argc, argv, &i, "seed", &value)) {
      MROAM_ASSIGN_OR_RETURN(int64_t n, ParseInt64(value));
      options->seed = static_cast<uint64_t>(n);
    } else if (ParseFlag(argc, argv, &i, "batch-delay-ms", &value)) {
      MROAM_ASSIGN_OR_RETURN(options->batch_delay_ms, ParseDouble(value));
      if (!std::isfinite(options->batch_delay_ms) ||
          options->batch_delay_ms < 0.0) {
        return Status::InvalidArgument(
            "--batch-delay-ms must be a finite number >= 0, got " + value);
      }
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (options->degraded_watermark > options->max_queue) {
    return Status::InvalidArgument(
        "--degraded-watermark (" +
        std::to_string(options->degraded_watermark) +
        ") must not exceed --max-queue (" +
        std::to_string(options->max_queue) + ")");
  }
  if (options->snapshot.empty() == options->gen.empty()) {
    return Status::InvalidArgument(
        "exactly one of --snapshot and --gen is required");
  }
  if (options->mmap && options->snapshot.empty()) {
    return Status::InvalidArgument("--mmap requires --snapshot");
  }
  if (!options->gen.empty() && options->gen != "nyc" &&
      options->gen != "sg") {
    return Status::InvalidArgument("--gen must be nyc or sg, got '" +
                                   options->gen + "'");
  }
  return Status::Ok();
}

/// Boots the index (and the book) per the chosen path. On the snapshot
/// path no index build runs: that is the cold-start guarantee. A --gen
/// boot writes --save-snapshot here, while it holds the dataset, and drops
/// the dataset on return.
Status Boot(const Options& options, mroam::io::IndexSnapshot* booted) {
  mroam::common::Stopwatch watch;
  if (!options.snapshot.empty()) {
    MROAM_ASSIGN_OR_RETURN(*booted,
                           mroam::io::LoadIndexSnapshot(options.snapshot));
    MROAM_LOG(Info) << "cold start from " << options.snapshot << ": "
                    << booted->index.num_billboards() << " billboards, "
                    << booted->index.num_trajectories()
                    << " trajectories, supply "
                    << booted->index.TotalSupply() << " in "
                    << watch.ElapsedSeconds() << "s (no index build)";
    return Status::Ok();
  }

  mroam::common::Rng rng(options.seed);
  mroam::model::Dataset dataset;
  if (options.gen == "nyc") {
    mroam::gen::NycLikeConfig config;
    config.num_billboards = options.gen_billboards;
    config.num_trajectories = options.gen_trajectories;
    dataset = mroam::gen::GenerateNycLike(config, &rng);
  } else {
    mroam::gen::SgLikeConfig config;
    config.num_billboards = options.gen_billboards;
    config.num_trajectories = options.gen_trajectories;
    dataset = mroam::gen::GenerateSgLike(config, &rng);
  }
  booted->index =
      mroam::influence::InfluenceIndex::Build(dataset, options.lambda);
  MROAM_LOG(Info) << "generated " << dataset.name << " and built "
                  << "the index in " << watch.ElapsedSeconds() << "s";
  if (options.save_snapshot.empty()) return Status::Ok();
  return mroam::io::SaveIndexSnapshot(options.save_snapshot, dataset,
                                      booted->index, booted->book);
}

int Run(const Options& options) {
  // Exactly one of the two boot forms owns the index: `mapped` keeps a
  // borrowed-postings index alive over the mmap for the whole serving
  // lifetime, `booted` holds a decoded or built index.
  mroam::io::IndexSnapshot booted;
  std::optional<mroam::io::MappedSnapshot> mapped;
  const mroam::influence::InfluenceIndex* index = nullptr;
  const mroam::market::ContractBook* book = nullptr;
  Status status = Status::Ok();
  if (options.mmap) {
    mroam::common::Stopwatch watch;
    auto result = mroam::io::MappedSnapshot::Map(options.snapshot);
    if (!result.ok()) {
      MROAM_LOG(Error) << "snapshot map failed (" << options.snapshot
                       << "): " << result.status().ToString()
                       << " — exiting with status "
                       << kExitSnapshotLoadFailed
                       << " (redeploy or regenerate the snapshot)";
      return kExitSnapshotLoadFailed;
    }
    mapped.emplace(std::move(*result));
    index = &mapped->index();
    book = &mapped->book();
    MROAM_LOG(Info) << "zero-copy cold start from " << options.snapshot
                    << ": " << index->num_billboards() << " billboards, "
                    << index->num_trajectories() << " trajectories, supply "
                    << index->TotalSupply() << " served from a "
                    << mapped->file_bytes() << "-byte mapping in "
                    << watch.ElapsedSeconds() << "s (no decode)";
  } else {
    status = Boot(options, &booted);
    if (!status.ok()) {
      if (!options.snapshot.empty()) {
        MROAM_LOG(Error) << "snapshot load failed (" << options.snapshot
                         << "): " << status.ToString()
                         << " — exiting with status "
                         << kExitSnapshotLoadFailed
                         << " (redeploy or regenerate the snapshot)";
        return kExitSnapshotLoadFailed;
      }
      MROAM_LOG(Error) << "boot failed: " << status.ToString();
      return 1;
    }
    index = &booted.index;
    book = &booted.book;
  }

  if (!options.save_snapshot.empty() && !options.snapshot.empty()) {
    // A snapshot boot holds no dataset: its save copies the boot file.
    status = mroam::io::ResaveIndexSnapshot(
        options.snapshot, options.save_snapshot, *index, *book);
    if (!status.ok()) {
      MROAM_LOG(Error) << "snapshot save failed: " << status.ToString();
      return 1;
    }
  }

  mroam::serve::MarketServerConfig config;
  config.port = options.port;
  config.num_threads = options.threads;
  config.max_batch = options.batch_max;
  config.max_batch_delay_seconds = options.batch_delay_ms / 1000.0;
  config.read_idle_timeout_ms = options.read_idle_timeout_ms;
  config.request_timeout_ms = options.request_timeout_ms;
  config.write_timeout_ms = options.write_timeout_ms;
  config.max_connections = options.max_connections;
  config.max_queue = options.max_queue;
  config.degraded_watermark = options.degraded_watermark;
  config.ticket_history = options.ticket_history;
  config.market.contract_duration_days = options.duration_days;
  config.market.policy = options.policy;
  config.market.solver.method = options.method;
  config.market.solver.seed = options.seed;
  config.initial_book = *book;

  mroam::serve::MarketServer server(index, config);
  status = server.Start();
  if (!status.ok()) {
    MROAM_LOG(Error) << "server start failed: " << status.ToString();
    return 1;
  }
  // The line tools grep for ("listening on ...").
  std::printf("mroam_serve listening on port %d\n", server.port());
  std::fflush(stdout);

  if (!options.once) {
    // Block signals in every thread the server spawns from here on would
    // inherit the mask anyway; we blocked before Start() in main(), so a
    // plain sigwait here owns delivery of SIGTERM/SIGINT.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    int sig = 0;
    sigwait(&set, &sig);
    MROAM_LOG(Info) << "received " << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                    << ", draining";
  }

  server.Stop();
  if (!options.save_snapshot.empty()) {
    // Persist the drained book so the next boot resumes this market
    // (every queued arrival has flushed by now, so the book is final):
    // a copy of the snapshot saved at boot, with this book.
    status = mroam::io::ResaveIndexSnapshot(options.save_snapshot,
                                            options.save_snapshot, *index,
                                            server.ExportBook());
    if (!status.ok()) {
      MROAM_LOG(Error) << "drain-time snapshot save failed: "
                       << status.ToString();
    }
  }
  MROAM_LOG(Info) << "drained after " << server.batches_flushed()
                  << " admission batches; metrics snapshot:\n"
                  << mroam::obs::MetricsRegistry::Global()
                         .Snapshot()
                         .ToPrometheus();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Block SIGTERM/SIGINT before any thread exists so every thread
  // inherits the mask and sigwait in Run() is the sole consumer. SIGPIPE
  // is ignored outright: a client hanging up mid-response must not kill
  // the server (WriteAll also passes MSG_NOSIGNAL, this is belt and
  // braces for the non-send paths).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  signal(SIGPIPE, SIG_IGN);
  // Fatal signals dump the flight recorder + metrics snapshot to
  // mroam_crash_report.json (override with MROAM_CRASH_REPORT) before
  // re-raising, so a wedged or crashed server leaves a post-mortem.
  mroam::obs::InstallCrashHandler();

  Options options;
  Status status = ParseOptions(argc, argv, &options);
  if (!status.ok()) {
    std::fprintf(stderr, "mroam_serve: %s\n",
                 std::string(status.message()).c_str());
    PrintUsage();
    return 2;
  }
  return Run(options);
}
