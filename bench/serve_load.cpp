// Load generator for the market serving layer.
//
// Boots an in-process MarketServer over a generated city, then drives it
// with N client threads submitting POST /contracts over persistent
// (keep-alive) connections. Admission is asynchronous: a submission is
// answered 202 with a ticket immediately, and the client polls
// GET /tickets/<id> on the same connection until the group commit
// publishes the outcome — a submission's latency is POST to committed,
// so it includes queueing + the batch's AdvanceDay. Writes
// BENCH_serve.json: commit latency percentiles (p50/p95/p99), per-stage
// latency percentiles (stage_queue_wait/replan/respond/read
// _ms_p50/p95/p99, from the server's serve.stage.* histograms),
// throughput, and batch statistics.
//
// Every phase replans with the lock-existing policy and G-Global, the
// cheapest replan, so its gates measure the serve path rather than the
// solver; contractbench's market_mixed gates the server's default
// incremental configuration.
//
// The overload sweep (--skip-overload drops it) drives a burst at a
// deliberately tiny admission queue plus two slow-loris probes, and
// records how the overload contract held (DESIGN.md §6.2): every request
// resolves as accepted/shed/error, exactly max_queue acceptances commit
// through the drain, the queue never exceeds max_queue, 429s carry
// Retry-After, and the probes get 408. The overload_*-mismatch counters
// are deterministic zeros gated by check_serve_overload_regression.
//
// The open-loop arrival-rate sweep (--skip-openloop drops it) runs a
// keep-alive client pool against an uncapped admission queue at a
// ladder of target arrival rates (requests are scheduled by the clock,
// not by completions) and reports the peak accepted submission rate;
// check_serve_openloop_regression gates a generous floor on it.
//
//   serve_load [--submissions N] [--clients N]
//              [--batch-max N] [--batch-delay-ms F]
//              [--skip-overload] [--skip-openloop]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/daily_market.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "market/workload.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/market_server.h"

namespace mroam::bench {
namespace {

struct LoadOptions {
  int submissions = 1200;
  int clients = 8;
  int batch_max = 64;
  double batch_delay_ms = 5.0;
  /// Skip the overload-contract sweep.
  bool skip_overload = false;
  /// Skip the open-loop arrival-rate sweep.
  bool skip_openloop = false;
};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  rank = std::min(rank, sorted.size() - 1);
  return sorted[rank];
}

/// Raw TCP connect to 127.0.0.1:port — for the slow-loris probes, which
/// misbehave in ways HttpFetch cannot.
int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string RecvAll(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// Overload sweep: an admission queue that can only drain on Stop()
/// (the batch never fills, the delay never expires inside the sweep
/// window) makes the outcome split machine-independent — exactly
/// max_queue submissions are accepted with 202 and commit through the
/// drain's final replan, every other submission sheds with 429 +
/// Retry-After, and the two slow-loris probes trip the read deadline.
/// Each invariant's violation count is reported as an overload_* number
/// for the regression gate; all must be exactly zero on any machine.
bool RunOverloadSweep(const influence::InfluenceIndex& index,
                      ReportWriter* report) {
  serve::MarketServerConfig config;
  config.port = 0;
  config.num_threads = 8;
  config.max_batch = 1000;            // never fills during the sweep
  config.max_batch_delay_seconds = 60.0;  // never expires during the sweep
  config.max_queue = 12;
  config.degraded_watermark = 6;
  config.read_idle_timeout_ms = 60;   // what the loris probes trip
  config.request_timeout_ms = 5000;
  config.market.policy = core::ReplanPolicy::kLockExisting;
  config.market.solver.method = core::Method::kGGlobal;

  serve::MarketServer server(&index, config);
  common::Status started = server.Start();
  if (!started.ok()) {
    MROAM_LOG(Error) << "overload sweep server start failed: "
                     << started.ToString();
    return false;
  }
  const int port = server.port();

  common::Rng rng(29);
  market::WorkloadConfig workload;
  workload.avg_individual_demand_ratio = 0.01;
  auto advertisers =
      market::GenerateAdvertisers(index.TotalSupply(), workload, &rng);
  if (!advertisers.ok()) {
    MROAM_LOG(Error) << advertisers.status().ToString();
    return false;
  }

  auto wall_start = std::chrono::steady_clock::now();

  // Two slow-loris probes: partial head, then stall until the server's
  // idle deadline answers 408 and reclaims the worker.
  std::atomic<int> loris_408{0};
  std::vector<std::thread> probes;
  for (int i = 0; i < 2; ++i) {
    probes.emplace_back([&] {
      int fd = ConnectTo(port);
      if (fd < 0) return;
      (void)serve::WriteAll(fd, "POST /contracts HTTP/1.1\r\n");
      std::string response = RecvAll(fd);
      ::close(fd);
      if (response.rfind("HTTP/1.1 408", 0) == 0) loris_408.fetch_add(1);
    });
  }

  // The burst: one shot per millisecond, no waiting for completions —
  // arrival rate is set by the clock, not the server. Submissions are
  // answered immediately (202 accepted or 429 shed); the accepted
  // tickets park in the queue until the drain's group commit.
  constexpr int kRequests = 240;
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<int> errors{0};
  std::atomic<int> retry_after_missing{0};
  std::mutex tickets_mu;
  std::vector<int64_t> tickets;
  std::vector<std::thread> shots;
  shots.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    shots.emplace_back([&, i] {
      const market::Advertiser& terms =
          (*advertisers)[static_cast<size_t>(i) % advertisers->size()];
      std::string body =
          "{\"demand\": " + std::to_string(terms.demand) +
          ", \"payment\": " + common::FormatDouble(terms.payment, 3) + "}";
      auto response =
          serve::HttpFetch("127.0.0.1", port, "POST", "/contracts", body);
      if (!response.ok()) {
        errors.fetch_add(1);
      } else if (response->status == 202) {
        accepted.fetch_add(1);
        auto ticket = serve::ExtractJsonNumber(response->body, "ticket");
        if (ticket.ok()) {
          std::lock_guard<std::mutex> lock(tickets_mu);
          tickets.push_back(static_cast<int64_t>(*ticket));
        }
      } else if (response->status == 429) {
        shed.fetch_add(1);
        auto retry_after =
            common::ParseInt64(response->HeaderOr("retry-after"));
        if (!retry_after.ok() || *retry_after < 1 || *retry_after > 60) {
          retry_after_missing.fetch_add(1);
        }
      } else {
        errors.fetch_add(1);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : shots) t.join();
  for (std::thread& t : probes) t.join();

  // Sample the peak queue depth before the drain releases it.
  int64_t max_depth_observed = 0;
  {
    auto report_fetch =
        serve::HttpFetch("127.0.0.1", port, "GET", "/report");
    if (report_fetch.ok()) {
      auto parsed =
          serve::ExtractJsonNumber(report_fetch->body, "queue_depth");
      if (parsed.ok()) max_depth_observed = static_cast<int64_t>(*parsed);
    }
  }
  // Stop() drains: the parked submissions commit through a final replan;
  // the ticket table outlives the sockets, so every acceptance is
  // verifiable afterwards.
  server.Stop();
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  int committed_verified = 0;
  for (int64_t ticket : tickets) {
    if (server.TicketStatus(ticket) ==
        serve::MarketServer::TicketState::kCommitted) {
      ++committed_verified;
    }
  }

  const int resolved = accepted.load() + shed.load() + errors.load();
  const int64_t unresolved = kRequests - resolved;
  const int64_t queue_overrun =
      std::max<int64_t>(0, max_depth_observed - config.max_queue);
  // Both halves of the acceptance contract: exactly max_queue 202s, and
  // every one of them committed by the drain.
  const int64_t commit_mismatch =
      std::abs(committed_verified - config.max_queue) +
      std::abs(accepted.load() - committed_verified);
  const int64_t shed_mismatch =
      std::abs(shed.load() - (kRequests - config.max_queue));
  const int64_t loris_missed = 2 - loris_408.load();
  const int64_t read_timeout_mismatch =
      std::abs(server.read_timeouts() - 2);

  report->AddNumber("overload_requests", kRequests);
  report->AddNumber("overload_accepted", accepted.load());
  report->AddNumber("overload_committed", committed_verified);
  report->AddNumber("overload_shed", shed.load());
  report->AddNumber("overload_shed_rate",
                    static_cast<double>(shed.load()) / kRequests);
  report->AddNumber("overload_errors", errors.load());
  report->AddNumber("overload_read_timeouts",
                    static_cast<double>(server.read_timeouts()));
  report->AddNumber("overload_max_queue_depth",
                    static_cast<double>(max_depth_observed));
  report->AddNumber("overload_wall_seconds", wall_seconds);
  // The gated invariants — deterministic zeros on any machine.
  report->AddNumber("overload_unresolved",
                    static_cast<double>(unresolved));
  report->AddNumber("overload_queue_overrun",
                    static_cast<double>(queue_overrun));
  report->AddNumber("overload_commit_mismatch",
                    static_cast<double>(commit_mismatch));
  report->AddNumber("overload_shed_mismatch",
                    static_cast<double>(shed_mismatch));
  report->AddNumber("overload_retry_after_missing",
                    retry_after_missing.load());
  report->AddNumber("overload_loris_missed",
                    static_cast<double>(loris_missed));
  report->AddNumber("overload_read_timeout_mismatch",
                    static_cast<double>(read_timeout_mismatch));

  std::printf(
      "overload_sweep: %d accepted (%d committed) / %d shed / %d errors of "
      "%d in %.2fs (shed rate %.2f), max queue depth %lld/%d, "
      "%d/2 loris 408s\n",
      accepted.load(), committed_verified, shed.load(), errors.load(),
      kRequests, wall_seconds,
      static_cast<double>(shed.load()) / kRequests,
      static_cast<long long>(max_depth_observed), config.max_queue,
      loris_408.load());
  return true;
}

/// Open-loop arrival-rate sweep: a pool of keep-alive clients fires
/// submissions on a clock-driven schedule (an open loop — the next shot's
/// time does not depend on the previous shot's completion) at a ladder of
/// target rates against an effectively uncapped admission queue, and
/// reports the peak rate at which every submission was accepted with 202.
/// The gate (check_serve_openloop_regression) holds a generous floor well
/// under what any development machine sustains, plus exact zeros on the
/// error counters.
bool RunOpenLoopSweep(const influence::InfluenceIndex& index,
                      ReportWriter* report) {
  serve::MarketServerConfig config;
  config.port = 0;
  config.num_threads = 8;
  config.max_batch = 512;
  config.max_batch_delay_seconds = 0.002;
  config.max_queue = 1 << 20;              // effectively uncapped
  config.degraded_watermark = 1 << 20;
  config.market.policy = core::ReplanPolicy::kLockExisting;
  config.market.solver.method = core::Method::kGGlobal;
  // Short contracts keep the active set — and thus each group commit's
  // replan — bounded while tens of thousands of submissions stream in.
  config.market.contract_duration_days = 2;

  serve::MarketServer server(&index, config);
  common::Status started = server.Start();
  if (!started.ok()) {
    MROAM_LOG(Error) << "openloop sweep server start failed: "
                     << started.ToString();
    return false;
  }
  const int port = server.port();

  common::Rng rng(31);
  market::WorkloadConfig workload;
  workload.avg_individual_demand_ratio = 0.01;
  auto advertisers =
      market::GenerateAdvertisers(index.TotalSupply(), workload, &rng);
  if (!advertisers.ok()) {
    MROAM_LOG(Error) << advertisers.status().ToString();
    return false;
  }

  constexpr int kClients = 8;
  constexpr double kWindowSeconds = 0.4;
  const std::vector<int> rates = {2000, 6000, 12000, 24000};

  // Persistent connections for the whole sweep: the pool is created once
  // and each client reconnects only if the server closed on it.
  std::vector<serve::HttpClient> pool(kClients);

  double peak_accepted_per_second = 0.0;
  int64_t total_accepted = 0;
  int64_t total_errors = 0;
  int64_t reconnects = 0;
  std::string ladder_summary;
  for (int rate : rates) {
    std::atomic<int> window_accepted{0};
    std::atomic<int> window_errors{0};
    std::atomic<int> window_reconnects{0};
    auto window_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        serve::HttpClient& client = pool[static_cast<size_t>(c)];
        // Each client owns every kClients-th slot of the arrival
        // schedule; shots fire at their scheduled absolute time (or
        // immediately when behind — open loop, clock-driven).
        const double interval_s = static_cast<double>(kClients) / rate;
        const int shots =
            static_cast<int>(kWindowSeconds / interval_s) + 1;
        for (int s = 0; s < shots; ++s) {
          auto due = window_start +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(s * interval_s));
          std::this_thread::sleep_until(due);
          if (!client.connected()) {
            window_reconnects.fetch_add(1);
            if (!client.Connect("127.0.0.1", port).ok()) {
              window_errors.fetch_add(1);
              continue;
            }
          }
          const market::Advertiser& terms =
              (*advertisers)[static_cast<size_t>(c + s * kClients) %
                             advertisers->size()];
          std::string body =
              "{\"demand\": " + std::to_string(terms.demand) +
              ", \"payment\": " + common::FormatDouble(terms.payment, 3) +
              "}";
          auto response = client.Fetch("POST", "/contracts", body);
          if (response.ok() && response->status == 202) {
            window_accepted.fetch_add(1);
          } else {
            window_errors.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double window_wall = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - window_start)
                             .count();
    const double accepted_per_second =
        window_wall > 0.0 ? window_accepted.load() / window_wall : 0.0;
    peak_accepted_per_second =
        std::max(peak_accepted_per_second, accepted_per_second);
    total_accepted += window_accepted.load();
    total_errors += window_errors.load();
    reconnects += window_reconnects.load();
    char line[96];
    std::snprintf(line, sizeof(line), " %d/s->%.0f/s", rate,
                  accepted_per_second);
    ladder_summary += line;

    // Let the admission queue drain between windows so each rate step
    // starts from an empty queue.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto report_fetch =
          serve::HttpFetch("127.0.0.1", port, "GET", "/report");
      if (report_fetch.ok()) {
        auto depth =
            serve::ExtractJsonNumber(report_fetch->body, "queue_depth");
        if (depth.ok() && *depth == 0.0) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (serve::HttpClient& client : pool) client.Close();
  server.Stop();

  // Generous floor: the acceptance bar is 10k submissions/s on a dev
  // machine; the gate only guards against an order-of-magnitude collapse
  // (e.g. keep-alive silently regressing to connection-per-request).
  constexpr double kFloorPerSecond = 2500.0;
  const double floor_shortfall =
      std::max(0.0, kFloorPerSecond - peak_accepted_per_second);

  report->AddNumber("openloop_clients", kClients);
  report->AddNumber("openloop_total_accepted",
                    static_cast<double>(total_accepted));
  report->AddNumber("openloop_peak_accepted_per_second",
                    peak_accepted_per_second);
  report->AddNumber("openloop_reconnects", static_cast<double>(reconnects));
  // The gated invariants — exact zeros.
  report->AddNumber("openloop_errors", static_cast<double>(total_errors));
  report->AddNumber("openloop_floor_shortfall", floor_shortfall);

  std::printf(
      "openloop_sweep: peak %.0f accepted/s (%lld total, %lld errors, "
      "%lld reconnects), ladder%s\n",
      peak_accepted_per_second, static_cast<long long>(total_accepted),
      static_cast<long long>(total_errors),
      static_cast<long long>(reconnects), ladder_summary.c_str());
  return true;
}

int Run(const LoadOptions& options) {
  // A mid-size city: big enough that replanning does real work, small
  // enough that the bench finishes on a laptop budget.
  gen::NycLikeConfig city_config;
  city_config.num_billboards = 300;
  city_config.num_trajectories = 10000;
  common::Rng rng(17);
  model::Dataset dataset = gen::GenerateNycLike(city_config, &rng);
  influence::InfluenceIndex index =
      influence::InfluenceIndex::Build(dataset, 100.0);

  serve::MarketServerConfig config;
  config.port = 0;
  config.num_threads = options.clients;
  config.max_batch = options.batch_max;
  config.max_batch_delay_seconds = options.batch_delay_ms / 1000.0;
  config.market.policy = core::ReplanPolicy::kLockExisting;
  config.market.solver.method = core::Method::kGGlobal;
  // Contracts churn: a short term keeps the active set (and thus replan
  // cost) bounded as thousands of submissions stream through.
  config.market.contract_duration_days = 25;

  serve::MarketServer server(&index, config);
  common::Status started = server.Start();
  if (!started.ok()) {
    MROAM_LOG(Error) << "server start failed: " << started.ToString();
    return 1;
  }
  const int port = server.port();

  // Per-submission demand/payment terms follow the paper's workload
  // shape: small individual demands against the city's supply.
  market::WorkloadConfig workload;
  workload.avg_individual_demand_ratio = 0.01;
  auto advertisers =
      market::GenerateAdvertisers(index.TotalSupply(), workload, &rng);
  if (!advertisers.ok()) {
    MROAM_LOG(Error) << advertisers.status().ToString();
    return 1;
  }

  std::atomic<int> next_submission{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> error_count{0};
  std::vector<std::vector<double>> latencies_ms(
      static_cast<size_t>(options.clients));

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      latencies_ms[c].reserve(
          static_cast<size_t>(options.submissions / options.clients + 1));
      // One persistent keep-alive connection per client thread; the POST
      // and its commit polls share it.
      serve::HttpClient client;
      while (true) {
        int seq = next_submission.fetch_add(1);
        if (seq >= options.submissions) break;
        const market::Advertiser& terms =
            (*advertisers)[static_cast<size_t>(seq) % advertisers->size()];
        std::string body =
            "{\"demand\": " + std::to_string(terms.demand) +
            ", \"payment\": " + common::FormatDouble(terms.payment, 3) +
            "}";
        auto t0 = std::chrono::steady_clock::now();
        if (!client.connected() &&
            !client.Connect("127.0.0.1", port).ok()) {
          error_count.fetch_add(1);
          continue;
        }
        auto response = client.Fetch("POST", "/contracts", body);
        if (!response.ok() || response->status != 202) {
          error_count.fetch_add(1);
          continue;
        }
        auto ticket = serve::ExtractJsonNumber(response->body, "ticket");
        if (!ticket.ok()) {
          error_count.fetch_add(1);
          continue;
        }
        // A submission completes when its group commit publishes the
        // outcome: poll the ticket on the same connection until the
        // status flips to committed. Latency is POST to committed.
        const std::string ticket_path =
            "/tickets/" + std::to_string(static_cast<int64_t>(*ticket));
        bool committed = false;
        for (int poll = 0; poll < 20000 && !committed; ++poll) {
          if (!client.connected() &&
              !client.Connect("127.0.0.1", port).ok()) {
            break;
          }
          auto status = client.Fetch("GET", ticket_path);
          if (!status.ok() || status->status != 200) break;
          committed =
              status->body.find("\"status\":\"committed\"") !=
              std::string::npos;
          if (!committed) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
        auto t1 = std::chrono::steady_clock::now();
        if (committed) {
          ok_count.fetch_add(1);
          latencies_ms[c].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  server.Stop();

  std::vector<double> all;
  for (const auto& per_client : latencies_ms) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  double sum = 0.0;
  for (double v : all) sum += v;

  ReportWriter report("serve");
  report.SetDataset(dataset, index);
  report.AddNote("policy", core::ReplanPolicyName(config.market.policy));
  report.AddNumber("clients", options.clients);
  report.AddNumber("batch_max", options.batch_max);
  report.AddNumber("batch_delay_ms", options.batch_delay_ms);
  report.AddNumber("submissions", options.submissions);
  report.AddNumber("submissions_ok", ok_count.load());
  report.AddNumber("submissions_failed", error_count.load());
  report.AddNumber("wall_seconds", wall_seconds);
  report.AddNumber("throughput_per_second",
                   static_cast<double>(ok_count.load()) / wall_seconds);
  report.AddNumber("batches_flushed",
                   static_cast<double>(server.batches_flushed()));
  report.AddNumber("latency_ms_mean",
                   all.empty() ? 0.0 : sum / static_cast<double>(all.size()));
  report.AddNumber("latency_ms_p50", Percentile(all, 0.50));
  report.AddNumber("latency_ms_p95", Percentile(all, 0.95));
  report.AddNumber("latency_ms_p99", Percentile(all, 0.99));
  report.AddNumber("latency_ms_max", all.empty() ? 0.0 : all.back());

  // Per-stage latency percentiles, estimated from the server's stage
  // histograms (the ticket-lifecycle instrumentation in MarketServer):
  // where a submission's wall time went — admission-queue wait, the
  // batch replan, and the post-replan group-commit respond leg.
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().Snapshot();
  struct StageLine {
    const char* key;     // field prefix in the report
    const char* metric;  // histogram name in the registry
  };
  const StageLine stages[] = {
      {"stage_queue_wait", "serve.stage.queue_wait_seconds"},
      {"stage_replan", "serve.stage.replan_seconds"},
      {"stage_respond", "serve.stage.respond_seconds"},
      {"stage_read", "serve.stage.read_seconds"},
  };
  std::string stage_summary;
  for (const StageLine& stage : stages) {
    const obs::MetricsSnapshot::HistogramValue* h =
        metrics.FindHistogram(stage.metric);
    const double p50 = h ? h->Quantile(0.50) * 1e3 : 0.0;
    const double p95 = h ? h->Quantile(0.95) * 1e3 : 0.0;
    const double p99 = h ? h->Quantile(0.99) * 1e3 : 0.0;
    report.AddNumber(std::string(stage.key) + "_ms_p50", p50);
    report.AddNumber(std::string(stage.key) + "_ms_p95", p95);
    report.AddNumber(std::string(stage.key) + "_ms_p99", p99);
    report.AddNumber(std::string(stage.key) + "_count",
                     h ? static_cast<double>(h->count) : 0.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  " %s p50 %.2fms p95 %.2fms p99 %.2fms (n=%lld)",
                  stage.key, p50, p95, p99,
                  static_cast<long long>(h ? h->count : 0));
    stage_summary += line;
  }
  std::printf("serve_load stages:%s\n", stage_summary.c_str());

  // The overload sweep runs AFTER the stage snapshot above: its parked
  // submissions spend the whole sweep in the admission queue, which
  // would otherwise poison the gated queue-wait percentiles.
  if (!options.skip_overload && !RunOverloadSweep(index, &report)) {
    return 1;
  }

  // Open-loop arrival-rate sweep: peak accepted submission rate over a
  // keep-alive client pool (also after the stage snapshot).
  if (!options.skip_openloop && !RunOpenLoopSweep(index, &report)) {
    return 1;
  }

  std::printf(
      "serve_load: %d ok / %d failed in %.2fs (%.0f/s), "
      "p50 %.2fms p95 %.2fms p99 %.2fms over %lld batches\n",
      ok_count.load(), error_count.load(), wall_seconds,
      static_cast<double>(ok_count.load()) / wall_seconds,
      Percentile(all, 0.50), Percentile(all, 0.95), Percentile(all, 0.99),
      static_cast<long long>(server.batches_flushed()));
  common::Status written = report.Write();
  if (!written.ok()) {
    MROAM_LOG(Error) << written.ToString();
    return 1;
  }
  // Sanity floor: the acceptance bar is >= 1k completed submissions.
  if (ok_count.load() < options.submissions) {
    MROAM_LOG(Error) << "dropped submissions: only " << ok_count.load()
                     << " of " << options.submissions << " succeeded";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mroam::bench

int main(int argc, char** argv) {
  mroam::bench::LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--submissions") {
      options.submissions = std::atoi(next());
    } else if (arg == "--clients") {
      options.clients = std::atoi(next());
    } else if (arg == "--batch-max") {
      options.batch_max = std::atoi(next());
    } else if (arg == "--batch-delay-ms") {
      options.batch_delay_ms = std::atof(next());
    } else if (arg == "--skip-overload") {
      options.skip_overload = true;
    } else if (arg == "--skip-openloop") {
      options.skip_openloop = true;
    } else {
      std::fprintf(stderr,
                   "usage: serve_load [--submissions N] [--clients N] "
                   "[--batch-max N] [--batch-delay-ms F] "
                   "[--skip-overload] [--skip-openloop]\n");
      return 2;
    }
  }
  if (options.submissions < 1 || options.clients < 1) {
    std::fprintf(stderr, "submissions and clients must be positive\n");
    return 2;
  }
  return mroam::bench::Run(options);
}
