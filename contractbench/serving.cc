// admit_lock and market_mixed: open-loop HTTP traffic against an
// in-process MarketServer.
//
// Each rung of a fixed rate ladder schedules operations at fixed
// intervals; operation k is due at rung start + k / rate and belongs to
// client thread k mod (client count), each thread owning one keep-alive
// connection. A thread always sends a due operation first; between
// sends it polls its oldest pending ticket every `poll_ms`, which bounds
// the resolution of commit times. Every time is taken from the
// operation's scheduled send time, so a stall delays the requests queued
// behind it.
//
// Refusals (429/503), other error statuses, transport errors and tickets
// that do not commit within `give_up_ms` are failures, and count as
// missing the latency limit. A DELETE answered 404 is a no-op only when
// the contract's term is over: one committed on day d is gone from day
// d + contract_duration_days on, and the client checks that against the
// latest day it has seen, reading GET /report when its own view is
// behind. Any other 404 is a failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/assignment.h"
#include "core/daily_market.h"
#include "serve/http.h"
#include "serve/market_server.h"
#include "workloads.h"

namespace contractbench {

namespace core = mroam::core;
namespace serve = mroam::serve;

namespace {

constexpr int kBoots = 15;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class OpKind { kSubmit, kCancel, kAssignment, kReport };

struct Op {
  OpKind kind = OpKind::kSubmit;
  size_t terms = 0;  ///< index into the run's terms (submits)
};

/// One serving workload: how the server boots and is configured, its
/// rate ladder and operation mix, and its latency limit.
struct ServingSpec {
  bool mapped = false;
  serve::MarketServerConfig config;
  int clients = 4;  ///< client threads, one keep-alive connection each
  std::vector<double> rates;       ///< operations per second
  std::vector<double> rung_share;  ///< share of the run per rung
  size_t reference = 0;            ///< rung whose latencies are reported
  double cancel_share = 0.0;
  double read_share = 0.0;  ///< split evenly between /assignment, /report
  double poll_ms = 1.0;
  double limit_ms = 50.0;  ///< on the commit tail percentile
  double give_up_ms = 10000.0;
};

struct Outcome {
  int64_t ticket = 0;
  size_t terms = 0;
  int64_t day = 0;  ///< the day whose replan committed it
  bool satisfied = false;
  int64_t influence = 0;
};

/// A committed ticket a client may cancel.
struct LiveTicket {
  int64_t ticket = 0;
  int64_t day = 0;
};

/// What a client thread keeps across rungs.
struct ClientState {
  /// Tickets it saw committed and has not cancelled; a cancel withdraws
  /// the newest.
  std::vector<LiveTicket> live;
  int64_t latest_day = 0;  ///< the latest market day it has read
};

/// What one client thread saw during one rung.
struct ClientLog {
  std::vector<double> ack_ms;
  std::vector<double> commit_ms;  ///< failures enter as +infinity
  std::vector<double> read_ms;
  std::vector<double> late_ms;
  std::vector<Outcome> committed;
  std::vector<int64_t> accepted;  ///< tickets answered 202
  int64_t requests = 0;
  int64_t polls = 0;
  int64_t refused = 0;
  int64_t errors = 0;
  int64_t never_committed = 0;
  int64_t cancels = 0;
  int64_t cancel_noops = 0;
  int64_t cancels_skipped = 0;
  double last_commit_ms = 0.0;  ///< since rung start
};

struct Pending {
  int64_t ticket = 0;
  size_t terms = 0;
  Clock::time_point due;
  Clock::time_point next_poll;
};

const serve::HttpTimeouts kTimeouts{5000, 10000};

/// One client thread's share of a rung.
class Client {
 public:
  Client(serve::HttpClient* conn, int port, const ServingSpec& spec,
         const std::vector<mroam::market::Advertiser>& terms,
         ClientState* state)
      : conn_(conn), port_(port), spec_(spec), terms_(terms), state_(state) {}

  void Run(const std::vector<Op>& ops, size_t first, double rate,
           Clock::time_point start, ClientLog* log) {
    log_ = log;
    start_ = start;
    const auto poll_every =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(spec_.poll_ms));
    size_t k = first;
    while (k < ops.size() || !pending_.empty()) {
      const auto now = Clock::now();
      const Clock::time_point due =
          k < ops.size() ? start + Offset(k, rate) : Clock::time_point::max();
      if (due <= now) {
        log_->late_ms.push_back(MsBetween(due, now));
        Send(ops[k], k, due, poll_every);
        k += static_cast<size_t>(spec_.clients);
        continue;
      }
      if (!pending_.empty() && pending_.front().next_poll <= now) {
        Poll(poll_every);
        continue;
      }
      Clock::time_point wake = due;
      if (!pending_.empty()) wake = std::min(wake, pending_.front().next_poll);
      std::this_thread::sleep_until(wake);
    }
  }

 private:
  static Clock::duration Offset(size_t k, double rate) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(k) / rate));
  }

  mroam::common::Result<serve::HttpResponse> Fetch(
      const std::string& method, const std::string& target,
      const std::string& body) {
    ++log_->requests;
    if (!conn_->connected()) {
      mroam::common::Status status = conn_->Connect("127.0.0.1", port_);
      if (!status.ok()) return status;
    }
    auto response = conn_->Fetch(method, target, body, kTimeouts);
    if (!response.ok()) conn_->Close();
    return response;
  }

  void Fail(bool refused) {
    if (refused) {
      ++log_->refused;
    } else {
      ++log_->errors;
    }
  }

  void Send(const Op& op, size_t k, Clock::time_point due,
            Clock::duration poll_every) {
    switch (op.kind) {
      case OpKind::kSubmit: {
        const mroam::market::Advertiser& a = terms_[op.terms];
        char body[128];
        std::snprintf(body, sizeof(body),
                      "{\"demand\": %lld, \"payment\": %.17g}",
                      static_cast<long long>(a.demand), a.payment);
        auto response = [&] {
          LayerSpan span("bench.http.submit", static_cast<int64_t>(k));
          return Fetch("POST", "/contracts", body);
        }();
        const auto now = Clock::now();
        if (!response.ok() || response->status != 202) {
          Fail(response.ok() &&
               (response->status == 429 || response->status == 503));
          log_->commit_ms.push_back(kInf);
          return;
        }
        auto ticket = serve::ExtractJsonNumber(response->body, "ticket");
        if (!ticket.ok()) {
          Fail(false);
          log_->commit_ms.push_back(kInf);
          return;
        }
        log_->ack_ms.push_back(MsBetween(due, now));
        const auto id = static_cast<int64_t>(*ticket);
        log_->accepted.push_back(id);
        pending_.push_back(Pending{id, op.terms, due, now + poll_every});
        return;
      }
      case OpKind::kCancel: {
        if (state_->live.empty()) {
          ++log_->cancels_skipped;
          return;
        }
        const LiveTicket live = state_->live.back();
        state_->live.pop_back();
        auto response = [&] {
          LayerSpan span("bench.http.cancel", live.ticket);
          return Fetch("DELETE", "/contracts/" + std::to_string(live.ticket),
                       "");
        }();
        ++log_->cancels;
        if (response.ok() && response->status == 404) {
          if (Expired(live)) {
            ++log_->cancel_noops;
          } else {
            Fail(false);
          }
        } else if (!response.ok() || response->status != 200) {
          Fail(response.ok() && response->status == 503);
        }
        return;
      }
      case OpKind::kAssignment:
      case OpKind::kReport: {
        const bool assignment = op.kind == OpKind::kAssignment;
        auto response = [&] {
          LayerSpan span(assignment ? "bench.http.assignment"
                                    : "bench.http.report",
                         static_cast<int64_t>(k));
          return Fetch("GET", assignment ? "/assignment" : "/report", "");
        }();
        const auto now = Clock::now();
        if (!response.ok() || response->status != 200) {
          Fail(response.ok() && response->status == 503);
          log_->read_ms.push_back(kInf);
          return;
        }
        log_->read_ms.push_back(MsBetween(due, now));
        return;
      }
    }
  }

  /// Whether a contract this client saw committed had reached the end
  /// of its term. The latest day the client has read decides when it
  /// can; otherwise one GET /report reads the market's current day.
  bool Expired(const LiveTicket& live) {
    if (live.day < 0) return false;  // its outcome carried no day
    const int64_t gone_on =
        live.day + spec_.config.market.contract_duration_days;
    if (gone_on <= state_->latest_day) return true;
    auto report = [&] {
      LayerSpan span("bench.http.report", live.ticket);
      return Fetch("GET", "/report", "");
    }();
    if (report.ok() && report->status == 200) SeeDay(report->body);
    return gone_on <= state_->latest_day;
  }

  void SeeDay(const std::string& body) {
    auto day = serve::ExtractJsonNumber(body, "day");
    if (day.ok()) {
      state_->latest_day =
          std::max(state_->latest_day, static_cast<int64_t>(*day));
    }
  }

  /// Polls the oldest pending ticket. The server commits tickets in
  /// admission order, so while it is pending the newer ones are too:
  /// it is polled again after `poll_every`, and once it resolves the
  /// next one is polled at once (it may have committed in the same batch).
  void Poll(Clock::duration poll_every) {
    Pending p = pending_.front();
    pending_.pop_front();
    if (!PollOnce(p)) {
      p.next_poll = Clock::now() + poll_every;
      pending_.push_front(p);
    } else if (!pending_.empty()) {
      pending_.front().next_poll = Clock::now();
    }
  }

  /// One GET /tickets/<id>; true once the ticket is resolved (committed,
  /// or failed).
  bool PollOnce(const Pending& p) {
    ++log_->polls;
    auto response = [&] {
      LayerSpan span("bench.http.poll", p.ticket);
      return Fetch("GET", "/tickets/" + std::to_string(p.ticket), "");
    }();
    const auto now = Clock::now();
    if (!response.ok() || response->status != 200) {
      Fail(false);
      ++log_->never_committed;
      log_->commit_ms.push_back(kInf);
      return true;
    }
    const std::string& body = response->body;
    if (body.find("\"status\":\"committed\"") != std::string::npos) {
      auto influence = serve::ExtractJsonNumber(body, "influence");
      auto day = serve::ExtractJsonNumber(body, "day");
      Outcome outcome;
      outcome.ticket = p.ticket;
      outcome.terms = p.terms;
      outcome.day = day.ok() ? static_cast<int64_t>(*day) : -1;
      outcome.satisfied = body.find("\"satisfied\":true") != std::string::npos;
      outcome.influence =
          influence.ok() ? static_cast<int64_t>(*influence) : -1;
      log_->committed.push_back(outcome);
      log_->commit_ms.push_back(MsBetween(p.due, now));
      log_->last_commit_ms = MsBetween(start_, now);
      SeeDay(body);
      state_->live.push_back(LiveTicket{p.ticket, outcome.day});
      return true;
    }
    if (MsBetween(p.due, now) > spec_.give_up_ms) {
      Fail(false);
      ++log_->never_committed;
      log_->commit_ms.push_back(kInf);
      return true;
    }
    return false;
  }

  serve::HttpClient* conn_;
  int port_;
  const ServingSpec& spec_;
  const std::vector<mroam::market::Advertiser>& terms_;
  ClientState* state_;
  ClientLog* log_ = nullptr;
  Clock::time_point start_;
  /// Accepted tickets awaiting commit, oldest first; only the front's
  /// next_poll is live.
  std::deque<Pending> pending_;
};

ClientLog Merge(std::vector<ClientLog> logs) {
  ClientLog all;
  for (ClientLog& log : logs) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&all.ack_ms, log.ack_ms);
    append(&all.commit_ms, log.commit_ms);
    append(&all.read_ms, log.read_ms);
    append(&all.late_ms, log.late_ms);
    all.committed.insert(all.committed.end(), log.committed.begin(),
                         log.committed.end());
    all.accepted.insert(all.accepted.end(), log.accepted.begin(),
                        log.accepted.end());
    all.requests += log.requests;
    all.polls += log.polls;
    all.refused += log.refused;
    all.errors += log.errors;
    all.never_committed += log.never_committed;
    all.cancels += log.cancels;
    all.cancel_noops += log.cancel_noops;
    all.cancels_skipped += log.cancels_skipped;
    all.last_commit_ms = std::max(all.last_commit_ms, log.last_commit_ms);
  }
  return all;
}

double HistogramMs(const mroam::obs::MetricsSnapshot& delta,
                   const std::string& name, double q, int64_t* count) {
  const auto* histogram = delta.FindHistogram(name);
  *count = histogram != nullptr ? histogram->count : 0;
  return histogram != nullptr ? histogram->Quantile(q) * 1e3 : 0.0;
}

void RunServing(const RunOptions& options, const ServingSpec& spec,
                Sheet* sheet) {
  // Boot: snapshot load or map plus MarketServer::Start, several times;
  // the last boot serves the traffic.
  std::vector<double> boot_s;
  double rss_mb = 0.0;
  Boot boot;
  std::unique_ptr<serve::MarketServer> server;
  for (int k = 0; k < kBoots; ++k) {
    server.reset();
    boot = Boot{};
    const double rss_before = RssMiB();
    const auto start = Clock::now();
    {
      LayerSpan span(spec.mapped ? "bench.io.map" : "bench.io.load", k);
      boot = BootSnapshot(options.snapshot, spec.mapped);
    }
    {
      LayerSpan span("bench.serve.start", k);
      server = std::make_unique<serve::MarketServer>(boot.index, spec.config);
      mroam::common::Status started = server->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "contract_bench: server start failed: %s\n",
                     started.ToString().c_str());
        std::exit(1);
      }
    }
    boot_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    if (k == 0) rss_mb = RssMiB() - rss_before;
  }
  sheet->Add("setup_s", Median(boot_s), "s", kBoots);
  sheet->Add("setup_rss_mb", rss_mb, "MiB", 1);
  const mroam::influence::InfluenceIndex& index = *boot.index;
  const int port = server->port();

  // The schedule: every rung's operations, drawn from the seed.
  mroam::common::Rng mix_rng(options.seed ^ 0x6d6978ULL);
  std::vector<std::vector<Op>> rungs(spec.rates.size());
  size_t submits = 0;
  for (size_t r = 0; r < spec.rates.size(); ++r) {
    const auto count = static_cast<size_t>(
        std::max(1.0, std::round(spec.rates[r] * spec.rung_share[r] *
                                 options.seconds)));
    for (size_t k = 0; k < count; ++k) {
      const double u = mix_rng.UniformDouble();
      Op op;
      if (u < spec.read_share / 2) {
        op.kind = OpKind::kAssignment;
      } else if (u < spec.read_share) {
        op.kind = OpKind::kReport;
      } else if (u < spec.read_share + spec.cancel_share) {
        op.kind = OpKind::kCancel;
      } else {
        op.kind = OpKind::kSubmit;
        op.terms = submits++;
      }
      rungs[r].push_back(op);
    }
  }
  mroam::common::Rng terms_rng(options.seed ^ 0x7465726d73ULL);
  const std::vector<mroam::market::Advertiser> terms =
      GenerateTerms(index, static_cast<int64_t>(submits), &terms_rng);

  const auto clients = static_cast<size_t>(spec.clients);
  std::vector<serve::HttpClient> conns(clients);
  std::vector<ClientState> state(clients);
  ClientLog total;
  ClientLog reference;
  mroam::obs::MetricsSnapshot reference_delta;
  double reference_wall_ms = 0.0;
  double max_rate = 0.0;
  // The generator fell behind when its own lateness takes half the
  // latency budget (on a 4-vCPU VM, timer wakeups alone reach ~7 ms at
  // p99).
  const double late_limit_ms = 0.5 * spec.limit_ms;
  std::fprintf(stderr,
               "rung  rate/s   ops  failed  commit_ms_p99  drain_ms  "
               "late_ms_p99  verdict\n");
  for (size_t r = 0; r < spec.rates.size(); ++r) {
    const mroam::obs::MetricsSnapshot before =
        mroam::obs::MetricsRegistry::Global().Snapshot();
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<ClientLog> logs(clients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client client(&conns[c], port, spec, terms, &state[c]);
        client.Run(rungs[r], c, spec.rates[r], start, &logs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = MsBetween(start, Clock::now());
    const mroam::obs::MetricsSnapshot after =
        mroam::obs::MetricsRegistry::Global().Snapshot();
    ClientLog rung = Merge(std::move(logs));

    const int64_t failed = rung.refused + rung.errors;
    const double tail = Quantile(rung.commit_ms, 0.99);
    const double last_due_ms =
        1e3 * static_cast<double>(rungs[r].size() - 1) / spec.rates[r];
    const double drain_ms = std::max(0.0, rung.last_commit_ms - last_due_ms);
    const double late_p99 = Quantile(rung.late_ms, 0.99);
    const bool valid = late_p99 <= late_limit_ms;
    const bool passed = failed == 0 && tail <= spec.limit_ms &&
                        drain_ms <= spec.limit_ms && valid;
    if (passed && spec.rates[r] > max_rate) max_rate = spec.rates[r];
    std::fprintf(stderr, "%4zu %7.0f %5zu %7lld %14.3f %9.3f %12.3f  %s\n", r,
                 spec.rates[r], rungs[r].size(),
                 static_cast<long long>(failed), tail, drain_ms, late_p99,
                 !valid ? "invalid (generator late)"
                 : passed ? (r == spec.reference ? "pass (reference)" : "pass")
                          : "over the limit");
    if (r == spec.reference) {
      reference = rung;
      reference_delta = after.DeltaSince(before);
      reference_wall_ms = wall_ms;
    }
    total.requests += rung.requests;
    total.refused += rung.refused;
    total.errors += rung.errors;
    total.never_committed += rung.never_committed;
    total.cancels += rung.cancels;
    total.cancel_noops += rung.cancel_noops;
    total.cancels_skipped += rung.cancels_skipped;
    total.accepted.insert(total.accepted.end(), rung.accepted.begin(),
                          rung.accepted.end());
    total.committed.insert(total.committed.end(), rung.committed.begin(),
                           rung.committed.end());
  }
  for (serve::HttpClient& conn : conns) conn.Close();

  // Graceful drain; every queued arrival commits before Stop returns.
  server->Stop();

  sheet->attempted = total.requests;
  sheet->failed = total.refused + total.errors;

  // Reference-rate latencies, with failures as +infinity.
  const auto n_acks = static_cast<int64_t>(reference.ack_ms.size());
  const auto n_commits = static_cast<int64_t>(reference.commit_ms.size());
  sheet->Add("ack_ms_p50", Median(reference.ack_ms), "ms", n_acks);
  sheet->Add("ack_ms_p99", Quantile(reference.ack_ms, 0.99), "ms", n_acks);
  sheet->Add("commit_ms_p50", Median(reference.commit_ms), "ms", n_commits);
  sheet->Add("commit_ms_p95", Quantile(reference.commit_ms, 0.95), "ms",
             n_commits);
  sheet->Add("commit_ms_p99", Quantile(reference.commit_ms, 0.99), "ms",
             n_commits);
  if (spec.read_share > 0.0) {
    const auto n_reads = static_cast<int64_t>(reference.read_ms.size());
    sheet->Add("read_ms_p50", Median(reference.read_ms), "ms", n_reads);
    sheet->Add("read_ms_p99", Quantile(reference.read_ms, 0.99), "ms",
               n_reads);
  }
  sheet->Add("max_rate_per_s", max_rate, "1/s",
             static_cast<int64_t>(spec.rates.size()));

  // Regret of every committed ticket of the run, from each outcome's
  // influence with Eq. 1; plan quality does not depend on the rung, and
  // the more tickets the steadier the ratio between seeds.
  double regret = 0.0;
  double payments = 0.0;
  int64_t satisfied = 0;
  for (const Outcome& o : total.committed) {
    const mroam::market::Advertiser& a = terms[o.terms];
    regret += core::Regret(a, std::max<int64_t>(o.influence, 0),
                           kRegretParams);
    payments += a.payment;
    if (o.satisfied) ++satisfied;
  }
  const auto n_committed = static_cast<int64_t>(total.committed.size());
  sheet->Add("regret_ratio", payments > 0.0 ? regret / payments : 0.0, "1",
             n_committed);
  sheet->Add("satisfied_frac",
             n_committed > 0 ? static_cast<double>(satisfied) /
                                   static_cast<double>(n_committed)
                             : 0.0,
             "1", n_committed);
  sheet->Add("failed_frac",
             total.requests > 0 ? static_cast<double>(sheet->failed) /
                                      static_cast<double>(total.requests)
                                : 0.0,
             "1", total.requests);
  if (spec.cancel_share > 0.0) {
    // Cancels of contracts that had expired (404) are no-ops, and a
    // thread with no committed ticket to withdraw skips its cancel.
    sheet->Add("cancels", static_cast<double>(total.cancels), "count",
               total.cancels);
    sheet->Add("cancels_expired", static_cast<double>(total.cancel_noops),
               "count", total.cancels);
    sheet->Add("cancels_skipped", static_cast<double>(total.cancels_skipped),
               "count", total.cancels + total.cancels_skipped);
  }

  // Serve-layer figures at the reference rate, from the canonical
  // serve.stage.* histograms and batch counters.
  const struct {
    const char* metric;
    const char* histogram;
    double q;
  } stages[] = {
      {"serve.framing_ms_p99", "serve.stage.read_seconds", 0.99},
      {"serve.queue_wait_ms_p50", "serve.stage.queue_wait_seconds", 0.5},
      {"serve.queue_wait_ms_p99", "serve.stage.queue_wait_seconds", 0.99},
      {"serve.replan_ms_p50", "serve.stage.replan_seconds", 0.5},
      {"serve.replan_ms_p99", "serve.stage.replan_seconds", 0.99},
      {"serve.respond_ms_p99", "serve.stage.respond_seconds", 0.99},
  };
  for (const auto& stage : stages) {
    int64_t count = 0;
    const double ms =
        HistogramMs(reference_delta, stage.histogram, stage.q, &count);
    sheet->Add(stage.metric, ms, "ms", count);
  }
  const int64_t batches = reference_delta.CounterOf("serve.batches");
  const int64_t admitted = reference_delta.CounterOf("serve.contracts_admitted");
  sheet->Add("serve.batch_size_mean",
             batches > 0 ? static_cast<double>(admitted) /
                               static_cast<double>(batches)
                         : 0.0,
             "count", batches);
  const auto n_outcomes = static_cast<int64_t>(reference.committed.size());
  sheet->Add("serve.polls_per_commit",
             n_outcomes > 0 ? static_cast<double>(reference.polls) /
                                  static_cast<double>(n_outcomes)
                            : 0.0,
             "count", n_outcomes);
  sheet->Add("serve.requests_per_s",
             reference_wall_ms > 0.0 ? 1e3 * static_cast<double>(
                                                 reference.requests) /
                                           reference_wall_ms
                                     : 0.0,
             "1/s", reference.requests);
  sheet->Add("serve.refused", static_cast<double>(total.refused), "count",
             total.requests);
  sheet->Add("serve.errors", static_cast<double>(total.errors), "count",
             total.requests);
  sheet->Add("serve.gen_late_ms_p99", Quantile(reference.late_ms, 0.99), "ms",
             static_cast<int64_t>(reference.late_ms.size()));
  sheet->Add("serve.poll_interval_ms", spec.poll_ms, "ms", 1);
  AddCoreCounters(mroam::obs::MetricsSnapshot{}, reference_delta, batches,
                  sheet);

  // Output checks, after the drain and through public APIs only.
  // Every 202 ticket committed, or was counted as failed.
  int64_t unresolved = 0;
  for (int64_t ticket : total.accepted) {
    if (server->TicketStatus(ticket) !=
        serve::MarketServer::TicketState::kCommitted) {
      ++unresolved;
    }
  }
  if (static_cast<int64_t>(total.accepted.size()) !=
      static_cast<int64_t>(total.committed.size()) + total.never_committed) {
    sheet->Violation(std::to_string(total.accepted.size()) +
                     " tickets accepted but " +
                     std::to_string(total.committed.size()) +
                     " committed and " +
                     std::to_string(total.never_committed) + " failed");
  }
  if (unresolved > 0 &&
      static_cast<int64_t>(total.accepted.size()) <=
          spec.config.ticket_history) {
    sheet->Violation(std::to_string(unresolved) +
                     " accepted tickets not committed after the drain");
  }
  // Every committed outcome reports satisfied == (influence >= demand).
  for (const Outcome& o : total.committed) {
    if (o.influence < 0 ||
        o.satisfied != (o.influence >= terms[o.terms].demand)) {
      sheet->Violation("ticket " + std::to_string(o.ticket) +
                       " reports satisfied=" +
                       (o.satisfied ? "true" : "false") + " at influence " +
                       std::to_string(o.influence) + " for demand " +
                       std::to_string(terms[o.terms].demand));
      break;
    }
  }
  // The drained book: disjoint sets, and the Eq. 1 regret of an
  // Assignment rebuilt from it matches the recount.
  const mroam::market::ContractBook book = server->ExportBook();
  std::vector<mroam::market::Advertiser> book_terms;
  std::vector<std::vector<mroam::model::BillboardId>> book_sets;
  for (const auto& entry : book.entries) {
    book_terms.push_back(entry.terms);
    book_terms.back().id = static_cast<int32_t>(book_terms.size() - 1);
    book_sets.push_back(entry.billboards);
  }
  if (DisjointSets(index, book_sets, "drained book", sheet)) {
    core::Assignment rebuilt(&index, book_terms, kRegretParams);
    rebuilt.RestoreDeployment(book_sets);
    const core::RegretBreakdown breakdown = rebuilt.Breakdown();
    CheckPlan(index, book_terms, book_sets, breakdown.total,
              breakdown.satisfied_count, "drained book", sheet);
  }
  server.reset();

  ProbeSetCount(index, book_sets, sheet);
  ProbeKernels(index, options.seed, sheet);
  ProbeIo(options.snapshot, sheet);
}

}  // namespace

void RunAdmitLock(const RunOptions& options, Sheet* sheet) {
  ServingSpec spec;
  spec.mapped = false;
  spec.config.port = 0;
  spec.config.max_batch = 64;
  spec.config.max_batch_delay_seconds = 0.005;
  spec.config.market.policy = core::ReplanPolicy::kLockExisting;
  spec.config.market.solver.method = core::Method::kGGlobal;
  spec.config.market.solver.seed = options.seed;
  spec.config.market.contract_duration_days = 7;
  // Two clients: with four, client threads compete with the event loop
  // and flush thread for the cores and the generator runs late. At
  // 3000/s the queue reaches max_queue and submits are refused, so the
  // ladder stops at 2000/s.
  spec.clients = 2;
  spec.rates = {500, 1000, 1500, 2000};
  spec.rung_share = {0.1, 0.5, 0.2, 0.2};
  spec.reference = 1;
  spec.poll_ms = 0.5;
  spec.limit_ms = 50.0;
  RunServing(options, spec, sheet);
}

void RunMarketMixed(const RunOptions& options, Sheet* sheet) {
  ServingSpec spec;
  spec.mapped = true;
  spec.config.port = 0;
  spec.config.max_batch = 64;
  spec.config.max_batch_delay_seconds = 0.020;
  spec.config.market.policy = core::ReplanPolicy::kIncremental;
  spec.config.market.solver.method = core::Method::kBls;
  spec.config.market.solver.seed = options.seed;
  spec.config.market.contract_duration_days = 7;
  // Each flush is an incremental replan on the compressed index (tens of
  // ms, a full-solve fallback far more), so the queue builds and reads
  // and cancels wait on the market lock. Past ~150 ops/s the backlog
  // feeds on itself; the ladder stops below that.
  spec.rates = {20, 40, 80, 120};
  spec.rung_share = {0.05, 0.05, 0.7, 0.2};
  spec.reference = 2;
  spec.cancel_share = 0.10;
  spec.read_share = 0.30;
  spec.poll_ms = 5.0;
  spec.limit_ms = 1000.0;
  spec.give_up_ms = 20000.0;
  RunServing(options, spec, sheet);
}

}  // namespace contractbench
