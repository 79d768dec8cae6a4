#ifndef MROAM_SERVE_MARKET_SERVER_H_
#define MROAM_SERVE_MARKET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/daily_market.h"
#include "serve/http.h"

namespace mroam::serve {

/// Configuration of the long-running market host.
struct MarketServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (tests/benches read
  /// it back via MarketServer::port()).
  int port = 8080;
  /// Handler workers (reuses common::ThreadPool). The event loop serves
  /// the hot admission path inline; handlers that take the market lock
  /// or block (reads, /debug/trace captures) run here, so this bounds
  /// in-flight *blocking* handlers, not connections.
  int num_threads = 4;
  /// Admission batching: a queued contract waits until either the batch
  /// reaches `max_batch` arrivals or the oldest has waited
  /// `max_batch_delay_seconds`, then the whole batch replans as one
  /// market "day" (core::DailyMarket::AdvanceDay).
  int max_batch = 64;
  double max_batch_delay_seconds = 0.05;
  /// Day-loop configuration: replan policy (all three work; the default,
  /// kIncremental with BLS full solves, is what contractbench's
  /// market_mixed gates), solver, contract duration in days — where one
  /// "day" is one admission batch flush.
  core::DailyMarketConfig market;

  // --- Overload contract (DESIGN.md §6.2) --------------------------------
  /// Per-connection read deadlines: `read_idle_timeout_ms` bounds the wait
  /// between bytes (slow-loris) — and, on a kept-alive connection, how
  /// long an idle connection is retained between requests — while
  /// `request_timeout_ms` bounds one whole head+body read. A deadline
  /// tripped mid-request answers 408; one tripped between requests just
  /// closes. -1 disables (connections are then retained forever).
  int read_idle_timeout_ms = 5000;
  int request_timeout_ms = 15000;
  /// Bound on draining the response buffer to a peer; one that stops
  /// reading its socket costs at most this long before the connection is
  /// reclaimed.
  int write_timeout_ms = 5000;
  /// Accept-side connection cap: at most this many connections are open
  /// at once. At the cap the event loop stops accepting, so further
  /// clients queue in the kernel backlog (and eventually time out there)
  /// instead of growing an unbounded fd backlog in-process.
  int max_connections = 256;
  /// Admission high-watermark: past it POST /contracts sheds with 429 +
  /// Retry-After instead of queueing unboundedly.
  int max_queue = 1024;
  /// Degraded-mode threshold (<= max_queue): at this queue depth the
  /// server stops claiming readiness (GET /readyz -> 503) and stamps
  /// reads with X-Mroam-Stale, while still serving the last committed
  /// book.
  int degraded_watermark = 256;
  /// Committed ticket results retained for GET /tickets/<id>; the oldest
  /// are evicted past this bound (a poll after eviction sees 404).
  int ticket_history = 1 << 16;

  /// Contract book to restore at construction (the snapshot's
  /// kContractBook section, as loaded by LoadIndexSnapshot or
  /// MappedSnapshot): the market resumes at the stored day with every
  /// stored contract active and the ticket sequence continuing where the
  /// exporting server stopped, so tickets stay unique across a restart.
  /// Default (empty) starts a fresh book.
  market::ContractBook initial_book;
};

/// The always-on host process the paper's operational setting assumes
/// (§1): advertisers submit contracts over HTTP, an admission batcher
/// groups arrivals, and every flush replans the market through
/// core::DailyMarket.
///
/// Serving model: one epoll event loop (level-triggered, non-blocking
/// sockets) owns every connection as a small state machine — read bytes
/// into an incremental RequestFramer, dispatch complete requests,
/// stream out queued responses. Connections are persistent: HTTP/1.1
/// keep-alive with pipelining, Connection negotiated per request.
/// Deadlines (read idle / request total / write) live on a hashed
/// TimerWheel, so slow-loris protection survives without a
/// thread-per-connection. The admission path (POST /contracts,
/// GET /tickets/<id>) is served inline on the loop; handlers that take
/// the market lock or block run on the worker pool and complete back to
/// the loop over an eventfd.
///
/// Endpoints:
///
///   POST   /contracts       {"demand": I_i, "payment": L_i} -> 202 with
///                           a ticket; admission is decoupled from
///                           replanning, so the response returns
///                           immediately and the group-commit result is
///                           polled via the ticket.
///   GET    /tickets/<id>    the ticket's group-commit result: 200 with
///                           {"status":"pending"} before the batch
///                           flushes, 200 with the committed outcome
///                           (satisfied/influence/day) after, 404 for an
///                           unknown or evicted ticket.
///   DELETE /contracts/<id>  withdraw a contract by ticket.
///   GET    /assignment      active contracts with their billboard sets.
///   GET    /report          last replan's regret breakdown + server stats.
///   GET    /metrics         Prometheus exposition of the obs registry.
///   GET    /healthz         liveness probe: 200 while the process runs,
///                           even overloaded or draining.
///   GET    /readyz          readiness probe: 503 while overloaded
///                           (queue at the degraded watermark) or
///                           draining, 200 otherwise — the signal a load
///                           balancer keys on.
///   GET    /debug/vars      metrics registry snapshot as JSON.
///   GET    /debug/flight    flight-recorder ring dump (last ~16k spans).
///   GET    /debug/trace?ms=N  records spans for N ms (default 250, max
///                           10000) and returns Chrome trace-event JSON —
///                           a bounded Perfetto capture with no restart.
///
/// Ticket lifecycle tracing: every request is minted a request id at
/// routing time (RequestTrace); a submitted contract's id rides with it
/// through the admission queue, the batch replan, and the group-commit
/// publish, leaving flight-recorder events (ticket.enqueue,
/// ticket.flush, ticket.replan_done, ticket.respond) and per-stage
/// histograms (serve.stage.queue_wait/replan/respond/read _seconds) on
/// the way — the raw material for /debug/flight and BENCH_serve
/// percentiles.
///
/// Stop() (also run by the destructor) performs a graceful drain: the
/// listener closes first, in-flight requests finish and their
/// connections close, every queued arrival is flushed through a final
/// replan (polls for those tickets are answered until the server object
/// dies), and MROAM_TRACE output is flushed to disk.
class MarketServer {
 public:
  /// `index` must outlive the server.
  MarketServer(const influence::InfluenceIndex* index,
               MarketServerConfig config);
  ~MarketServer();

  MarketServer(const MarketServer&) = delete;
  MarketServer& operator=(const MarketServer&) = delete;

  /// Binds, listens, and starts the event-loop/flush/worker threads.
  /// Fails with kIoError when the port cannot be bound.
  common::Status Start();

  /// Graceful shutdown (idempotent): stop accepting, finish in-flight
  /// requests, drain queued batches, join all threads, flush traces.
  void Stop();

  /// The bound TCP port (after Start()).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Batches flushed so far (tests/report).
  int64_t batches_flushed() const {
    return batches_flushed_.load(std::memory_order_relaxed);
  }
  /// Submissions shed with 429 at the admission high-watermark.
  int64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }
  /// Requests answered 408 after a read deadline tripped mid-request.
  int64_t read_timeouts() const {
    return read_timeouts_.load(std::memory_order_relaxed);
  }
  /// Responses deliberately cut short by the serve.drop_connection fault.
  int64_t dropped_responses() const {
    return dropped_responses_.load(std::memory_order_relaxed);
  }

  /// Snapshots the market's open book (day, ticket sequence, active
  /// contracts with their deployments) — what a draining host hands to
  /// io::ResaveIndexSnapshot so a restart resumes instead of starting
  /// empty. Meaningful after Stop() (every queued arrival has flushed);
  /// callable any time for inspection.
  market::ContractBook ExportBook();

  /// Where a ticket is in its lifecycle, as served by GET /tickets/<id>
  /// (exposed directly for post-drain assertions in tests).
  enum class TicketState { kUnknown, kPending, kCommitted };
  TicketState TicketStatus(int64_t ticket) const;

  /// Per-request trace context, minted at routing time and threaded
  /// through the submit path so stage accounting can attribute the
  /// enqueue to the right ticket. Zero-initialized for non-contract
  /// requests.
  struct RequestTrace {
    int64_t request_id = 0;
    int64_t ticket = -1;  ///< set by a successful submit
  };

  /// Routes one parsed request to its handler — the testable core of the
  /// server loop (no sockets involved).
  HttpResponse Handle(const HttpRequest& request);
  /// Same, with the caller observing the request's trace context.
  HttpResponse Handle(const HttpRequest& request, RequestTrace* trace);

 private:
  struct EventLoop;  // epoll loop + connection state machines (.cc only)
  friend struct EventLoop;

  /// One queued contract arrival waiting for its batch to flush. The
  /// ticket is minted at admission (the 202 body) and must match what
  /// DailyMarket assigns at flush — both count monotonically in arrival
  /// order, which FlushBatch MROAM_CHECKs.
  struct PendingArrival {
    market::Advertiser terms;
    std::chrono::steady_clock::time_point enqueued;
    int64_t request_id = 0;
    int64_t ticket = 0;
  };

  void FlushLoop();
  /// Drains the current queue through one DailyMarket::AdvanceDay and
  /// publishes each arrival's outcome to the ticket table. Called with
  /// batch_mu_ NOT held.
  void FlushBatch();

  HttpResponse HandleSubmit(const HttpRequest& request,
                            RequestTrace* trace);
  HttpResponse HandleTicket(const HttpRequest& request);
  HttpResponse HandleCancel(const HttpRequest& request);
  HttpResponse HandleAssignment();
  HttpResponse HandleReport();
  HttpResponse HandleHealth();
  HttpResponse HandleReady();
  HttpResponse HandleDebugVars();
  HttpResponse HandleDebugFlight();
  HttpResponse HandleDebugTrace(std::string_view query);

  const influence::InfluenceIndex* index_;
  MarketServerConfig config_;
  int port_ = 0;
  int listen_fd_ = -1;

  /// Degraded-mode probe: current queue depth vs the watermark. Sets
  /// *depth (when non-null) as a side effect.
  bool Overloaded(size_t* depth = nullptr);
  /// Stamps X-Mroam-Stale with the age of the last committed book.
  void AddStaleHeader(HttpResponse* response);

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};  ///< flush immediately, no delay wait
  std::atomic<bool> stopping_{false};  ///< flush loop may exit once empty
  std::atomic<int64_t> batches_flushed_{0};
  std::atomic<int64_t> next_request_id_{0};
  std::atomic<int64_t> shed_total_{0};
  std::atomic<int64_t> read_timeouts_{0};
  std::atomic<int64_t> write_timeouts_{0};
  std::atomic<int64_t> dropped_responses_{0};
  /// steady_clock nanos of the last committed book (Start(), then every
  /// FlushBatch) — the numerator of X-Mroam-Stale.
  std::atomic<int64_t> last_commit_ns_{0};

  std::thread loop_thread_;
  std::thread flush_thread_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<EventLoop> loop_;

  std::mutex batch_mu_;  ///< guards queue_ and next_ticket_
  std::condition_variable batch_cv_;
  std::vector<PendingArrival> queue_;
  /// Server-side ticket sequence, mirrored from DailyMarket's (both are
  /// 1-based and monotone in arrival order) so the 202 can name the
  /// ticket before the replan runs.
  int64_t next_ticket_ = 0;

  /// Ticket table for GET /tickets/<id>. Lock order: batch_mu_ before
  /// tickets_mu_ (HandleSubmit registers the pending entry while holding
  /// both, so a queued arrival is never invisible to a poll).
  mutable std::mutex tickets_mu_;
  std::unordered_set<int64_t> pending_tickets_;
  std::unordered_map<int64_t, std::string> committed_tickets_;
  std::deque<int64_t> committed_order_;  ///< eviction FIFO

  std::mutex market_mu_;  ///< guards market_ and last_day_
  core::DailyMarket market_;
  core::DayResult last_day_;
};

}  // namespace mroam::serve

#endif  // MROAM_SERVE_MARKET_SERVER_H_
