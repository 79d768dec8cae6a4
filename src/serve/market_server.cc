#include "serve/market_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/timer_wheel.h"

namespace mroam::serve {

using common::Status;

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":";
  obs::internal::AppendJsonString(&response.body, message);
  response.body += "}";
  MROAM_COUNTER_ADD("serve.http_errors", 1);
  return response;
}

void AppendBreakdownJson(std::string* out,
                         const core::RegretBreakdown& breakdown) {
  *out += "{\"total\":" + obs::internal::JsonDouble(breakdown.total) +
          ",\"excessive\":" +
          obs::internal::JsonDouble(breakdown.excessive) +
          ",\"unsatisfied_penalty\":" +
          obs::internal::JsonDouble(breakdown.unsatisfied_penalty) +
          ",\"satisfied_count\":" +
          std::to_string(breakdown.satisfied_count) +
          ",\"advertiser_count\":" +
          std::to_string(breakdown.advertiser_count) + "}";
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Per-request Connection negotiation: HTTP/1.1 defaults to keep-alive
/// with "close" honored; HTTP/1.0 defaults to close unless the client
/// asks to keep alive.
bool WantsKeepAlive(const HttpRequest& request) {
  const std::string_view connection = request.HeaderOr("connection");
  if (EqualsIgnoreCase(connection, "close")) return false;
  if (request.version == "HTTP/1.0") {
    return EqualsIgnoreCase(connection, "keep-alive");
  }
  return true;
}

double SecondsSince(TimePoint start, TimePoint now) {
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop: one thread owns every connection as a state machine around a
// level-triggered epoll set. Reads feed a RequestFramer; complete requests
// are served inline (the admission hot path) or dispatched to the worker
// pool, whose results come back over an eventfd. All read/write deadlines
// live on a TimerWheel keyed by connection id; cancellation is lazy — a
// fired entry re-checks the connection's actual deadlines.
// ---------------------------------------------------------------------------
struct MarketServer::EventLoop {
  /// epoll user-data tags for the two non-connection fds; connection ids
  /// start above them.
  static constexpr uint64_t kListenerTag = 1;
  static constexpr uint64_t kWakeTag = 2;

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    RequestFramer framer;
    std::string out;
    size_t out_off = 0;
    uint32_t interest = 0;  ///< current epoll event mask
    bool closed = false;
    bool close_after_write = false;  ///< this response is the last one
    bool handler_inflight = false;   ///< a pool handler owns the request
    bool pending_keep_alive = false;  ///< negotiated for the in-pool request
    bool request_started = false;  ///< some bytes of the next request read
    bool served_any = false;       ///< >=1 response sent (idle close is quiet)
    bool saw_eof = false;
    TimePoint idle_deadline{};   ///< next-byte / keep-alive idle budget
    TimePoint total_deadline{};  ///< whole-request budget
    TimePoint write_deadline{};  ///< response drain budget
    TimePoint resume_at{};       ///< serve.slow_read stall expiry
    TimePoint request_start{};   ///< first byte of the current request
    TimePoint active_request_start{};  ///< dispatch-time copy
    TimePoint armed_until{};     ///< earliest pending wheel entry
  };

  struct Completion {
    uint64_t conn_id = 0;
    int64_t request_id = 0;
    HttpResponse response;
  };

  explicit EventLoop(MarketServer* server) : server_(server) {}

  ~EventLoop() {
    if (epfd_ >= 0) close(epfd_);
    if (wake_fd_ >= 0) close(wake_fd_);
  }

  Status Init() {
    epfd_ = epoll_create1(0);
    if (epfd_ < 0) {
      return Status::IoError(std::string("epoll_create1 failed: ") +
                             std::strerror(errno));
    }
    wake_fd_ = eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::IoError(std::string("eventfd failed: ") +
                             std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status::IoError(std::string("epoll_ctl(eventfd) failed: ") +
                             std::strerror(errno));
    }
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev) != 0) {
      return Status::IoError(std::string("epoll_ctl(listener) failed: ") +
                             std::strerror(errno));
    }
    listener_registered_ = true;
    return Status::Ok();
  }

  /// Cross-thread kick: drain request from Stop(), completed handlers.
  void Wake() {
    uint64_t one = 1;
    ssize_t n;
    do {
      n = write(wake_fd_, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  }

  void RequestStop() {
    drain_requested_.store(true, std::memory_order_release);
    Wake();
  }

  /// Called from pool threads when a dispatched handler finishes.
  void PostCompletion(uint64_t conn_id, int64_t request_id,
                      HttpResponse response) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(
          Completion{conn_id, request_id, std::move(response)});
    }
    Wake();
  }

  void Run() {
    std::vector<uint64_t> due;
    epoll_event events[64];
    while (true) {
      if (drain_requested_.load(std::memory_order_acquire) &&
          !drain_started_) {
        BeginDrain();
      }
      if (drain_started_ && conns_.empty() && dead_.empty()) break;

      int timeout = wheel_.MsUntilNext(Clock::now());
      // Heartbeat cap: a wheel kept empty by lazy re-arming must not
      // park the loop forever, and a long timer should not delay drain
      // checks unduly.
      timeout = timeout < 0 ? 100 : std::min(timeout, 100);
      int n = epoll_wait(epfd_, events, 64, timeout);
      if (n < 0 && errno != EINTR) {
        MROAM_LOG(Warning) << "epoll_wait failed: " << std::strerror(errno);
        break;
      }
      for (int i = 0; i < std::max(n, 0); ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          AcceptReady();
          continue;
        }
        if (tag == kWakeTag) {
          uint64_t drained;
          while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        Conn* c = Find(tag);
        if (c == nullptr) continue;
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          CloseConn(c);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) OnReadable(c);
        c = Find(tag);
        if (c != nullptr && (events[i].events & EPOLLOUT) != 0) FlushOut(c);
      }

      DrainCompletions();

      due.clear();
      wheel_.Advance(Clock::now(), &due);
      for (uint64_t id : due) OnTimer(id);
      Reap();
    }
    // Drain finished: every connection is closed; leftover completions
    // (handlers whose connection died first) are dropped with the loop.
    Reap();
  }

 private:
  Conn* Find(uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->closed) return nullptr;
    return it->second.get();
  }

  size_t OpenCount() const { return conns_.size() - dead_.size(); }

  void PublishOpenGauge() {
    MROAM_GAUGE_SET("serve.open_connections",
                    static_cast<int64_t>(OpenCount()));
  }

  void AcceptReady() {
    while (!drain_started_ &&
           OpenCount() < static_cast<size_t>(server_->config_.max_connections)) {
      int fd = accept4(server_->listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or the listener is gone (Stop())
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      Conn* c = conn.get();
      c->fd = fd;
      c->id = next_conn_id_++;
      conns_.emplace(c->id, std::move(conn));
      const auto now = Clock::now();
      if (server_->config_.read_idle_timeout_ms >= 0) {
        c->idle_deadline = now + std::chrono::milliseconds(
                                     server_->config_.read_idle_timeout_ms);
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c->id;
      if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        MROAM_LOG(Warning) << "epoll_ctl(add conn) failed: "
                           << std::strerror(errno);
        conns_.erase(c->id);
        close(fd);
        continue;
      }
      c->interest = EPOLLIN;
      ArmWheel(c);
      PublishOpenGauge();
    }
    // Accept-side backpressure: at the connection cap stop watching the
    // listener; pending clients queue in the kernel backlog — bounded,
    // and the kernel's overflow behavior (drop/RST) pushes back on the
    // client, not on this process's memory.
    if (OpenCount() >= static_cast<size_t>(server_->config_.max_connections)) {
      PauseListener();
    }
  }

  void PauseListener() {
    if (!listener_registered_) return;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
    listener_registered_ = false;
  }

  void ResumeListener() {
    if (listener_registered_ || drain_started_) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev) == 0) {
      listener_registered_ = true;
    }
  }

  void CloseConn(Conn* c) {
    if (c->closed) return;
    c->closed = true;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    c->fd = -1;
    dead_.push_back(c->id);
    PublishOpenGauge();
  }

  /// Deferred reaping: CloseConn only marks, so a call chain holding a
  /// Conn* never frees it out from under itself.
  void Reap() {
    if (dead_.empty()) return;
    for (uint64_t id : dead_) conns_.erase(id);
    dead_.clear();
    if (OpenCount() <
        static_cast<size_t>(server_->config_.max_connections)) {
      ResumeListener();
    }
  }

  void UpdateInterest(Conn* c) {
    if (c->closed) return;
    const bool want_read = !c->handler_inflight && !c->saw_eof &&
                           !c->close_after_write &&
                           c->resume_at == TimePoint{};
    uint32_t want = want_read ? static_cast<uint32_t>(EPOLLIN) : 0u;
    if (c->out_off < c->out.size()) want |= EPOLLOUT;
    if (want == c->interest) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c->id;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->interest = want;
  }

  /// Schedules the connection's earliest live deadline on the wheel
  /// (skipping when an already-pending entry fires at or before it).
  void ArmWheel(Conn* c) {
    if (c->closed) return;
    TimePoint next = TimePoint::max();
    if (!c->handler_inflight) {
      if (c->idle_deadline != TimePoint{}) {
        next = std::min(next, c->idle_deadline);
      }
      if (c->total_deadline != TimePoint{}) {
        next = std::min(next, c->total_deadline);
      }
    }
    if (c->write_deadline != TimePoint{}) {
      next = std::min(next, c->write_deadline);
    }
    if (c->resume_at != TimePoint{}) next = std::min(next, c->resume_at);
    if (next == TimePoint::max()) return;
    if (c->armed_until != TimePoint{} && c->armed_until <= next) return;
    wheel_.Schedule(c->id, next);
    c->armed_until = next;
  }

  void OnTimer(uint64_t id) {
    Conn* c = Find(id);
    if (c == nullptr) return;
    c->armed_until = TimePoint{};
    const auto now = Clock::now();

    if (c->write_deadline != TimePoint{} && now >= c->write_deadline) {
      server_->write_timeouts_.fetch_add(1, std::memory_order_relaxed);
      MROAM_COUNTER_ADD("serve.write_timeouts", 1);
      MROAM_LOG(Debug) << "response write timed out; dropping connection";
      CloseConn(c);
      return;
    }
    if (!c->handler_inflight) {
      // The total budget outranks the idle budget: when both have
      // expired the request ran out of budget, it did not merely idle.
      if (c->total_deadline != TimePoint{} && now >= c->total_deadline) {
        ReadTimeout(c, "HTTP read exceeded its request budget");
        return;
      }
      if (c->idle_deadline != TimePoint{} && now >= c->idle_deadline) {
        if (!c->request_started && c->served_any) {
          // Keep-alive idle between requests: reclaim quietly — there
          // is no request to answer 408 to.
          CloseConn(c);
        } else {
          ReadTimeout(c, "HTTP read idle for " +
                             std::to_string(
                                 server_->config_.read_idle_timeout_ms) +
                             "ms");
        }
        return;
      }
    }
    if (c->resume_at != TimePoint{} && now >= c->resume_at) {
      c->resume_at = TimePoint{};
      UpdateInterest(c);
      OnReadable(c);
      return;
    }
    ArmWheel(c);
  }

  /// A tripped mid-request read deadline: explicit 408, then close — the
  /// same contract the blocking reader had.
  void ReadTimeout(Conn* c, const std::string& message) {
    server_->read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    MROAM_COUNTER_ADD("serve.read_timeouts", 1);
    MROAM_COUNTER_ADD("serve.http_requests", 1);
    MROAM_FLIGHT_EVENT("conn.read_timeout", 0);
    c->idle_deadline = TimePoint{};
    c->total_deadline = TimePoint{};
    c->request_started = false;
    c->active_request_start = c->request_start;
    QueueResponse(c, JsonError(408, message), /*keep_alive=*/false,
                  /*request_id=*/0);
  }

  void OnReadable(Conn* c) {
    if (c->closed || c->resume_at != TimePoint{}) return;
    // Chaos: a slow-read fault stalls this connection's reader (the
    // deadlines keep running, so an injected stall longer than the
    // budget surfaces as a 408, not a slow success) — without stalling
    // the loop itself.
    const common::FaultAction slow = MROAM_FAULT_POINT("serve.slow_read");
    if (slow.fire && slow.delay_ms > 0) {
      c->resume_at = Clock::now() + std::chrono::milliseconds(slow.delay_ms);
      UpdateInterest(c);
      ArmWheel(c);
      return;
    }

    const auto now = Clock::now();
    char chunk[16384];
    bool got_bytes = false;
    while (true) {
      ssize_t n = recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        got_bytes = true;
        if (!c->request_started) {
          c->request_started = true;
          c->request_start = now;
          if (server_->config_.request_timeout_ms >= 0) {
            c->total_deadline =
                now + std::chrono::milliseconds(
                          server_->config_.request_timeout_ms);
          }
        }
        c->framer.Feed(chunk, static_cast<size_t>(n));
        if (c->framer.buffered_bytes() >
            kMaxHttpHeadBytes + kMaxHttpBodyBytes) {
          // A peer pumping more than one max-size request ahead of the
          // handler gets its pipeline cut, not unbounded buffering.
          CloseConn(c);
          return;
        }
        if (static_cast<size_t>(n) < sizeof(chunk)) break;
        continue;
      }
      if (n == 0) {
        c->saw_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    if (got_bytes && server_->config_.read_idle_timeout_ms >= 0) {
      c->idle_deadline = now + std::chrono::milliseconds(
                                   server_->config_.read_idle_timeout_ms);
    }

    ProcessRequests(c);
    if (c->closed) return;
    if (c->saw_eof && c->out_off >= c->out.size() && !c->handler_inflight) {
      // Orderly EOF with nothing left to send: mid-request it matches
      // the blocking reader's silent close; between requests it is just
      // the peer hanging up.
      CloseConn(c);
      return;
    }
    UpdateReadState(c);
  }

  /// Frames and dispatches every complete buffered request, stopping at
  /// a pool dispatch (one in-flight request per connection keeps
  /// pipelined responses in order).
  void ProcessRequests(Conn* c) {
    while (!c->closed && !c->handler_inflight && !c->close_after_write) {
      HttpRequest request;
      Status error = Status::Ok();
      const RequestFramer::Outcome outcome = c->framer.Next(&request, &error);
      if (outcome == RequestFramer::Outcome::kNeedMore) break;
      MROAM_COUNTER_ADD("serve.http_requests", 1);
      const auto now = Clock::now();
      if (c->request_start == TimePoint{}) c->request_start = now;
      MROAM_HISTOGRAM_OBSERVE("serve.stage.read_seconds",
                              SecondsSince(c->request_start, now));
      c->active_request_start = c->request_start;
      if (outcome == RequestFramer::Outcome::kError) {
        // Malformed framing desynchronizes the stream: answer 400 and
        // close, even mid-pipeline.
        QueueResponse(c, JsonError(400, std::string(error.message())),
                      /*keep_alive=*/false, /*request_id=*/0);
        break;
      }

      // This request is consumed; the total budget now covers the next
      // one (if its bytes are already buffered, its clock starts now).
      c->request_started = c->framer.MidRequest();
      c->request_start = c->request_started ? now : TimePoint{};
      c->total_deadline =
          c->request_started && server_->config_.request_timeout_ms >= 0
              ? now + std::chrono::milliseconds(
                          server_->config_.request_timeout_ms)
              : TimePoint{};

      const bool keep = WantsKeepAlive(request) && !drain_started_;
      const auto [path, query] = SplitTarget(request.target);
      const bool inline_path =
          (path == "/contracts" && request.method == "POST") ||
          common::StartsWith(path, "/tickets/");
      if (inline_path) {
        // Admission hot path: validation + a queue push (or a ticket
        // table lookup) under short locks — served on the loop, no
        // handoff.
        MROAM_TRACE_SPAN("serve.request");
        RequestTrace trace;
        HttpResponse response = server_->Handle(request, &trace);
        QueueResponse(c, std::move(response), keep, trace.request_id);
        continue;
      }
      // Everything else may take the market lock or deliberately block
      // (/debug/trace): run it on the pool and complete back to the
      // loop. Reads stay off until the response is queued, so the
      // framer cannot run ahead of the one in-flight request.
      c->handler_inflight = true;
      c->pending_keep_alive = keep;
      const uint64_t conn_id = c->id;
      server_->pool_->Submit(
          [this, conn_id, request = std::move(request)]() mutable {
            MROAM_TRACE_SPAN("serve.request");
            RequestTrace trace;
            HttpResponse response = server_->Handle(request, &trace);
            PostCompletion(conn_id, trace.request_id, std::move(response));
          });
      break;
    }
  }

  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& done : batch) {
      Conn* c = Find(done.conn_id);
      if (c == nullptr) {
        MROAM_LOG(Debug) << "dropping response for closed connection";
        continue;
      }
      c->handler_inflight = false;
      const bool keep = c->pending_keep_alive && !drain_started_;
      QueueResponse(c, std::move(done.response), keep, done.request_id);
      if (c->closed) continue;
      ProcessRequests(c);
      if (c->closed) continue;
      if (c->saw_eof && c->out_off >= c->out.size() &&
          !c->handler_inflight) {
        CloseConn(c);
        continue;
      }
      UpdateReadState(c);
    }
  }

  /// Recomputes read interest and deadline arming after request
  /// processing settles.
  void UpdateReadState(Conn* c) {
    if (c->closed) return;
    if (c->handler_inflight) {
      // No read deadlines while the server itself is the slow party.
      c->idle_deadline = TimePoint{};
    } else if (c->idle_deadline == TimePoint{} &&
               server_->config_.read_idle_timeout_ms >= 0) {
      c->idle_deadline =
          Clock::now() + std::chrono::milliseconds(
                             server_->config_.read_idle_timeout_ms);
    }
    UpdateInterest(c);
    ArmWheel(c);
  }

  void QueueResponse(Conn* c, HttpResponse response, bool keep_alive,
                     int64_t request_id) {
    if (c->closed) return;
    response.keep_alive = keep_alive;
    if (!keep_alive) c->close_after_write = true;
    std::string wire = response.Serialize();
    // Chaos: drop the connection mid-response — half the bytes, then
    // RST from the client's point of view. Any committed work stays
    // committed; the contract is that the *server* stays consistent,
    // not the client.
    const common::FaultAction drop =
        MROAM_FAULT_POINT("serve.drop_connection");
    if (drop.fire) {
      server_->dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      MROAM_COUNTER_ADD("serve.dropped_responses", 1);
      MROAM_FLIGHT_EVENT("conn.fault_drop", request_id);
      wire.resize(wire.size() / 2);
      c->close_after_write = true;
    }
    c->out += wire;
    c->served_any = true;
    if (c->write_deadline == TimePoint{} &&
        server_->config_.write_timeout_ms >= 0) {
      c->write_deadline = Clock::now() + std::chrono::milliseconds(
                                             server_->config_.write_timeout_ms);
    }
    if (c->active_request_start != TimePoint{}) {
      MROAM_HISTOGRAM_OBSERVE(
          "serve.request_seconds",
          SecondsSince(c->active_request_start, Clock::now()));
      c->active_request_start = TimePoint{};
    }
    FlushOut(c);
    if (!c->closed) {
      UpdateInterest(c);
      ArmWheel(c);
    }
  }

  void FlushOut(Conn* c) {
    if (c->closed) return;
    int flags = MSG_DONTWAIT;
#ifdef MSG_NOSIGNAL
    flags |= MSG_NOSIGNAL;
#endif
    while (c->out_off < c->out.size()) {
      ssize_t n = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, flags);
      if (n >= 0) {
        c->out_off += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    if (c->out_off >= c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      c->write_deadline = TimePoint{};
      if (c->close_after_write && !c->handler_inflight) {
        CloseConn(c);
        return;
      }
    }
    UpdateInterest(c);
  }

  /// Drain entry: unhook the listener, serve whatever is already
  /// buffered (with Connection: close forced), and close every
  /// connection that has nothing left in flight. The loop then runs on
  /// until in-flight handlers and response buffers finish.
  void BeginDrain() {
    drain_started_ = true;
    PauseListener();
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (uint64_t id : ids) {
      Conn* c = Find(id);
      if (c == nullptr) continue;
      OnReadable(c);
      c = Find(id);
      if (c == nullptr) continue;
      if (c->out_off >= c->out.size() && !c->handler_inflight) {
        CloseConn(c);
      }
    }
    Reap();
  }

  MarketServer* server_;
  int epfd_ = -1;
  int wake_fd_ = -1;
  TimerWheel wheel_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> dead_;
  uint64_t next_conn_id_ = 16;
  bool listener_registered_ = false;
  bool drain_started_ = false;
  std::atomic<bool> drain_requested_{false};

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

MarketServer::MarketServer(const influence::InfluenceIndex* index,
                           MarketServerConfig config)
    : index_(index),
      config_(std::move(config)),
      market_(index, config_.market) {
  if (!config_.initial_book.empty()) {
    market_.RestoreBook(config_.initial_book);
    // The 202 path mints tickets with ++next_ticket_, so the mirror sits
    // one below the next ticket DailyMarket will assign at flush.
    next_ticket_ = config_.initial_book.next_ticket - 1;
    MROAM_LOG(Info) << "restored contract book: day "
                    << config_.initial_book.day << ", "
                    << config_.initial_book.entries.size()
                    << " active contracts, next ticket "
                    << config_.initial_book.next_ticket;
  }
  MROAM_CHECK(config_.max_batch >= 1);
  MROAM_CHECK(config_.max_batch_delay_seconds >= 0.0);
  MROAM_CHECK(config_.num_threads >= 1);
  MROAM_CHECK(config_.max_connections >= 1);
  MROAM_CHECK(config_.max_queue >= 1);
  MROAM_CHECK(config_.degraded_watermark >= 1);
  MROAM_CHECK(config_.degraded_watermark <= config_.max_queue);
  MROAM_CHECK(config_.ticket_history >= 1);
}

MarketServer::~MarketServer() { Stop(); }

Status MarketServer::Start() {
  MROAM_CHECK(!running_.load());
  // The listener itself must be non-blocking: the event loop's accept
  // drains until EAGAIN, and a level-triggered wakeup can race a peer
  // that resets before accept (a blocking listener would park the whole
  // loop inside accept4).
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IoError(
        "cannot bind port " + std::to_string(config_.port) + ": " +
        std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    Status status = Status::IoError(std::string("getsockname failed: ") +
                                    std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 128) != 0) {
    Status status = Status::IoError(std::string("listen failed: ") +
                                    std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  draining_.store(false);
  stopping_.store(false);
  last_commit_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  loop_ = std::make_unique<EventLoop>(this);
  Status loop_status = loop_->Init();
  if (!loop_status.ok()) {
    loop_.reset();
    close(listen_fd_);
    listen_fd_ = -1;
    return loop_status;
  }
  pool_ = std::make_unique<common::ThreadPool>(config_.num_threads);
  flush_thread_ = std::thread([this] { FlushLoop(); });
  loop_thread_ = std::thread([this] { loop_->Run(); });
  running_.store(true, std::memory_order_release);
  MROAM_LOG(Info) << "mroam market server listening on port " << port_
                  << " (event loop + " << config_.num_threads
                  << " workers, batch " << config_.max_batch << "/"
                  << config_.max_batch_delay_seconds * 1e3 << "ms, policy "
                  << core::ReplanPolicyName(config_.market.policy) << ")";
  return Status::Ok();
}

void MarketServer::Stop() {
  if (listen_fd_ < 0 && !loop_thread_.joinable()) return;

  // 1. Drain the event loop: the listener is unhooked, buffered requests
  //    are answered with Connection: close, in-flight handlers finish,
  //    and every connection closes. The batcher switches to immediate
  //    flush so queued arrivals commit fast.
  // The flush loop's wait predicates read draining_ and stopping_: each
  // is set under batch_mu_, or the loop could test its predicate, miss
  // the notify, and sleep through the drain.
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    draining_.store(true);
  }
  batch_cv_.notify_all();
  if (loop_) loop_->RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain workers: ThreadPool's destructor runs every queued task to
  //    completion (their completions land in the loop's queue and are
  //    dropped with it — the connections are gone).
  pool_.reset();

  // 3. Now nothing can enqueue: let the flush loop drain the tail and
  //    exit, then persist whatever MROAM_TRACE collected. Ticket polls
  //    for the drained batch would answer committed — the table outlives
  //    the sockets.
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    stopping_.store(true);
  }
  batch_cv_.notify_all();
  if (flush_thread_.joinable()) flush_thread_.join();
  loop_.reset();
  running_.store(false, std::memory_order_release);

  common::Status flushed = obs::Tracer::Global().Flush();
  if (!flushed.ok()) {
    MROAM_LOG(Warning) << "trace flush failed: " << flushed;
  }
  MROAM_LOG(Info) << "mroam market server drained and stopped after "
                  << batches_flushed_.load() << " batches, day "
                  << market_.today();
}

HttpResponse MarketServer::Handle(const HttpRequest& request) {
  RequestTrace trace;
  return Handle(request, &trace);
}

HttpResponse MarketServer::Handle(const HttpRequest& request,
                                  RequestTrace* trace) {
  trace->request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto [path, query] = SplitTarget(request.target);
  // Route on the path first: a known path with the wrong method is a 405
  // naming the right one, and only a truly unknown path falls through to
  // the 404 listing every endpoint — so /debug/* typos are diagnosable
  // from the error body alone.
  if (path == "/contracts") {
    if (request.method != "POST") {
      return JsonError(405, "use POST to submit a contract");
    }
    return HandleSubmit(request, trace);
  }
  if (common::StartsWith(path, "/contracts/")) {
    if (request.method != "DELETE") {
      return JsonError(405, "use DELETE to withdraw a contract");
    }
    return HandleCancel(request);
  }
  if (common::StartsWith(path, "/tickets/")) {
    if (request.method != "GET") {
      return JsonError(405, "use GET to poll a ticket");
    }
    return HandleTicket(request);
  }
  const bool is_get_path =
      path == "/assignment" || path == "/report" || path == "/healthz" ||
      path == "/readyz" || path == "/metrics" || path == "/debug/vars" ||
      path == "/debug/flight" || path == "/debug/trace";
  if (is_get_path) {
    if (request.method != "GET") {
      return JsonError(405, "use GET for " + std::string(path));
    }
    if (path == "/assignment") return HandleAssignment();
    if (path == "/report") return HandleReport();
    if (path == "/healthz") return HandleHealth();
    if (path == "/readyz") return HandleReady();
    if (path == "/debug/vars") return HandleDebugVars();
    if (path == "/debug/flight") return HandleDebugFlight();
    if (path == "/debug/trace") return HandleDebugTrace(query);
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body =
        obs::MetricsRegistry::Global().Snapshot().ToPrometheus();
    return response;
  }
  HttpResponse response = JsonError(
      404, "no such endpoint: " + std::string(path));
  response.body.pop_back();  // reopen the JsonError object
  response.body +=
      ",\"known_endpoints\":[\"POST /contracts\","
      "\"DELETE /contracts/<id>\",\"GET /tickets/<id>\","
      "\"GET /assignment\",\"GET /report\","
      "\"GET /healthz\",\"GET /readyz\",\"GET /metrics\","
      "\"GET /debug/vars\",\"GET /debug/flight\","
      "\"GET /debug/trace?ms=N\"]}";
  return response;
}

bool MarketServer::Overloaded(size_t* depth) {
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    queued = queue_.size();
  }
  if (depth != nullptr) *depth = queued;
  return queued >= static_cast<size_t>(config_.degraded_watermark);
}

void MarketServer::AddStaleHeader(HttpResponse* response) {
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const int64_t age_ms =
      std::max<int64_t>(
          0, now_ns - last_commit_ns_.load(std::memory_order_relaxed)) /
      1000000;
  response->headers.emplace_back("X-Mroam-Stale", std::to_string(age_ms));
  MROAM_COUNTER_ADD("serve.stale_reads", 1);
}

HttpResponse MarketServer::HandleSubmit(const HttpRequest& request,
                                        RequestTrace* trace) {
  common::Result<double> demand = ExtractJsonNumber(request.body, "demand");
  common::Result<double> payment =
      ExtractJsonNumber(request.body, "payment");
  if (!demand.ok()) return JsonError(400, demand.status().message());
  if (!payment.ok()) return JsonError(400, payment.status().message());
  if (*demand < 1.0 || *demand > 9e15 ||
      *demand != static_cast<double>(static_cast<int64_t>(*demand))) {
    return JsonError(400, "demand must be a positive integer");
  }
  if (*payment <= 0.0) {
    return JsonError(400, "payment must be positive");
  }
  if (stopping_.load() || draining_.load()) {
    return JsonError(503, "server is draining");
  }

  market::Advertiser terms;
  terms.demand = static_cast<int64_t>(*demand);
  terms.payment = *payment;

  int64_t ticket;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    // Bounded admission: past the high-watermark the request is shed
    // with 429 and a Retry-After derived from the flush cadence (how
    // long the backlog takes to replan at one batch per delay window) —
    // the overload contract's "bounded queue, explicit shedding" half.
    const size_t depth = queue_.size();
    if (depth >= static_cast<size_t>(config_.max_queue)) {
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      MROAM_COUNTER_ADD("serve.shed_total", 1);
      MROAM_FLIGHT_EVENT("ticket.shed", trace->request_id);
      const double pending_batches = std::ceil(
          static_cast<double>(depth) /
          static_cast<double>(config_.max_batch));
      const int64_t retry_after_s = std::clamp<int64_t>(
          static_cast<int64_t>(std::ceil(
              pending_batches * config_.max_batch_delay_seconds)),
          1, 60);
      HttpResponse shed = JsonError(
          429, "admission queue full (" + std::to_string(depth) +
                   " waiting); retry after " +
                   std::to_string(retry_after_s) + "s");
      shed.headers.emplace_back("Retry-After",
                                std::to_string(retry_after_s));
      return shed;
    }
    MROAM_FLIGHT_EVENT("ticket.enqueue", trace->request_id);
    // Mint the ticket now so the 202 can name it: the server-side
    // sequence mirrors DailyMarket's (both 1-based, monotone in arrival
    // order through this single queue), which FlushBatch verifies.
    ticket = ++next_ticket_;
    {
      // Registered while batch_mu_ is held, so a queued arrival is
      // never invisible to a concurrent GET /tickets poll.
      std::lock_guard<std::mutex> tickets_lock(tickets_mu_);
      pending_tickets_.insert(ticket);
    }
    PendingArrival pending;
    pending.terms = terms;
    pending.enqueued = std::chrono::steady_clock::now();
    pending.request_id = trace->request_id;
    pending.ticket = ticket;
    queue_.push_back(std::move(pending));
    MROAM_GAUGE_SET("serve.queue_depth",
                    static_cast<int64_t>(queue_.size()));
  }
  batch_cv_.notify_all();
  trace->ticket = ticket;
  // Admission decoupled from replanning: accept immediately, let the
  // client poll GET /tickets/<id> for the group-commit outcome.
  HttpResponse response;
  response.status = 202;
  response.body = "{\"ticket\":" + std::to_string(ticket) +
                  ",\"status\":\"pending\"}";
  return response;
}

HttpResponse MarketServer::HandleTicket(const HttpRequest& request) {
  const auto [path, query] = SplitTarget(request.target);
  std::string_view id_text = path.substr(strlen("/tickets/"));
  common::Result<int64_t> ticket = common::ParseInt64(id_text);
  if (!ticket.ok()) {
    return JsonError(400, "bad ticket id '" + std::string(id_text) + "'");
  }
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto committed = committed_tickets_.find(*ticket);
    if (committed != committed_tickets_.end()) {
      HttpResponse response;
      response.body = committed->second;
      return response;
    }
    if (pending_tickets_.count(*ticket) != 0) {
      HttpResponse response;
      response.body = "{\"ticket\":" + std::to_string(*ticket) +
                      ",\"status\":\"pending\"}";
      return response;
    }
  }
  return JsonError(404, "no such ticket " + std::to_string(*ticket) +
                            " (unknown, or evicted from the result "
                            "history)");
}

market::ContractBook MarketServer::ExportBook() {
  std::lock_guard<std::mutex> lock(market_mu_);
  return market_.ExportBook();
}

MarketServer::TicketState MarketServer::TicketStatus(int64_t ticket) const {
  std::lock_guard<std::mutex> lock(tickets_mu_);
  if (committed_tickets_.count(ticket) != 0) return TicketState::kCommitted;
  if (pending_tickets_.count(ticket) != 0) return TicketState::kPending;
  return TicketState::kUnknown;
}

HttpResponse MarketServer::HandleDebugVars() {
  HttpResponse response;
  response.body = obs::MetricsRegistry::Global().Snapshot().ToJson();
  return response;
}

HttpResponse MarketServer::HandleDebugFlight() {
  HttpResponse response;
  response.body = obs::FlightRecorder::Global().DumpJson();
  return response;
}

HttpResponse MarketServer::HandleDebugTrace(std::string_view query) {
  double ms = 250.0;
  std::string_view text = QueryParam(query, "ms");
  if (!text.empty()) {
    common::Result<int64_t> parsed = common::ParseInt64(text);
    if (!parsed.ok() || *parsed < 1 || *parsed > 10000) {
      return JsonError(400, "ms must be an integer in [1, 10000], got '" +
                                std::string(text) + "'");
    }
    ms = static_cast<double>(*parsed);
  }
  // Blocks this worker for the window (bounded at 10s); concurrent
  // captures serialize inside CaptureWindow.
  HttpResponse response;
  response.body = obs::Tracer::Global().CaptureWindow(ms / 1e3);
  return response;
}

HttpResponse MarketServer::HandleCancel(const HttpRequest& request) {
  std::string_view id_text =
      std::string_view(request.target).substr(strlen("/contracts/"));
  common::Result<int64_t> ticket = common::ParseInt64(id_text);
  if (!ticket.ok()) {
    return JsonError(400, "bad contract id '" + std::string(id_text) + "'");
  }
  bool cancelled;
  int32_t active;
  {
    std::lock_guard<std::mutex> lock(market_mu_);
    cancelled = market_.Cancel(*ticket);
    active = market_.active_contracts();
  }
  if (!cancelled) {
    return JsonError(404,
                     "no active contract " + std::to_string(*ticket));
  }
  MROAM_COUNTER_ADD("serve.contracts_cancelled", 1);
  MROAM_GAUGE_SET("serve.active_contracts", active);
  HttpResponse response;
  response.body = "{\"cancelled\":" + std::to_string(*ticket) +
                  ",\"active_contracts\":" + std::to_string(active) + "}";
  return response;
}

HttpResponse MarketServer::HandleAssignment() {
  HttpResponse response;
  // Degraded mode: reads keep answering from the last committed book —
  // never blocked on the replan backlog — but an overloaded server says
  // so explicitly, so a caller can tell "fresh" from "best effort".
  if (Overloaded()) AddStaleHeader(&response);
  std::lock_guard<std::mutex> lock(market_mu_);
  const auto& terms = market_.ActiveTerms();
  const auto& sets = market_.ActiveSets();
  const auto& tickets = market_.ActiveTickets();
  response.body = "{\"day\":" + std::to_string(market_.today()) +
                  ",\"contracts\":[";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) response.body += ",";
    std::vector<model::BillboardId> sorted = sets[i];
    std::sort(sorted.begin(), sorted.end());
    response.body += "{\"ticket\":" + std::to_string(tickets[i]) +
                     ",\"demand\":" + std::to_string(terms[i].demand) +
                     ",\"payment\":" +
                     obs::internal::JsonDouble(terms[i].payment) +
                     ",\"influence\":" +
                     std::to_string(index_->InfluenceOfSet(sorted)) +
                     ",\"billboards\":[";
    for (size_t k = 0; k < sorted.size(); ++k) {
      if (k > 0) response.body += ",";
      response.body += std::to_string(sorted[k]);
    }
    response.body += "]}";
  }
  response.body += "]}";
  return response;
}

HttpResponse MarketServer::HandleReport() {
  HttpResponse response;
  size_t queued;
  if (Overloaded(&queued)) AddStaleHeader(&response);
  std::lock_guard<std::mutex> lock(market_mu_);
  response.body =
      "{\"day\":" + std::to_string(market_.today()) +
      ",\"policy\":";
  obs::internal::AppendJsonString(
      &response.body, core::ReplanPolicyName(config_.market.policy));
  response.body +=
      ",\"active_contracts\":" + std::to_string(market_.active_contracts()) +
      ",\"batches_flushed\":" + std::to_string(batches_flushed_.load()) +
      ",\"queue_depth\":" + std::to_string(queued) +
      ",\"shed_total\":" + std::to_string(shed_total_.load()) +
      ",\"read_timeouts\":" + std::to_string(read_timeouts_.load()) +
      ",\"last_day\":{\"arrived\":" + std::to_string(last_day_.arrived) +
      ",\"expired\":" + std::to_string(last_day_.expired) +
      ",\"cancelled\":" + std::to_string(last_day_.cancelled) +
      ",\"churn_boards\":" + std::to_string(last_day_.churn_boards) +
      ",\"boards_touched\":" + std::to_string(last_day_.boards_touched) +
      ",\"reoptimized_advertisers\":" +
      std::to_string(last_day_.reoptimized_advertisers) +
      ",\"mode\":\"" + core::ReplanModeName(last_day_.mode) + "\"" +
      ",\"full_solve_fallback\":" +
      (last_day_.full_solve_fallback ? "true" : "false") +
      ",\"seconds\":" + obs::internal::JsonDouble(last_day_.seconds) +
      ",\"stage_seconds\":{\"queue_wait\":" +
      obs::internal::JsonDouble(
          last_day_.report.PhaseSeconds("serve.queue_wait")) +
      ",\"replan\":" +
      obs::internal::JsonDouble(
          last_day_.report.PhaseSeconds("serve.replan")) +
      "}" +
      ",\"breakdown\":";
  AppendBreakdownJson(&response.body, last_day_.breakdown);
  response.body += "}}";
  return response;
}

HttpResponse MarketServer::HandleHealth() {
  // Liveness only: 200 for as long as the process can answer at all —
  // an overloaded or draining server is still *alive*. Restart decisions
  // key on this; routing decisions key on /readyz.
  HttpResponse response;
  std::lock_guard<std::mutex> lock(market_mu_);
  response.body =
      "{\"status\":\"ok\",\"day\":" + std::to_string(market_.today()) +
      ",\"active_contracts\":" + std::to_string(market_.active_contracts()) +
      "}";
  return response;
}

HttpResponse MarketServer::HandleReady() {
  size_t depth = 0;
  const bool overloaded = Overloaded(&depth);
  const bool draining = draining_.load() || stopping_.load();
  HttpResponse response;
  const char* state = draining ? "draining"
                     : overloaded ? "overloaded"
                                  : "ok";
  response.status = (draining || overloaded) ? 503 : 200;
  response.body =
      std::string("{\"status\":\"") + state +
      "\",\"queue_depth\":" + std::to_string(depth) +
      ",\"degraded_watermark\":" +
      std::to_string(config_.degraded_watermark) +
      ",\"shed_total\":" + std::to_string(shed_total_.load()) + "}";
  return response;
}

void MarketServer::FlushLoop() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  while (true) {
    batch_cv_.wait(lock, [this] {
      return stopping_.load() || !queue_.empty();
    });
    if (queue_.empty()) {
      if (stopping_.load()) return;
      continue;
    }
    if (!draining_.load()) {
      // Admission batching: hold the batch open until it is full or the
      // oldest arrival has waited out the delay budget.
      const auto deadline =
          queue_.front().enqueued +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  config_.max_batch_delay_seconds));
      batch_cv_.wait_until(lock, deadline, [this] {
        return stopping_.load() || draining_.load() ||
               static_cast<int>(queue_.size()) >= config_.max_batch;
      });
    }
    lock.unlock();
    FlushBatch();
    lock.lock();
  }
}

void MarketServer::FlushBatch() {
  MROAM_TRACE_SPAN("serve.flush_batch");
  std::vector<PendingArrival> batch;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch.swap(queue_);
    MROAM_GAUGE_SET("serve.queue_depth", 0);
  }
  if (batch.empty()) return;

  const auto now = std::chrono::steady_clock::now();
  std::vector<market::Advertiser> arrivals;
  arrivals.reserve(batch.size());
  double queue_wait_total = 0.0;
  for (const PendingArrival& pending : batch) {
    arrivals.push_back(pending.terms);
    const double waited =
        std::chrono::duration<double>(now - pending.enqueued).count();
    queue_wait_total += waited;
    MROAM_HISTOGRAM_OBSERVE("serve.stage.queue_wait_seconds", waited);
    MROAM_FLIGHT_EVENT("ticket.flush", pending.request_id);
  }

  // Chaos: a delayed replan backs the admission queue up, which is what
  // drives the shed / degraded-mode paths in a reproducible run.
  const common::FaultAction delay = MROAM_FAULT_POINT("serve.delay_replan");
  if (delay.fire && delay.delay_ms > 0) {
    MROAM_FLIGHT_EVENT("replan.fault_delay", delay.delay_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay.delay_ms));
  }

  common::Stopwatch watch;
  core::DayResult day;
  std::vector<std::string> outcomes(batch.size());
  {
    std::lock_guard<std::mutex> lock(market_mu_);
    day = market_.AdvanceDay(std::move(arrivals));
    const double replan_seconds = watch.ElapsedSeconds();

    // Per-arrival outcome: AdvanceDay appends today's arrivals to the end
    // of the book in batch order and nothing reorders the book under
    // market_mu_, so arrival i sits at size - batch.size() + i.
    const auto& tickets = market_.ActiveTickets();
    const auto& sets = market_.ActiveSets();
    const auto& terms = market_.ActiveTerms();
    MROAM_CHECK(tickets.size() >= batch.size());
    const size_t first_arrival = tickets.size() - batch.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t ticket = day.admitted_tickets[i];
      const size_t position = first_arrival + i;
      // The 202 promised this ticket number before the replan ran; the
      // two mints and the book position must agree or polls would
      // retrieve someone else's contract.
      MROAM_CHECK(ticket == batch[i].ticket);
      MROAM_CHECK(tickets[position] == ticket);
      const int64_t influence = index_->InfluenceOfSet(sets[position]);
      const bool satisfied = influence >= terms[position].demand;
      outcomes[i] = "{\"ticket\":" + std::to_string(ticket) +
                    ",\"status\":\"committed\"" +
                    ",\"day\":" + std::to_string(day.day) +
                    ",\"satisfied\":" + (satisfied ? "true" : "false") +
                    ",\"influence\":" + std::to_string(influence) +
                    ",\"active_contracts\":" +
                    std::to_string(day.active_contracts) + "}";
    }
    // Stage accounting rides in the day's RunReport, so GET /report can
    // show where this batch's wall time went (queue_wait is summed over
    // the batch's arrivals, like parallel solver phases).
    day.report.AddPhase("serve.queue_wait", queue_wait_total);
    day.report.AddPhase("serve.replan", replan_seconds);
    last_day_ = std::move(day);
    MROAM_GAUGE_SET("serve.active_contracts", market_.active_contracts());
  }
  const auto replan_done = std::chrono::steady_clock::now();
  last_commit_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          replan_done.time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  MROAM_HISTOGRAM_OBSERVE("serve.stage.replan_seconds",
                          watch.ElapsedSeconds());
  MROAM_COUNTER_ADD("serve.batches", 1);
  MROAM_COUNTER_ADD("serve.contracts_admitted",
                    static_cast<int64_t>(batch.size()));
  // Per-flush churn and replan telemetry (last_day_ holds today's result
  // under market_mu_; these are the aggregate views).
  MROAM_COUNTER_ADD("serve.churn_arrived", last_day_.arrived);
  MROAM_COUNTER_ADD("serve.churn_expired", last_day_.expired);
  MROAM_COUNTER_ADD("serve.churn_cancelled", last_day_.cancelled);
  MROAM_HISTOGRAM_OBSERVE("serve.boards_touched",
                          static_cast<double>(last_day_.boards_touched));
  if (last_day_.mode == core::ReplanMode::kIncremental) {
    MROAM_HISTOGRAM_OBSERVE(
        "serve.reoptimized_advertisers",
        static_cast<double>(last_day_.reoptimized_advertisers));
  }
  batches_flushed_.fetch_add(1, std::memory_order_relaxed);

  // Group-commit publish: move each outcome into the ticket table (the
  // respond stage — replan finished -> result visible to polls), with
  // the oldest committed results evicted past the history bound.
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t ticket = batch[i].ticket;
      pending_tickets_.erase(ticket);
      committed_tickets_[ticket] = std::move(outcomes[i]);
      committed_order_.push_back(ticket);
    }
    while (committed_tickets_.size() >
           static_cast<size_t>(config_.ticket_history)) {
      committed_tickets_.erase(committed_order_.front());
      committed_order_.pop_front();
    }
  }
  const auto published = std::chrono::steady_clock::now();
  const double respond_seconds =
      std::chrono::duration<double>(published - replan_done).count();
  for (const PendingArrival& pending : batch) {
    MROAM_FLIGHT_EVENT("ticket.replan_done", pending.ticket);
    MROAM_FLIGHT_EVENT("ticket.respond", pending.ticket);
    MROAM_HISTOGRAM_OBSERVE("serve.stage.respond_seconds", respond_seconds);
  }
}

}  // namespace mroam::serve
