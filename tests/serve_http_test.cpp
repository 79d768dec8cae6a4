// The serving layer: HTTP plumbing units, MarketServer routing, and an
// end-to-end exercise with concurrent clients over real sockets (labeled
// `serve` + `concurrency`; runs under the tsan preset).
#include "serve/http.h"

#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "io/mmap_snapshot.h"
#include "io/snapshot_io.h"
#include "serve/market_server.h"
#include "test_util.h"

namespace mroam::serve {
namespace {

using common::StatusCode;
using mroam::testing::IndexFromIncidence;

// --- HTTP plumbing units ---------------------------------------------------

TEST(HttpParseTest, ParsesRequestLineAndHeaders) {
  auto parsed = ParseRequestHead(
      "POST /contracts HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 12\r\n"
      "X-Mixed-CASE:  spaced value \r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/contracts");
  EXPECT_EQ(parsed->version, "HTTP/1.1");
  EXPECT_EQ(parsed->HeaderOr("content-length"), "12");
  // Header names are lowercased, values whitespace-stripped.
  EXPECT_EQ(parsed->HeaderOr("x-mixed-case"), "spaced value");
  EXPECT_EQ(parsed->HeaderOr("absent", "fallback"), "fallback");
}

TEST(HttpParseTest, RejectsMalformedRequestLine) {
  EXPECT_EQ(ParseRequestHead("GARBAGE").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestHead("GET /x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestHead("GET /x NOTHTTP").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestHead("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, RejectsHeaderWithoutColon) {
  auto parsed = ParseRequestHead("GET / HTTP/1.1\r\nbadheader\r\n");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, RejectsRequestLineWithEmbeddedSpaceTarget) {
  // Regression: "GET /a b HTTP/1.1" used to parse with target "/a b" —
  // three tokens means a malformed request line, not a spacey target.
  EXPECT_EQ(ParseRequestHead("GET /a b HTTP/1.1\r\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestHead("GET  /x HTTP/1.1\r\n").status().code(),
            StatusCode::kInvalidArgument);
  // Exactly two single spaces is still fine.
  EXPECT_TRUE(ParseRequestHead("GET /x HTTP/1.1\r\n").ok());
}

TEST(HttpParseTest, RejectsEmptyHeaderName) {
  // Regression: ": value" (and its all-whitespace-name variant) used to
  // slip through as an empty-string header key.
  EXPECT_EQ(
      ParseRequestHead("GET / HTTP/1.1\r\n: value\r\n").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseRequestHead("GET / HTTP/1.1\r\n  : value\r\n").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, SerializeCarriesContentLengthAndClose) {
  HttpResponse response;
  response.status = 404;
  response.body = "{\"error\":\"nope\"}";
  std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 16\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"error\":\"nope\"}"), std::string::npos);
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(HttpParseTest, SerializeDropsCallerSuppliedFramingHeaders) {
  // Regression: a caller stuffing Content-Type/Content-Length/Connection
  // into headers used to produce duplicates of the generated ones (with
  // the caller's Content-Length able to desync keep-alive framing).
  HttpResponse response;
  response.body = "hello";
  response.headers.emplace_back("Content-Length", "999");
  response.headers.emplace_back("content-type", "text/plain");
  response.headers.emplace_back("Connection", "keep-alive");
  response.headers.emplace_back("Retry-After", "3");
  std::string wire = response.Serialize();
  EXPECT_EQ(CountOccurrences(wire, "Content-Length:"), 1u);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos) << wire;
  EXPECT_EQ(CountOccurrences(wire, "Content-Type:") +
                CountOccurrences(wire, "content-type:"),
            1u);
  EXPECT_EQ(CountOccurrences(wire, "Connection:") +
                CountOccurrences(wire, "connection:"),
            1u);
  // keep_alive was not set: the honest Connection value is close.
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 3\r\n"), std::string::npos);
}

TEST(HttpParseTest, SerializeHonorsKeepAlive) {
  HttpResponse response;
  response.keep_alive = true;
  response.body = "{}";
  std::string wire = response.Serialize();
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
}

TEST(HttpParseTest, ExtractJsonNumberFindsFields) {
  std::string json = "{\"demand\": 120, \"payment\":3.5e1,\"neg\" : -7}";
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(json, "demand"), 120.0);
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(json, "payment"), 35.0);
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(json, "neg"), -7.0);
  EXPECT_EQ(ExtractJsonNumber(json, "absent").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExtractJsonNumber("{\"demand\": \"str\"}", "demand")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, ContentLengthAcceptsOnlyPlainDigits) {
  EXPECT_EQ(*ParseContentLength("0"), 0u);
  EXPECT_EQ(*ParseContentLength("123"), 123u);
  EXPECT_EQ(*ParseContentLength("007"), 7u);
  // Everything strtoull would quietly accept must be rejected.
  for (const char* bad :
       {"", "+5", "-5", " 5", "5 ", "0x10", "1e3", "12a", "five"}) {
    EXPECT_EQ(ParseContentLength(bad).status().code(),
              StatusCode::kInvalidArgument)
        << "input '" << bad << "'";
  }
  // The body cap is enforced during parsing, overflow-safely.
  EXPECT_EQ(*ParseContentLength(std::to_string(kMaxHttpBodyBytes)),
            kMaxHttpBodyBytes);
  EXPECT_EQ(ParseContentLength(std::to_string(kMaxHttpBodyBytes + 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseContentLength("99999999999999999999").status().code(),
            StatusCode::kInvalidArgument);
}

// Feeds raw wire bytes to a fresh RequestFramer — the framer MarketServer
// runs on every connection — in `chunk`-byte pieces, and frames the first
// request. Input that ends before a request completes is kIoError.
common::Result<HttpRequest> FrameFromWire(
    const std::string& wire,
    size_t chunk = kMaxHttpHeadBytes + kMaxHttpBodyBytes) {
  RequestFramer framer;
  for (size_t pos = 0; pos < wire.size(); pos += chunk) {
    framer.Feed(wire.data() + pos, std::min(chunk, wire.size() - pos));
    HttpRequest request;
    common::Status error;
    switch (framer.Next(&request, &error)) {
      case RequestFramer::Outcome::kRequest:
        return request;
      case RequestFramer::Outcome::kError:
        return error;
      case RequestFramer::Outcome::kNeedMore:
        break;
    }
  }
  return common::Status::IoError("input ended before a complete request");
}

TEST(RequestFramerTest, ReadsBodyPerContentLength) {
  auto parsed = FrameFromWire(
      "POST /contracts HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "hello");
  // No Content-Length means no body.
  auto bare = FrameFromWire("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->body, "");
}

TEST(RequestFramerTest, RejectsConflictingDuplicateContentLength) {
  auto parsed = FrameFromWire(
      "POST / HTTP/1.1\r\n"
      "Content-Length: 5\r\n"
      "Content-Length: 6\r\n\r\nhello!");
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestFramerTest, AcceptsRepeatedIdenticalContentLength) {
  auto parsed = FrameFromWire(
      "POST / HTTP/1.1\r\n"
      "Content-Length: 5\r\n"
      "Content-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "hello");
}

TEST(RequestFramerTest, RejectsMalformedContentLengthOnTheWire) {
  for (const char* bad : {"+5", "5x", "0x10", "1e2"}) {
    auto parsed = FrameFromWire(
        std::string("POST / HTTP/1.1\r\nContent-Length: ") + bad +
        "\r\n\r\n12345");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "Content-Length '" << bad << "'";
  }
}

TEST(RequestFramerTest, HeadStraddlingFeedChunksStillParses) {
  // Pad the head so the \r\n\r\n terminator straddles the boundary of
  // the 4096-byte feeds — the resumed scan must still find it.
  std::string head = "POST /pad HTTP/1.1\r\nContent-Length: 3\r\nx-pad: ";
  const size_t marker_start = 4094;
  ASSERT_LT(head.size(), marker_start);
  const size_t pad = marker_start - head.size();
  head += std::string(pad, 'a');
  head += "\r\n\r\n";
  auto parsed = FrameFromWire(head + "abc", 4096);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "abc");
  EXPECT_EQ(parsed->HeaderOr("x-pad").size(), pad);
}

// --- Deadlines and interruption --------------------------------------------

/// A listening socket on an ephemeral loopback port; *port receives the
/// port. The caller accepts and closes.
int ListenOnLoopback(int* port) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd, 1) != 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    ::close(listen_fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return listen_fd;
}

/// An HttpClient connected over loopback to a peer socket the test
/// drives by hand, playing the server.
class HttpClientReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int port = 0;
    const int listen_fd = ListenOnLoopback(&port);
    ASSERT_GE(listen_fd, 0);
    ASSERT_TRUE(client_.Connect("127.0.0.1", port).ok());
    peer_ = ::accept(listen_fd, nullptr, nullptr);
    ::close(listen_fd);
    ASSERT_GE(peer_, 0);
  }
  void TearDown() override {
    if (peer_ >= 0) ::close(peer_);
    common::FaultInjector::Global().Disarm();
  }

  HttpClient client_;
  int peer_ = -1;
};

TEST_F(HttpClientReadTest, IdleTimeoutTripsOnAStalledPeer) {
  // Partial head, then silence with the connection held open — the
  // classic slow-loris shape.
  ASSERT_TRUE(WriteAll(peer_, "HTTP/1.1 200 OK\r\n").ok());
  HttpTimeouts timeouts;
  timeouts.idle_ms = 60;
  auto read = client_.ReadResponse(timeouts);
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(read.status().message().find("idle"), std::string::npos)
      << read.status().ToString();
}

TEST_F(HttpClientReadTest, TotalBudgetTripsOnADribblingPeer) {
  // One header byte every 15ms stays under any reasonable idle budget
  // forever; only the whole-response budget can stop it.
  std::atomic<bool> stop{false};
  std::thread dribbler([&] {
    while (!stop.load()) {
      if (::send(peer_, "a", 1, MSG_NOSIGNAL) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });
  HttpTimeouts timeouts;
  timeouts.idle_ms = -1;
  timeouts.total_ms = 120;
  auto read = client_.ReadResponse(timeouts);
  stop.store(true);
  dribbler.join();
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(read.status().message().find("budget"), std::string::npos)
      << read.status().ToString();
}

TEST_F(HttpClientReadTest, EqualIdleAndTotalBudgetsReportTheTotal) {
  // Regression: with idle_ms == remaining total budget the poll wait was
  // the same number either way, and the expiry was misattributed to the
  // idle timeout. The total budget must win the tie.
  ASSERT_TRUE(WriteAll(peer_, "HTTP/1.1 200 OK\r\n").ok());
  HttpTimeouts timeouts;
  timeouts.idle_ms = 120;
  timeouts.total_ms = 120;
  auto read = client_.ReadResponse(timeouts);
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(read.status().message().find("budget"), std::string::npos)
      << read.status().ToString();
  EXPECT_EQ(read.status().message().find("idle"), std::string::npos)
      << read.status().ToString();
}

void Sigusr1Noop(int) {}

TEST_F(HttpClientReadTest, EintrDuringBlockingReadIsRetried) {
  // A handler installed WITHOUT SA_RESTART makes recv/poll return EINTR;
  // the reader must absorb that and finish the parse.
  struct sigaction action = {};
  action.sa_handler = Sigusr1Noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: syscalls really get EINTR
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  common::Result<HttpResponse> read = common::Status::Internal("never ran");
  std::thread reader([&] { read = client_.ReadResponse(); });
  pthread_t handle = reader.native_handle();

  // Pepper the blocked reader with signals, then complete the response.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pthread_kill(handle, SIGUSR1);
  }
  ASSERT_TRUE(
      WriteAll(peer_, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
          .ok());
  pthread_kill(handle, SIGUSR1);
  reader.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->body, "hello");

  sigaction(SIGUSR1, &previous, nullptr);
}

TEST_F(HttpClientReadTest, ServerSlowReadFaultDoesNotStallClientReads) {
  // Regression: the client's recv used to draw the server's
  // serve.slow_read point, so an armed chaos run stalled in-process
  // clients too and shared the point's decision stream between client
  // and server threads.
  ASSERT_TRUE(common::FaultInjector::Global()
                  .ArmFromSpec("seed=1;serve.slow_read=1.0:300")
                  .ok());
  HttpResponse canned;
  canned.keep_alive = true;
  canned.body = "{}";
  ASSERT_TRUE(WriteAll(peer_, canned.Serialize()).ok());
  const auto start = std::chrono::steady_clock::now();
  auto read = client_.ReadResponse();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->body, "{}");
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  EXPECT_EQ(common::FaultInjector::Global().FireCount("serve.slow_read"), 0);
}

TEST(HttpDeadlineTest, WriteAllTimesOutWhenPeerStopsDraining) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the buffers so a never-reading peer wedges the write fast.
  int small = 4096;
  setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(fds[0], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  std::string big(4 << 20, 'x');
  HttpTimeouts timeouts;
  timeouts.idle_ms = 80;
  timeouts.total_ms = 400;
  common::Status status = WriteAll(fds[1], big, timeouts);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  close(fds[0]);
  close(fds[1]);
}

using HttpWriteDeathTest = ::testing::Test;

[[noreturn]] void WriteIntoHalfClosedSocketThenExit() {
  signal(SIGPIPE, SIG_DFL);  // undo any inherited SIG_IGN
  int pair[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) std::exit(2);
  close(pair[0]);  // peer hangs up
  std::string chunk(1 << 16, 'x');
  common::Status status;
  for (int i = 0; i < 256 && status.ok(); ++i) {
    status = WriteAll(pair[1], chunk);
  }
  close(pair[1]);
  std::exit(status.code() == StatusCode::kIoError ? 0 : 1);
}

TEST(HttpWriteDeathTest, HalfClosedPeerIsIoErrorNotSigpipe) {
  // With default SIGPIPE disposition, writing into a half-closed socket
  // kills the process unless the writer suppresses the signal. WriteAll
  // must surface kIoError and leave the process alive to exit(0).
  EXPECT_EXIT(WriteIntoHalfClosedSocketThenExit(),
              ::testing::ExitedWithCode(0), "");
}

// --- Response headers, end to end ------------------------------------------

TEST(HttpHeadersTest, SerializeEmitsExtraHeaders) {
  HttpResponse response;
  response.status = 429;
  response.headers.emplace_back("Retry-After", "7");
  response.headers.emplace_back("X-Mroam-Stale", "120");
  response.body = "{}";
  std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Mroam-Stale: 120\r\n"), std::string::npos);
  // Extra headers stay inside the head, never after the blank line.
  EXPECT_LT(wire.find("Retry-After"), wire.find("\r\n\r\n"));
  EXPECT_EQ(response.HeaderOr("Retry-After"), "7");
  EXPECT_EQ(response.HeaderOr("absent", "fallback"), "fallback");
}

TEST(HttpHeadersTest, HttpFetchParsesResponseHeaders) {
  // One-shot server: accept a single connection, answer with extra
  // headers, close. Exercises the client-side header parse over a real
  // socket.
  int port = 0;
  const int listen_fd = ListenOnLoopback(&port);
  ASSERT_GE(listen_fd, 0);

  HttpResponse canned;
  canned.status = 429;
  canned.headers.emplace_back("Retry-After", "9");
  canned.body = "{\"error\":\"busy\"}";
  std::thread server([listen_fd, wire = canned.Serialize()] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      char buf[4096];
      (void)::recv(fd, buf, sizeof(buf), 0);
      (void)WriteAll(fd, wire);
      ::close(fd);
    }
    ::close(listen_fd);
  });

  auto fetched = HttpFetch("127.0.0.1", port, "GET", "/busy");
  server.join();
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched->status, 429);
  // Names are lowercased by the client-side parser.
  EXPECT_EQ(fetched->HeaderOr("retry-after"), "9");
  EXPECT_EQ(fetched->body, "{\"error\":\"busy\"}");
}

// --- MarketServer ----------------------------------------------------------

class MarketServerTest : public ::testing::Test {
 protected:
  // Eight disjoint billboards with influence {4,4,4,4,2,2,2,2}.
  MarketServerTest()
      : index_(IndexFromIncidence(
            {{0, 1, 2, 3},
             {4, 5, 6, 7},
             {8, 9, 10, 11},
             {12, 13, 14, 15},
             {16, 17},
             {18, 19},
             {20, 21},
             {22, 23}},
            24, &dataset_)) {}

  MarketServerConfig Config() {
    MarketServerConfig config;
    config.port = 0;  // ephemeral
    config.num_threads = 4;
    config.max_batch = 4;
    config.max_batch_delay_seconds = 0.01;
    config.market.policy = core::ReplanPolicy::kLockExisting;
    return config;
  }

  static std::string SubmitBody(int64_t demand, double payment) {
    return "{\"demand\": " + std::to_string(demand) +
           ", \"payment\": " + std::to_string(payment) + "}";
  }

  model::Dataset dataset_;
  influence::InfluenceIndex index_;
};

TEST_F(MarketServerTest, RoutingRejectsUnknownTargetsAndMethods) {
  MarketServer server(&index_, Config());
  // Handle() is pure routing — no Start() needed.
  HttpRequest request;
  request.method = "GET";
  request.target = "/nope";
  EXPECT_EQ(server.Handle(request).status, 404);
  request.method = "PUT";
  request.target = "/contracts";
  EXPECT_EQ(server.Handle(request).status, 405);
  request.method = "DELETE";
  request.target = "/contracts/notanumber";
  EXPECT_EQ(server.Handle(request).status, 400);
  request.method = "GET";
  request.target = "/healthz";
  EXPECT_EQ(server.Handle(request).status, 200);
}

TEST_F(MarketServerTest, SubmitValidationFailsFast) {
  MarketServer server(&index_, Config());
  HttpRequest request;
  request.method = "POST";
  request.target = "/contracts";
  request.body = "not json at all";
  EXPECT_EQ(server.Handle(request).status, 400);
  request.body = "{\"demand\": -5, \"payment\": 2}";
  EXPECT_EQ(server.Handle(request).status, 400);
  request.body = "{\"demand\": 5, \"payment\": -2}";
  EXPECT_EQ(server.Handle(request).status, 400);
  request.body = "{\"demand\": 1e300, \"payment\": 2}";
  EXPECT_EQ(server.Handle(request).status, 400);
}

TEST_F(MarketServerTest, EndToEndContractLifecycle) {
  MarketServer server(&index_, Config());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  ASSERT_GT(port, 0);

  // Admission is decoupled from replanning: the POST answers 202 with a
  // ticket immediately, and the group-commit outcome is polled.
  auto posted = HttpFetch("127.0.0.1", port, "POST", "/contracts",
                          SubmitBody(4, 10.0));
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();
  EXPECT_EQ(posted->status, 202);
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(posted->body, "ticket"), 1.0);
  EXPECT_NE(posted->body.find("\"status\":\"pending\""), std::string::npos)
      << posted->body;

  std::string committed;
  for (int attempt = 0; attempt < 500 && committed.empty(); ++attempt) {
    auto polled = HttpFetch("127.0.0.1", port, "GET", "/tickets/1");
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    ASSERT_EQ(polled->status, 200) << polled->body;
    if (polled->body.find("\"status\":\"committed\"") != std::string::npos) {
      committed = polled->body;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_FALSE(committed.empty()) << "ticket 1 never committed";
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(committed, "influence"), 4.0);
  EXPECT_NE(committed.find("\"satisfied\":true"), std::string::npos)
      << committed;

  auto unknown = HttpFetch("127.0.0.1", port, "GET", "/tickets/999");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  auto assignment = HttpFetch("127.0.0.1", port, "GET", "/assignment");
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->status, 200);
  EXPECT_NE(assignment->body.find("\"ticket\":1"), std::string::npos);

  auto report = HttpFetch("127.0.0.1", port, "GET", "/report");
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(*ExtractJsonNumber(report->body, "active_contracts"),
                   1.0);

  auto metrics = HttpFetch("127.0.0.1", port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("mroam_serve_batches"), std::string::npos);

  auto cancelled =
      HttpFetch("127.0.0.1", port, "DELETE", "/contracts/1");
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->status, 200);
  auto cancel_again =
      HttpFetch("127.0.0.1", port, "DELETE", "/contracts/1");
  ASSERT_TRUE(cancel_again.ok());
  EXPECT_EQ(cancel_again->status, 404);

  auto malformed = HttpFetch("127.0.0.1", port, "POST", "/contracts",
                             "demand without braces");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed->status, 400);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(MarketServerTest, ConcurrentClientsGetUniqueTickets) {
  MarketServerConfig config = Config();
  config.num_threads = 8;
  MarketServer server(&index_, config);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  constexpr int kThreads = 6;
  constexpr int kPerThread = 4;
  std::vector<std::vector<double>> tickets(kThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerThread; ++k) {
        auto posted = HttpFetch("127.0.0.1", port, "POST", "/contracts",
                                SubmitBody(1 + (c + k) % 3, 5.0));
        ASSERT_TRUE(posted.ok()) << posted.status().ToString();
        ASSERT_EQ(posted->status, 202) << posted->body;
        tickets[c].push_back(*ExtractJsonNumber(posted->body, "ticket"));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  std::set<double> unique;
  for (const auto& per_thread : tickets) {
    unique.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(unique.size(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(*unique.begin(), 1.0);
  EXPECT_DOUBLE_EQ(*unique.rbegin(),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_GE(server.batches_flushed(), 1);
}

TEST_F(MarketServerTest, StopDrainsQueuedArrivals) {
  MarketServerConfig config = Config();
  // A batch that would never flush on its own within the test's horizon:
  // only the drain path can complete these submissions.
  config.max_batch = 1000;
  config.max_batch_delay_seconds = 60.0;
  MarketServer server(&index_, config);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // Submissions answer 202 immediately even though the batch will never
  // flush on its own; the tickets stay pending until the drain replans.
  constexpr int kClients = 3;
  std::vector<int64_t> tickets;
  for (int c = 0; c < kClients; ++c) {
    auto posted = HttpFetch("127.0.0.1", port, "POST", "/contracts",
                            SubmitBody(2, 4.0));
    ASSERT_TRUE(posted.ok()) << posted.status().ToString();
    ASSERT_EQ(posted->status, 202) << posted->body;
    tickets.push_back(
        static_cast<int64_t>(*ExtractJsonNumber(posted->body, "ticket")));
    EXPECT_EQ(server.TicketStatus(tickets.back()),
              MarketServer::TicketState::kPending);
  }
  server.Stop();

  // The drain's final replan committed every queued arrival; the ticket
  // table outlives the sockets, so the outcomes are still visible.
  EXPECT_GE(server.batches_flushed(), 1);
  for (int64_t ticket : tickets) {
    EXPECT_EQ(server.TicketStatus(ticket),
              MarketServer::TicketState::kCommitted)
        << "ticket " << ticket;
  }
  EXPECT_EQ(server.TicketStatus(999),
            MarketServer::TicketState::kUnknown);
  EXPECT_FALSE(server.running());
}

// A drain-time save followed by a restart resumes the market on both
// boots, as mroam_serve runs them: the restarted server holds the drained
// book (day, contracts, deployments, tickets) and mints the ticket after
// it. Half the city's trajectories meet no board, so the boots run on a
// compacted universe.
TEST(MarketServerRestartTest, DrainSaveAndRestartRestoreTheBookOnBothBoots) {
  model::Dataset dataset;
  const influence::InfluenceIndex built = IndexFromIncidence(
      {{0, 2, 4, 6},
       {8, 10, 12, 14},
       {16, 18, 20, 22},
       {24, 26, 28, 30},
       {32, 34},
       {36, 38},
       {40, 42},
       {44, 46}},
      48, &dataset);
  ASSERT_EQ(built.num_covered(), 24);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mroam_restart_test_" + std::to_string(::getpid()) + ".snap"))
          .string();
  auto expect_books_equal = [](const market::ContractBook& got,
                               const market::ContractBook& want) {
    EXPECT_EQ(got.day, want.day);
    EXPECT_EQ(got.next_ticket, want.next_ticket);
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t i = 0; i < want.entries.size(); ++i) {
      const market::ContractBookEntry& g = got.entries[i];
      const market::ContractBookEntry& w = want.entries[i];
      EXPECT_EQ(g.terms.id, w.terms.id);
      EXPECT_EQ(g.terms.demand, w.terms.demand);
      EXPECT_EQ(std::bit_cast<uint64_t>(g.terms.payment),
                std::bit_cast<uint64_t>(w.terms.payment));
      EXPECT_EQ(g.ticket, w.ticket);
      EXPECT_EQ(g.expires_on, w.expires_on);
      EXPECT_EQ(g.billboards, w.billboards);
    }
  };

  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mmap boot" : "decoded boot");
    ASSERT_TRUE(io::SaveIndexSnapshot(path, dataset, built).ok());
    market::ContractBook drained;
    for (int life = 0; life < 2; ++life) {
      std::optional<io::IndexSnapshot> decoded;
      std::optional<io::MappedSnapshot> map;
      const influence::InfluenceIndex* index = nullptr;
      const market::ContractBook* book = nullptr;
      if (mapped) {
        auto booted = io::MappedSnapshot::Map(path);
        ASSERT_TRUE(booted.ok()) << booted.status().ToString();
        map.emplace(std::move(*booted));
        index = &map->index();
        book = &map->book();
      } else {
        auto booted = io::LoadIndexSnapshot(path);
        ASSERT_TRUE(booted.ok()) << booted.status().ToString();
        decoded.emplace(std::move(*booted));
        index = &decoded->index;
        book = &decoded->book;
      }
      MarketServerConfig config;
      config.port = 0;
      config.num_threads = 2;
      config.max_batch = 2;
      config.max_batch_delay_seconds = 0.01;
      config.market.contract_duration_days = 10;
      config.initial_book = *book;
      MarketServer server(index, config);
      if (life == 1) {
        expect_books_equal(*book, drained);
        expect_books_equal(server.ExportBook(), drained);
      }
      ASSERT_TRUE(server.Start().ok());
      for (int k = 0; k < 3; ++k) {
        auto posted =
            HttpFetch("127.0.0.1", server.port(), "POST", "/contracts",
                      "{\"demand\": " + std::to_string(3 + k) +
                          ", \"payment\": " + std::to_string(5 + k) + "}");
        ASSERT_TRUE(posted.ok()) << posted.status().ToString();
        ASSERT_EQ(posted->status, 202) << posted->body;
        if (life == 1 && k == 0) {
          // The ticket sequence continues across the restart.
          EXPECT_EQ(*ExtractJsonNumber(posted->body, "ticket"),
                    static_cast<double>(drained.next_ticket));
        }
      }
      server.Stop();
      drained = server.ExportBook();
      EXPECT_EQ(drained.entries.size(), life == 0 ? 3u : 6u);
      // mroam_serve's drain: a copy of the boot file with this book.
      ASSERT_TRUE(io::ResaveIndexSnapshot(path, path, *index, drained).ok());
    }
  }
  std::filesystem::remove(path);
}

TEST_F(MarketServerTest, StopIsIdempotentAndRestartIsRejectedCleanly) {
  MarketServer server(&index_, Config());
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace mroam::serve
