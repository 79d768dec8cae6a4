#ifndef MROAM_SERVE_HTTP_H_
#define MROAM_SERVE_HTTP_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mroam::serve {

// ---------------------------------------------------------------------------
// Minimal dependency-free HTTP/1.1 plumbing over POSIX sockets: just enough
// protocol for the market serving layer (MarketServer) and its load
// generator / test clients. Persistent connections are first-class:
// requests are framed incrementally (RequestFramer) so one connection can
// carry many pipelined requests, and the Connection header is negotiated
// per request (HTTP/1.1 defaults to keep-alive, "close" is honored,
// HTTP/1.0 closes unless the client asks to keep alive). No TLS, no
// chunked encoding — the serving layer's clients are command-line tools
// and benches on the same host.
// ---------------------------------------------------------------------------

/// Upper bound on request head (request line + headers) accepted by the
/// framer; larger requests fail with kInvalidArgument.
inline constexpr size_t kMaxHttpHeadBytes = 64 * 1024;
/// Upper bound on a request/response body.
inline constexpr size_t kMaxHttpBodyBytes = 16 * 1024 * 1024;

/// Read/write deadlines for one socket operation. Two budgets compose:
/// `idle_ms` bounds the wait for the *next* byte (a slow-loris client
/// dribbling one byte per minute trips it), `total_ms` bounds the whole
/// operation (a client dribbling fast enough to stay under the idle
/// budget still cannot pin a thread forever). -1 disables a budget; the
/// default is fully blocking, matching the pre-deadline behavior.
struct HttpTimeouts {
  int idle_ms = -1;
  int total_ms = -1;
};

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (uppercase as sent)
  std::string target;   ///< request target, e.g. "/contracts/12"
  std::string version;  ///< "HTTP/1.1"
  /// Header (name, value) pairs; names are lowercased by the parser.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of the named header (lowercase), or "" when absent.
  std::string_view HeaderOr(std::string_view name,
                            std::string_view fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra response headers beyond Content-Type/Content-Length/Connection
  /// (e.g. Retry-After on a shed, X-Mroam-Stale on a degraded read).
  /// Serialized verbatim; on fetched responses, names are lowercased by
  /// the client-side parser.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Whether the connection stays open after this response; Serialize
  /// emits the matching Connection header. Defaults to close, so one-shot
  /// callers (tests, error paths) stay correct without negotiating.
  bool keep_alive = false;

  /// Full HTTP/1.1 wire form. Content-Type, Content-Length and Connection
  /// are owned by the serializer: caller-supplied duplicates in `headers`
  /// are dropped rather than emitted twice (a duplicated framing header
  /// desynchronizes every later request on a kept-alive connection).
  std::string Serialize() const;

  /// Value of the named header (lowercase for fetched responses), or ""
  /// when absent.
  std::string_view HeaderOr(std::string_view name,
                            std::string_view fallback = "") const;
};

/// Canonical reason phrase for the status codes the server emits
/// ("OK", "Bad Request", ...); "Unknown" otherwise.
const char* HttpStatusReason(int status);

/// Parses a request head (everything before the blank line, excluding the
/// final CRLF CRLF) into method/target/version/headers. Strict on the
/// request line: exactly two single spaces, so a target with an embedded
/// space ("GET /a b HTTP/1.1") is rejected instead of silently parsed as
/// "/a b". Header lines must carry a non-empty name (": value" is
/// malformed). The body is NOT consumed here — callers read it per
/// Content-Length.
common::Result<HttpRequest> ParseRequestHead(std::string_view head);

/// Parses a response head (status line + headers, excluding the blank
/// line) into status and lowercased header pairs; the body is not
/// touched. Unparseable header lines are skipped rather than failing —
/// the status and body are what every caller needs.
common::Result<HttpResponse> ParseResponseHead(std::string_view head);

/// Strict Content-Length parse: ASCII digits only — no sign, whitespace,
/// 0x prefix, or trailing junk (all of which strtoull-style parsing would
/// quietly accept, a classic request-smuggling vector) — rejecting empty
/// input and values above kMaxHttpBodyBytes. RequestFramer and the
/// client apply it to every Content-Length header; the framer also
/// rejects duplicates with conflicting values.
common::Result<size_t> ParseContentLength(std::string_view text);

/// Incremental request parser for persistent connections: feed raw bytes
/// as they arrive, pull complete requests out one at a time. Bytes after
/// a complete request stay buffered — they are the next pipelined
/// request, not an error. Single-owner (one framer per connection); the
/// head scan resumes where the previous one left off, so dribbled input
/// stays O(n).
class RequestFramer {
 public:
  enum class Outcome {
    kRequest,   ///< *request holds the next complete request
    kNeedMore,  ///< a prefix is buffered; feed more bytes
    kError,     ///< malformed framing; the connection must close
  };

  /// Appends newly received bytes.
  void Feed(const char* data, size_t n);

  /// Frames the next complete request out of the buffer. On kRequest the
  /// consumed bytes are removed; on kError *error carries the parse
  /// failure (the stream is desynchronized — close after responding).
  Outcome Next(HttpRequest* request, common::Status* error);

  /// True when the buffer holds bytes of a not-yet-complete request —
  /// the difference between "idle between requests" (quiet close) and
  /// "stalled mid-request" (408) for the server's deadline handling.
  bool MidRequest() const { return !buffer_.empty(); }

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t search_from_ = 0;
};

/// Writes all of `data` to `fd` (retrying short writes and EINTR,
/// ignoring SIGPIPE — a half-closed peer surfaces as kIoError, never a
/// signal). With timeouts, a peer that stops draining its receive window
/// fails the write with kDeadlineExceeded instead of blocking forever.
common::Status WriteAll(int fd, std::string_view data,
                        const HttpTimeouts& timeouts = {});

/// Blocking single-request HTTP client for benches and tests: connects to
/// host:port, sends `method target` with `body` and Connection: close,
/// returns the parsed response. The connection is closed afterwards.
common::Result<HttpResponse> HttpFetch(const std::string& host, int port,
                                       const std::string& method,
                                       const std::string& target,
                                       const std::string& body = "");

/// Persistent (keep-alive) HTTP/1.1 client for benches and tests. One
/// connection carries many requests; Send() without an interleaved
/// ReadResponse() pipelines. Responses are framed by Content-Length
/// (falling back to read-to-EOF when the server omits it). Move-only;
/// not thread-safe.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to a numeric IPv4 host:port (closing any prior connection).
  common::Status Connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request with Connection: keep-alive, without waiting for
  /// the response — call ReadResponse() once per Send(), in order.
  common::Status Send(const std::string& method, const std::string& target,
                      const std::string& body = "",
                      const HttpTimeouts& timeouts = {});

  /// Reads the next response off the connection. Fails with kIoError on
  /// socket errors or EOF mid-response, and kDeadlineExceeded when either
  /// `timeouts` budget runs out (the default timeouts block forever);
  /// interrupted syscalls (EINTR) are retried with the remaining budget
  /// recomputed. A server that announced Connection: close (or EOF
  /// mid-stream) closes the client; a fresh Connect() is needed
  /// afterwards.
  common::Result<HttpResponse> ReadResponse(const HttpTimeouts& timeouts = {});

  /// Send + ReadResponse in one call (the common non-pipelined case).
  common::Result<HttpResponse> Fetch(const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "",
                                     const HttpTimeouts& timeouts = {});

 private:
  int fd_ = -1;
  std::string host_;
  std::string buffer_;  ///< bytes past the previously framed response
};

/// Extracts a top-level numeric JSON field (e.g. `"demand": 120`) from a
/// flat JSON object without a full parser. Fails with kInvalidArgument
/// when the key is missing or its value is not a number.
common::Result<double> ExtractJsonNumber(std::string_view json,
                                         std::string_view key);

/// Splits a request target at the first '?': "/debug/trace?ms=250"
/// becomes {"/debug/trace", "ms=250"}. A target without a query string
/// yields an empty second element. Fragments are not handled (clients in
/// this repo never send them).
std::pair<std::string_view, std::string_view> SplitTarget(
    std::string_view target);

/// Value of `key` in an urlencoded query string ("a=1&b=2"), or "" when
/// absent or valueless. No percent-decoding — the serving layer's query
/// parameters are plain integers.
std::string_view QueryParam(std::string_view query, std::string_view key);

}  // namespace mroam::serve

#endif  // MROAM_SERVE_HTTP_H_
