#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/strings.h"

namespace mroam::serve {

using common::Result;
using common::Status;

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

using Clock = std::chrono::steady_clock;

/// Tracks one operation's whole-budget deadline; the idle budget is
/// re-applied per wait in WaitReadable/WaitWritable.
struct Deadline {
  explicit Deadline(const HttpTimeouts& timeouts)
      : idle_ms(timeouts.idle_ms), has_total(timeouts.total_ms >= 0) {
    if (has_total) {
      total = Clock::now() + std::chrono::milliseconds(timeouts.total_ms);
    }
  }

  int idle_ms;
  bool has_total;
  Clock::time_point total{};
};

/// poll()s `fd` for `events` under the idle and total budgets. EINTR
/// retries recompute the remaining budget, so a signal storm cannot
/// extend a deadline. Returns kDeadlineExceeded naming the budget that
/// ran out; POLLERR/POLLHUP fall through to the following recv/send,
/// which surfaces the socket error.
Status WaitReady(int fd, short events, const Deadline& deadline,
                 const char* what) {
  while (true) {
    int wait_ms = deadline.idle_ms;
    // Which budget this wait is charged against. Attribution must be
    // explicit: the earlier `wait_ms == idle_ms` test misreported a
    // total-budget expiry as an idle timeout whenever the remaining
    // total happened to equal the idle budget — the idle budget is the
    // binding one only when it is strictly shorter than what is left of
    // the total.
    bool idle_binding = deadline.idle_ms >= 0;
    if (deadline.has_total) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline.total - Clock::now());
      const int remaining_ms =
          static_cast<int>(std::max<int64_t>(remaining.count(), 0));
      if (remaining_ms == 0) {
        return Status::DeadlineExceeded(std::string(what) +
                                        " exceeded its request budget");
      }
      idle_binding = deadline.idle_ms >= 0 && deadline.idle_ms < remaining_ms;
      wait_ms = wait_ms < 0 ? remaining_ms : std::min(wait_ms, remaining_ms);
    }
    if (wait_ms < 0) return Status::Ok();  // fully blocking
    pollfd pfd{fd, events, 0};
    int ready = poll(&pfd, 1, wait_ms);
    if (ready > 0) return Status::Ok();
    if (ready == 0) {
      if (idle_binding) {
        return Status::DeadlineExceeded(std::string(what) +
                                        " idle for " +
                                        std::to_string(deadline.idle_ms) +
                                        "ms");
      }
      return Status::DeadlineExceeded(std::string(what) +
                                      " exceeded its request budget");
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("poll failed: ") +
                           std::strerror(errno));
  }
}

/// One deadline-guarded recv. Returns 0 on orderly EOF; retries EINTR.
Result<size_t> RecvSome(int fd, char* chunk, size_t capacity,
                        const Deadline& deadline) {
  while (true) {
    MROAM_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline, "HTTP read"));
    ssize_t n = recv(fd, chunk, capacity, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Status::IoError(std::string("recv failed: ") +
                           std::strerror(errno));
  }
}

}  // namespace

std::string_view HttpRequest::HeaderOr(std::string_view name,
                                       std::string_view fallback) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return fallback;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string_view HttpResponse::HeaderOr(std::string_view name,
                                        std::string_view fallback) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return fallback;
}

std::string HttpResponse::Serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpStatusReason(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [name, value] : headers) {
    // The framing headers are owned by this serializer; a caller that
    // echoes them into `headers` must not produce a duplicate (or
    // contradictory) line — on a kept-alive connection a second
    // Content-Length desynchronizes every later response.
    const std::string lower = ToLower(name);
    if (lower == "content-type" || lower == "content-length" ||
        lower == "connection") {
      continue;
    }
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += body;
  return out;
}

Result<HttpRequest> ParseRequestHead(std::string_view head) {
  HttpRequest request;
  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  // Exactly two single separating spaces: method SP target SP version.
  // `rfind` alone would quietly swallow a space *inside* the target
  // ("GET /a b HTTP/1.1" parsed as target "/a b"), which on a kept-alive
  // connection lets a malformed request smuggle past the router.
  if (sp1 == std::string_view::npos || sp2 == sp1 ||
      request_line.find(' ', sp1 + 1) != sp2) {
    return Status::InvalidArgument("malformed HTTP request line: '" +
                                   std::string(request_line) + "'");
  }
  request.method = std::string(request_line.substr(0, sp1));
  request.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(request_line.substr(sp2 + 1));
  if (request.method.empty() || request.target.empty() ||
      request.version.rfind("HTTP/", 0) != 0) {
    return Status::InvalidArgument("malformed HTTP request line: '" +
                                   std::string(request_line) + "'");
  }

  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : head.substr(line_end + 2);
  for (std::string_view line : common::Split(rest, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed HTTP header line: '" +
                                     std::string(line) + "'");
    }
    std::string name = ToLower(common::StripWhitespace(line.substr(0, colon)));
    // ": value" has no field name; accepting it would register a header
    // under "" that HeaderOr("") then finds — reject like any other
    // malformed line.
    if (name.empty()) {
      return Status::InvalidArgument("malformed HTTP header line: '" +
                                     std::string(line) + "'");
    }
    request.headers.emplace_back(
        std::move(name),
        std::string(common::StripWhitespace(line.substr(colon + 1))));
  }
  return request;
}

Result<size_t> ParseContentLength(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("bad Content-Length: ''");
  }
  size_t length = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad Content-Length: '" +
                                     std::string(text) + "'");
    }
    size_t digit = static_cast<size_t>(c - '0');
    if (length > (kMaxHttpBodyBytes - digit) / 10) {
      return Status::InvalidArgument("Content-Length exceeds body limit: '" +
                                     std::string(text) + "'");
    }
    length = length * 10 + digit;
  }
  if (length > kMaxHttpBodyBytes) {
    return Status::InvalidArgument("Content-Length exceeds body limit: '" +
                                   std::string(text) + "'");
  }
  return length;
}

void RequestFramer::Feed(const char* data, size_t n) {
  buffer_.append(data, n);
}

RequestFramer::Outcome RequestFramer::Next(HttpRequest* request,
                                           common::Status* error) {
  static constexpr std::string_view kMarker = "\r\n\r\n";
  size_t pos = buffer_.find(kMarker, search_from_);
  if (pos == std::string::npos) {
    if (buffer_.size() > kMaxHttpHeadBytes) {
      *error = Status::InvalidArgument(
          "HTTP head exceeds " + std::to_string(kMaxHttpHeadBytes) +
          " bytes");
      return Outcome::kError;
    }
    // Resume the next scan where this one could not yet have matched: a
    // marker absent from the first `size` bytes can only start within
    // the last marker.size()-1 of them.
    search_from_ = buffer_.size() >= kMarker.size() - 1
                       ? buffer_.size() - (kMarker.size() - 1)
                       : 0;
    return Outcome::kNeedMore;
  }
  if (pos > kMaxHttpHeadBytes) {
    *error = Status::InvalidArgument(
        "HTTP head exceeds " + std::to_string(kMaxHttpHeadBytes) + " bytes");
    return Outcome::kError;
  }

  common::Result<HttpRequest> parsed =
      ParseRequestHead(std::string_view(buffer_).substr(0, pos));
  if (!parsed.ok()) {
    *error = parsed.status();
    return Outcome::kError;
  }

  // Every Content-Length header must parse strictly and agree: duplicate
  // headers with conflicting values are a request-smuggling staple, so
  // they are rejected rather than resolved by first- or last-wins.
  size_t length = 0;
  bool have_length = false;
  for (const auto& [key, value] : parsed->headers) {
    if (key != "content-length") continue;
    common::Result<size_t> one = ParseContentLength(value);
    if (!one.ok()) {
      *error = one.status();
      return Outcome::kError;
    }
    if (have_length && *one != length) {
      *error = Status::InvalidArgument(
          "conflicting duplicate Content-Length headers");
      return Outcome::kError;
    }
    length = *one;
    have_length = true;
  }

  const size_t body_start = pos + kMarker.size();
  if (buffer_.size() - body_start < length) {
    // Head is complete but the body is still arriving; pin the scan to
    // the found marker so the re-find after the next Feed is O(1).
    search_from_ = pos;
    return Outcome::kNeedMore;
  }
  *request = std::move(*parsed);
  request->body = buffer_.substr(body_start, length);
  // Bytes past the body are not an error: they are the next pipelined
  // request.
  buffer_.erase(0, body_start + length);
  search_from_ = 0;
  return Outcome::kRequest;
}

Status WriteAll(int fd, std::string_view data,
                const HttpTimeouts& timeouts) {
  const Deadline deadline(timeouts);
  const bool bounded = deadline.idle_ms >= 0 || deadline.has_total;
  // A blocking send() on a stream socket parks until EVERY byte is
  // queued, which would let a non-draining peer sail past the deadline
  // inside the syscall. With a budget armed, send non-blockingly and
  // let WaitReady own all the waiting (and the deadline enforcement).
  int flags = 0;
#ifdef MSG_NOSIGNAL
  flags |= MSG_NOSIGNAL;
#endif
  if (bounded) flags |= MSG_DONTWAIT;
  size_t sent = 0;
  while (sent < data.size()) {
    if (bounded) {
      MROAM_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline, "HTTP write"));
    }
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-poll
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// socket() + TCP_NODELAY + connect() to a numeric IPv4 host, with the
/// EINTR-resume dance; shared by HttpFetch and HttpClient::Connect.
Result<int> ConnectTcp(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  // The serving layer's requests are small and latency-bound.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("HTTP client needs a numeric IPv4 host, "
                                   "got '" + host + "'");
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // An EINTR'd connect keeps going in the kernel; a second connect()
    // would report EALREADY. Wait for completion and read the outcome
    // from SO_ERROR instead of surfacing a spurious IoError.
    bool connected = false;
    if (errno == EINTR) {
      pollfd pfd{fd, POLLOUT, 0};
      int ready;
      do {
        ready = poll(&pfd, 1, -1);
      } while (ready < 0 && errno == EINTR);
      int error = 0;
      socklen_t error_len = sizeof(error);
      connected = ready > 0 &&
                  getsockopt(fd, SOL_SOCKET, SO_ERROR, &error,
                             &error_len) == 0 &&
                  error == 0;
      if (!connected) errno = error != 0 ? error : errno;
    }
    if (!connected) {
      Status status(common::StatusCode::kIoError,
                    "connect to " + host + ":" + std::to_string(port) +
                        " failed: " + std::strerror(errno));
      close(fd);
      return status;
    }
  }
  return fd;
}

}  // namespace

Result<HttpResponse> ParseResponseHead(std::string_view head) {
  size_t line_end = head.find("\r\n");
  std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos) {
    return Status::IoError("malformed HTTP status line: '" +
                           std::string(status_line) + "'");
  }
  MROAM_ASSIGN_OR_RETURN(int64_t code,
                         common::ParseInt64(status_line.substr(sp + 1, 3)));

  HttpResponse response;
  response.status = static_cast<int>(code);
  // Response headers (lowercased names), so callers can read Retry-After
  // on a shed or X-Mroam-Stale on a degraded read.
  std::string_view header_block =
      line_end == std::string_view::npos
          ? std::string_view()
          : head.substr(line_end + 2);
  for (std::string_view line : common::Split(header_block, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    size_t colon = line.find(':');
    if (line.empty() || colon == std::string_view::npos) continue;
    response.headers.emplace_back(
        ToLower(common::StripWhitespace(line.substr(0, colon))),
        std::string(common::StripWhitespace(line.substr(colon + 1))));
  }
  return response;
}

Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body) {
  MROAM_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port));

  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: " + host + "\r\n" +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n" + "Connection: close\r\n\r\n" + body;
  Status write_status = WriteAll(fd, request);
  if (!write_status.ok()) {
    close(fd);
    return write_status;
  }

  // The server closes after one response, so read to EOF and parse.
  std::string raw;
  while (true) {
    char chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status(common::StatusCode::kIoError,
                    std::string("recv failed: ") + std::strerror(errno));
      close(fd);
      return status;
    }
    raw.append(chunk, static_cast<size_t>(n));
    if (raw.size() > kMaxHttpHeadBytes + kMaxHttpBodyBytes) {
      close(fd);
      return Status::InvalidArgument("HTTP response too large");
    }
  }
  close(fd);

  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IoError("malformed HTTP response (no header terminator)");
  }
  MROAM_ASSIGN_OR_RETURN(
      HttpResponse response,
      ParseResponseHead(std::string_view(raw).substr(0, head_end)));
  response.body = raw.substr(head_end + 4);
  return response;
}

HttpClient::~HttpClient() { Close(); }

HttpClient::HttpClient(HttpClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Status HttpClient::Connect(const std::string& host, int port) {
  Close();
  MROAM_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port));
  fd_ = fd;
  host_ = host;
  buffer_.clear();
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status HttpClient::Send(const std::string& method, const std::string& target,
                        const std::string& body,
                        const HttpTimeouts& timeouts) {
  if (fd_ < 0) return Status::IoError("HttpClient is not connected");
  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: " + host_ + "\r\n" +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n" + "Connection: keep-alive\r\n\r\n" + body;
  Status written = WriteAll(fd_, request, timeouts);
  if (!written.ok()) Close();
  return written;
}

Result<HttpResponse> HttpClient::ReadResponse(const HttpTimeouts& timeouts) {
  if (fd_ < 0) return Status::IoError("HttpClient is not connected");
  const Deadline deadline(timeouts);

  // Head: buffered bytes from the previous response may already hold it.
  size_t head_end;
  size_t search_from = 0;
  while (true) {
    head_end = buffer_.find("\r\n\r\n", search_from);
    if (head_end != std::string::npos) break;
    if (buffer_.size() > kMaxHttpHeadBytes) {
      Close();
      return Status::InvalidArgument("HTTP response head too large");
    }
    search_from = buffer_.size() >= 3 ? buffer_.size() - 3 : 0;
    char chunk[4096];
    common::Result<size_t> n = RecvSome(fd_, chunk, sizeof(chunk), deadline);
    if (!n.ok()) {
      Close();
      return n.status();
    }
    if (*n == 0) {
      Close();
      return Status::IoError("connection closed before full HTTP response");
    }
    buffer_.append(chunk, *n);
  }
  MROAM_ASSIGN_OR_RETURN(
      HttpResponse response,
      ParseResponseHead(std::string_view(buffer_).substr(0, head_end)));

  const size_t body_start = head_end + 4;
  std::string_view length_text = response.HeaderOr("content-length");
  if (!length_text.empty()) {
    MROAM_ASSIGN_OR_RETURN(size_t length, ParseContentLength(length_text));
    while (buffer_.size() - body_start < length) {
      char chunk[4096];
      common::Result<size_t> n =
          RecvSome(fd_, chunk, sizeof(chunk), deadline);
      if (!n.ok()) {
        Close();
        return n.status();
      }
      if (*n == 0) {
        Close();
        return Status::IoError("connection closed before full HTTP body");
      }
      buffer_.append(chunk, *n);
    }
    response.body = buffer_.substr(body_start, length);
    buffer_.erase(0, body_start + length);
  } else {
    // No Content-Length: the body runs to EOF (and so does the
    // connection).
    while (true) {
      char chunk[4096];
      common::Result<size_t> n =
          RecvSome(fd_, chunk, sizeof(chunk), deadline);
      if (!n.ok()) {
        Close();
        return n.status();
      }
      if (*n == 0) break;
      buffer_.append(chunk, *n);
      if (buffer_.size() > kMaxHttpHeadBytes + kMaxHttpBodyBytes) {
        Close();
        return Status::InvalidArgument("HTTP response too large");
      }
    }
    response.body = buffer_.substr(body_start);
    Close();
    return response;
  }
  // A server announcing close will not frame another response; drop the
  // connection now so the next Fetch reconnects instead of failing.
  if (response.HeaderOr("connection") == "close") Close();
  return response;
}

Result<HttpResponse> HttpClient::Fetch(const std::string& method,
                                       const std::string& target,
                                       const std::string& body,
                                       const HttpTimeouts& timeouts) {
  MROAM_RETURN_IF_ERROR(Send(method, target, body, timeouts));
  return ReadResponse(timeouts);
}

std::pair<std::string_view, std::string_view> SplitTarget(
    std::string_view target) {
  size_t q = target.find('?');
  if (q == std::string_view::npos) {
    return {target, std::string_view()};
  }
  return {target.substr(0, q), target.substr(q + 1)};
}

std::string_view QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    std::string_view pair = query.substr(
        pos, amp == std::string_view::npos ? std::string_view::npos
                                           : amp - pos);
    size_t eq = pair.find('=');
    std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return eq == std::string_view::npos ? std::string_view()
                                          : pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return std::string_view();
}

Result<double> ExtractJsonNumber(std::string_view json,
                                 std::string_view key) {
  std::string quoted;
  quoted.reserve(key.size() + 2);
  quoted.push_back('"');
  quoted.append(key);
  quoted.push_back('"');
  size_t pos = json.find(quoted);
  if (pos == std::string_view::npos) {
    return Status::InvalidArgument("missing JSON field '" +
                                   std::string(key) + "'");
  }
  pos += quoted.size();
  while (pos < json.size() &&
         (json[pos] == ' ' || json[pos] == '\t' || json[pos] == ':')) {
    ++pos;
  }
  size_t end = pos;
  while (end < json.size() &&
         (std::isdigit(static_cast<unsigned char>(json[end])) ||
          json[end] == '-' || json[end] == '+' || json[end] == '.' ||
          json[end] == 'e' || json[end] == 'E')) {
    ++end;
  }
  if (end == pos) {
    return Status::InvalidArgument("JSON field '" + std::string(key) +
                                   "' is not a number");
  }
  return common::ParseDouble(json.substr(pos, end - pos));
}

}  // namespace mroam::serve
