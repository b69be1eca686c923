#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/random.h"
#include "common/string_util.h"
#include "service/ingest_wire.h"

namespace aqpp {

namespace {

Status StatusFromWire(const Response& response) {
  std::string code = response.Find("code").value_or("Internal");
  std::string msg = response.message.empty() ? code : response.message;
  if (code == "ResourceExhausted") return Status::ResourceExhausted(msg);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(msg);
  if (code == "Cancelled") return Status::Cancelled(msg);
  if (code == "InvalidArgument") return Status::InvalidArgument(msg);
  if (code == "NotFound") return Status::NotFound(msg);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(msg);
  if (code == "Unimplemented") return Status::Unimplemented(msg);
  if (code == "IOError") return Status::IOError(msg);
  if (code == "Unavailable") return Status::Unavailable(msg);
  return Status::Internal(code + ": " + msg);
}

Result<QueryReply> ParseQueryReply(const Response& r) {
  QueryReply reply;
  AQPP_ASSIGN_OR_RETURN(reply.estimate, r.GetDouble("estimate"));
  AQPP_ASSIGN_OR_RETURN(reply.lo, r.GetDouble("lo"));
  AQPP_ASSIGN_OR_RETURN(reply.hi, r.GetDouble("hi"));
  AQPP_ASSIGN_OR_RETURN(reply.half_width, r.GetDouble("half_width"));
  AQPP_ASSIGN_OR_RETURN(reply.level, r.GetDouble("level"));
  reply.cache_hit = r.Find("cache_hit").value_or("0") == "1";
  reply.partial = r.Find("partial").value_or("0") == "1";
  reply.degraded = r.Find("degraded").value_or("0") == "1";
  if (auto rows = r.Find("rows_used")) {
    reply.rows_used = std::strtoull(rows->c_str(), nullptr, 10);
  }
  reply.used_pre = r.Find("pre").value_or("0") == "1";
  if (auto q = r.Find("queue_ms")) reply.queue_ms = std::atof(q->c_str());
  if (auto e = r.Find("exec_ms")) reply.exec_ms = std::atof(e->c_str());
  if (auto g = r.Find("generation")) {
    reply.generation = std::strtoull(g->c_str(), nullptr, 10);
  }
  if (auto d = r.Find("delta_rows")) {
    reply.delta_rows = std::strtoull(d->c_str(), nullptr, 10);
  }
  reply.folded = r.Find("folded").value_or("0") == "1";
  reply.online = r.Find("online").value_or("0") == "1";
  if (auto n = r.Find("rounds")) {
    reply.rounds = std::strtoull(n->c_str(), nullptr, 10);
  }
  return reply;
}

}  // namespace

Result<ServiceClient> ServiceClient::Connect(const std::string& host,
                                             int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(StrFormat("connect %s:%d: %s", host.c_str(),
                                          port, std::strerror(errno)));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ServiceClient client;
  client.fd_ = fd;
  return client;
}

ServiceClient::~ServiceClient() { Close(); }

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void ServiceClient::Close() {
  if (fd_ < 0) return;
  std::string quit = "QUIT\n";
  (void)::send(fd_, quit.data(), quit.size(), MSG_NOSIGNAL);
  ::close(fd_);
  fd_ = -1;
}

Result<std::string> ServiceClient::ReadLine() {
  char chunk[4096];
  for (;;) {
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "recv timed out (SO_RCVTIMEO); connection is now desynchronized");
      }
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status ServiceClient::Send(const std::string& request_line) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string line = request_line;
  line += '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("send failed; connection lost");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Response> ServiceClient::Receive() {
  AQPP_ASSIGN_OR_RETURN(std::string reply, ReadLine());
  return ParseResponse(reply);
}

Result<Response> ServiceClient::Call(const std::string& request_line) {
  AQPP_RETURN_NOT_OK(Send(request_line));
  return Receive();
}

bool ServiceClient::Reusable() const {
  if (fd_ < 0 || !buffer_.empty()) return false;
  // An idle connection has nothing to read: readability here means EOF, a
  // reset, or bytes no request asked for.
  pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
  return ::poll(&pfd, 1, 0) == 0;
}

Status ServiceClient::SetRecvTimeout(double seconds) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec =
        static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                                 1e6);
    // A strictly positive timeout must not round down to {0,0} ("forever").
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    return Status::IOError(std::string("setsockopt(SO_RCVTIMEO): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<uint64_t> ServiceClient::Hello(const std::string& name) {
  AQPP_ASSIGN_OR_RETURN(Response r,
                        Call(name.empty() ? "HELLO" : "HELLO " + name));
  if (!r.ok) return StatusFromWire(r);
  return r.GetUint("session");
}

Status ServiceClient::Ping() {
  AQPP_ASSIGN_OR_RETURN(Response r, Call("PING"));
  if (!r.ok) return StatusFromWire(r);
  return Status::OK();
}

Status ServiceClient::SetTimeoutMs(int64_t ms) {
  AQPP_ASSIGN_OR_RETURN(
      Response r,
      Call(StrFormat("SET TIMEOUT_MS %lld", static_cast<long long>(ms))));
  if (!r.ok) return StatusFromWire(r);
  return Status::OK();
}

Status ServiceClient::SetSynopsis(const std::string& kind) {
  AQPP_ASSIGN_OR_RETURN(
      Response r, Call("SET SYNOPSIS " + (kind.empty() ? "off" : kind)));
  if (!r.ok) return StatusFromWire(r);
  return Status::OK();
}

Result<QueryReply> ServiceClient::Query(const std::string& sql) {
  AQPP_ASSIGN_OR_RETURN(Response r, Call("QUERY " + sql));
  if (!r.ok) return StatusFromWire(r);
  return ParseQueryReply(r);
}

Status ServiceClient::SetMode(const std::string& mode) {
  AQPP_ASSIGN_OR_RETURN(Response r, Call("SET MODE " + mode));
  if (!r.ok) return StatusFromWire(r);
  return Status::OK();
}

Result<QueryReply> ServiceClient::QueryOnline(
    const std::string& sql,
    const std::function<bool(const ProgressLine&)>& on_progress) {
  AQPP_RETURN_NOT_OK(Send("QUERY " + sql));
  bool cancel_sent = false;
  for (;;) {
    AQPP_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line.rfind("PROGRESS", 0) == 0) {
      AQPP_ASSIGN_OR_RETURN(ProgressLine p, ParseProgressLine(line));
      if (on_progress && !on_progress(p) && !cancel_sent) {
        AQPP_RETURN_NOT_OK(Send("CANCEL"));
        cancel_sent = true;
      }
      continue;
    }
    AQPP_ASSIGN_OR_RETURN(Response r, ParseResponse(line));
    if (!r.ok) return StatusFromWire(r);
    bool cancelled = r.Find("cancelled").value_or("0") == "1";
    if (cancel_sent && !cancelled) {
      // The final line beat our CANCEL to the server; the stray verb gets
      // its own "OK cancelled=0" reply — consume it to stay in sync.
      AQPP_ASSIGN_OR_RETURN(std::string stray, ReadLine());
      (void)stray;
    }
    if (cancelled) {
      QueryReply reply;
      reply.online = true;
      reply.cancelled = true;
      if (auto n = r.Find("rounds")) {
        reply.rounds = std::strtoull(n->c_str(), nullptr, 10);
      }
      return reply;
    }
    return ParseQueryReply(r);
  }
}

Result<IngestReply> ServiceClient::Ingest(const Table& batch) {
  AQPP_ASSIGN_OR_RETURN(std::string payload, EncodeIngestBatch(batch));
  AQPP_ASSIGN_OR_RETURN(Response r, Call("INGEST " + payload));
  if (!r.ok) return StatusFromWire(r);
  IngestReply reply;
  AQPP_ASSIGN_OR_RETURN(reply.appended, r.GetUint("appended"));
  AQPP_ASSIGN_OR_RETURN(reply.generation, r.GetUint("generation"));
  AQPP_ASSIGN_OR_RETURN(reply.delta_rows, r.GetUint("delta_rows"));
  AQPP_ASSIGN_OR_RETURN(reply.total_rows, r.GetUint("total_rows"));
  return reply;
}

Result<QueryReply> ServiceClient::QueryWithRetry(const std::string& sql,
                                                 const RetryPolicy& policy) {
  const int max_attempts = std::max(1, policy.max_attempts);
  Deadline deadline = policy.total_deadline_seconds > 0
                          ? Deadline::After(policy.total_deadline_seconds)
                          : Deadline::Infinite();
  Rng rng(policy.seed == 0 ? 1 : policy.seed);
  double backoff = std::max(0.0, policy.initial_backoff_seconds);
  Status last_reject = Status::OK();
  // Degraded coordinator answers are OK-but-flagged; with retry_degraded the
  // loop resubmits for a full answer but keeps the best degraded reply as
  // the fallback — a widened CI beats an error when the shard stays down.
  std::optional<QueryReply> last_degraded;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    AQPP_ASSIGN_OR_RETURN(Response r, Call("QUERY " + sql));
    bool degraded_retry = false;
    if (r.ok) {
      AQPP_ASSIGN_OR_RETURN(QueryReply reply, ParseQueryReply(r));
      if (!reply.degraded || !policy.retry_degraded) return reply;
      last_degraded = std::move(reply);
      degraded_retry = true;
      if (attempt == max_attempts) break;
    } else {
      Status st = StatusFromWire(r);
      if (st.code() != StatusCode::kResourceExhausted) return st;
      last_reject = std::move(st);
      if (attempt == max_attempts) break;
    }
    double sleep_seconds = backoff;
    if (!degraded_retry) {
      if (auto hint = r.GetUint("retry_after_ms"); hint.ok()) {
        sleep_seconds = static_cast<double>(*hint) / 1000.0;
      }
    }
    sleep_seconds = std::min(sleep_seconds, policy.max_backoff_seconds);
    if (policy.jitter_fraction > 0) {
      double j = std::min(policy.jitter_fraction, 1.0);
      sleep_seconds *= 1.0 - j + 2.0 * j * rng.NextDouble();
    }
    if (sleep_seconds > deadline.remaining_seconds()) {
      if (last_degraded.has_value()) return *last_degraded;
      return Status::Unavailable(StrFormat(
          "service saturated: retry budget of %.3fs exhausted after %d "
          "attempts (last rejection: %s)",
          policy.total_deadline_seconds, attempt,
          last_reject.message().c_str()));
    }
    if (policy.on_backoff) policy.on_backoff(attempt, sleep_seconds);
    SleepFor(sleep_seconds);
    backoff = std::min(backoff * 2.0, policy.max_backoff_seconds);
  }
  if (last_degraded.has_value()) return *last_degraded;
  return Status::Unavailable(StrFormat(
      "service saturated: still rejected after %d attempts (last rejection: "
      "%s)",
      max_attempts, last_reject.message().c_str()));
}

Result<QueryReply> ServiceClient::QueryWithRetry(const std::string& sql,
                                                 int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  return QueryWithRetry(sql, policy);
}

Result<std::vector<std::pair<std::string, std::string>>>
ServiceClient::Stats() {
  AQPP_ASSIGN_OR_RETURN(Response r, Call("STATS"));
  if (!r.ok) return StatusFromWire(r);
  return r.fields;
}

Result<std::string> ServiceClient::Metrics() {
  AQPP_ASSIGN_OR_RETURN(Response r, Call("METRICS"));
  if (!r.ok) return StatusFromWire(r);
  AQPP_ASSIGN_OR_RETURN(uint64_t lines, r.GetUint("lines"));
  std::string text;
  for (uint64_t i = 0; i <= lines; ++i) {
    AQPP_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line == "# EOF") return text;
    text += line;
    text += '\n';
  }
  return Status::Internal("METRICS block missing its # EOF terminator");
}

}  // namespace aqpp
