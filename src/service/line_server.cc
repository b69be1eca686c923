#include "service/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "service/protocol.h"

namespace aqpp {

namespace {

constexpr int kListenBacklog = 64;

// Writes all of `s` (blocking socket); false on a broken connection. The
// send failpoint simulates a peer that vanished mid-reply: partial-io
// transmits a prefix and then reports the connection broken, so tests can
// verify clients treat truncated frames as connection errors.
bool SendAll(int fd, const std::string& s,
             [[maybe_unused]] const std::string& failpoint) {
  size_t limit = s.size();
  if (auto fired = AQPP_FAILPOINT_EVAL(failpoint.c_str())) {
    if (fired->kind == fail::ActionKind::kReturnError) return false;
    if (fired->kind == fail::ActionKind::kPartialIo) {
      limit = static_cast<size_t>(static_cast<double>(s.size()) *
                                  fired->io_fraction);
    }
  }
  size_t sent = 0;
  while (sent < limit) {
    ssize_t n = ::send(fd, s.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return sent == s.size();
}

bool Fires([[maybe_unused]] const std::string& failpoint) {
  auto fired = AQPP_FAILPOINT_EVAL(failpoint.c_str());
  return fired.has_value() && fired->kind == fail::ActionKind::kReturnError;
}

}  // namespace

bool LineConnection::SendLine(const std::string& line) {
  return SendAll(fd_, line + "\n", send_failpoint_);
}

std::optional<std::string> LineConnection::PeekLine(int wait_ms) {
  if (wait_ms > 0 && buffer_.find('\n') == std::string::npos) {
    pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
    ::poll(&pfd, 1, wait_ms);
  }
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n <= 0) break;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = buffer_.substr(0, nl);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

void LineConnection::DropLine() {
  size_t nl = buffer_.find('\n');
  if (nl != std::string::npos) buffer_.erase(0, nl + 1);
}

LineServer::LineServer(const std::string& failpoint_prefix,
                       HandlerFactory factory)
    : accept_failpoint_(failpoint_prefix + "/accept"),
      recv_failpoint_(failpoint_prefix + "/recv"),
      send_failpoint_(failpoint_prefix + "/send"),
      factory_(std::move(factory)) {}

LineServer::~LineServer() { Stop(); }

Status LineServer::Start(const ListenOptions& options) {
  if (running_.load()) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + options.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, kListenBacklog) < 0) {
    Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LineServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    // Simulated accept-path failure: the kernel handed us a connection but
    // the server drops it before registering (e.g. fd-limit pressure).
    if (Fires(accept_failpoint_)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load() || live_.size() >= kMaxConnections) {
      const std::string reject =
          ErrorReply(Status::ResourceExhausted("connection limit reached"));
      SendAll(fd, reject + "\n", send_failpoint_);
      ::close(fd);
      continue;
    }
    // Registered under the lock, so Retire() always finds the entry.
    live_.emplace(fd, std::thread([this, fd] { Serve(fd); }));
  }
}

void LineServer::Serve(int fd) {
  {
    LineConnection conn(fd, send_failpoint_);
    auto handler = factory_(&conn);
    if (handler.ok()) {
      ReadLines(&conn, *handler);
    } else {
      conn.SendLine(ErrorReply(handler.status()));
    }
  }  // the handler and its per-connection state die before the fd closes
  Retire(fd);
}

void LineServer::ReadLines(LineConnection* conn, const LineHandler& handler) {
  std::string& buffer = conn->buffer_;
  char chunk[65536];
  bool quit = false;
  while (!quit) {
    // Simulated mid-session connection drop on the read side.
    if (Fires(recv_failpoint_)) break;
    ssize_t n = ::recv(conn->fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // disconnect or Stop()
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (!quit && (nl = buffer.find('\n')) <= kMaxLineBytes) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (TrimWhitespace(line).empty()) continue;
      std::string reply = handler(line, &quit);
      if (!reply.empty() && !conn->SendLine(reply)) quit = true;
    }
    // What is left is a line over the cap (complete or not): it can never
    // become a servable request, and resyncing mid-payload is ambiguous, so
    // reply once and close.
    if (!quit && buffer.size() > kMaxLineBytes) {
      conn->SendLine(ErrorReply(
          Status::InvalidArgument("request line over the size cap")));
      break;
    }
  }
}

void LineServer::Retire(int fd) {
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(fd);
    previous = std::exchange(finished_, std::move(it->second));
    live_.erase(it);
    // Closed under the lock: the fd number cannot be reused by a new
    // connection while this one is still registered under it.
    ::close(fd);
    if (live_.empty()) drained_.notify_all();
  }
  // Each exiting thread joins the one that exited before it, so at most
  // one finished thread is ever left unjoined.
  if (previous.joinable()) previous.join();
}

size_t LineServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

void LineServer::Stop() {
  running_.store(false);
  // Close before resetting so a racing accept() fails rather than blocking;
  // the slot is reset only after the accept thread can no longer read it.
  if (int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::thread last;
  {
    // Unblock recv() in every connection thread, then wait them all out.
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& [fd, thread] : live_) ::shutdown(fd, SHUT_RDWR);
    drained_.wait(lock, [this] { return live_.empty(); });
    last = std::move(finished_);
  }
  // Joining the last one to exit joins the whole chain behind it.
  if (last.joinable()) last.join();
}

}  // namespace aqpp
