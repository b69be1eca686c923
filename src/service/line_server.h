// LineServer: the one TCP accept/read/reply loop behind every line-protocol
// daemon (ServiceServer, shard::WorkerServer, shard::CoordinatorServer).
//
// One accept thread plus one thread per live connection. The server owns the
// sockets end to end: listen and accept (TCP_NODELAY, a connection cap), the
// per-connection read buffer and line framing ('\r' stripped, blank lines
// skipped, a request-line size cap), reply writes, and Stop. A daemon only
// supplies a per-connection handler that maps a request line to a reply.
// A finished connection thread is joined by the next one to finish (and the
// last by Stop), so a long-lived server keeps threads for live connections
// only.
//
// Chaos seams, under the failpoint prefix given at construction:
//   <prefix>/accept  per accepted fd, before it is registered: return-error
//                    drops the connection
//   <prefix>/recv    before each request read: return-error closes the
//                    connection
//   <prefix>/send    per reply write: return-error drops it; partial-io
//                    sends a prefix, then the connection is closed
//
// Binding to port 0 picks an ephemeral port; port() reports the real one
// (how the tests avoid collisions).

#ifndef AQPP_SERVICE_LINE_SERVER_H_
#define AQPP_SERVICE_LINE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"

namespace aqpp {

// Above this many live connections, a new one gets one ERR line and is
// closed.
inline constexpr size_t kMaxConnections = 64;
// A single request line over this is a protocol violation: the connection
// gets one ERR line and is closed (resyncing inside an oversized INGEST
// payload is not worth the ambiguity). Sized to fit the largest INGEST line
// (kMaxIngestWireBytes) plus verb/header slack.
inline constexpr size_t kMaxLineBytes = (8u << 20) + 4096;

// Where a daemon listens: the only settings its socket layer takes.
struct ListenOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
};

// One accepted connection as its handler sees it. Handlers that stream
// (online QUERY) write and look ahead through it; the fd never leaves the
// server.
class LineConnection {
 public:
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  // Writes `line` and a newline; false once the peer is gone.
  bool SendLine(const std::string& line);

  // The next complete request line ('\r' stripped), left buffered, or
  // nullopt if none has arrived. Waits up to `wait_ms` for input when no
  // line is buffered yet, returning the moment any arrives.
  std::optional<std::string> PeekLine(int wait_ms);

  // Consumes the line PeekLine returned.
  void DropLine();

 private:
  friend class LineServer;
  LineConnection(int fd, const std::string& send_failpoint)
      : fd_(fd), send_failpoint_(send_failpoint) {}

  int fd_;
  const std::string& send_failpoint_;  // owned by the LineServer
  std::string buffer_;  // received bytes not yet handed to the handler
};

class LineServer {
 public:
  // Maps one request line (newline and '\r' stripped, never blank) to its
  // reply, without the trailing newline. Setting *quit closes the
  // connection once the reply is sent; an empty reply sends nothing.
  using LineHandler = std::function<std::string(const std::string&, bool*)>;
  // Runs on the connection's thread before its first line and returns that
  // connection's handler, which is destroyed when the connection closes. An
  // error is sent as one ERR line and the connection is closed.
  using HandlerFactory = std::function<Result<LineHandler>(LineConnection*)>;

  LineServer(const std::string& failpoint_prefix, HandlerFactory factory);
  // Every connection shares one stateless handler.
  LineServer(const std::string& failpoint_prefix, LineHandler handler)
      : LineServer(failpoint_prefix,
                   [handler](LineConnection*) -> Result<LineHandler> {
                     return handler;
                   }) {}
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Binds, listens, and starts the accept thread.
  Status Start(const ListenOptions& options);

  // Unblocks every connection and joins all threads. Idempotent.
  void Stop();

  // The bound port (valid after Start()).
  int port() const { return port_; }
  size_t active_connections() const;

 private:
  void AcceptLoop();
  void Serve(int fd);
  void ReadLines(LineConnection* conn, const LineHandler& handler);
  // Unregisters and closes `fd`; called last on the connection's thread.
  void Retire(int fd);

  const std::string accept_failpoint_;
  const std::string recv_failpoint_;
  const std::string send_failpoint_;
  HandlerFactory factory_;
  // Atomic: Stop() resets it from the caller's thread while AcceptLoop()
  // reads it for accept(); the fd value itself stays valid until the accept
  // thread is joined because Stop() closes before resetting.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  mutable std::mutex mu_;
  std::condition_variable drained_;
  // Live connections: fd -> the thread serving it.
  std::unordered_map<int, std::thread> live_;
  // The most recently finished connection thread, not yet joined.
  std::thread finished_;
  std::thread accept_thread_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_LINE_SERVER_H_
