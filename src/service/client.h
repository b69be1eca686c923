// ServiceClient: a small blocking client for the service line protocol.
//
// One TCP connection == one session. Query() parses the OK fields into a
// QueryReply; QueryWithRetry() honors the server's backpressure contract by
// sleeping out the advertised retry_after and resubmitting — the loop every
// well-behaved client of a reject-with-retry-after service runs. The loop is
// bounded (attempts, per-sleep cap, total deadline) and jittered with a
// seeded RNG so stampeding clients decorrelate deterministically in tests.

#ifndef AQPP_SERVICE_CLIENT_H_
#define AQPP_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/protocol.h"
#include "storage/table.h"

namespace aqpp {

// Bounds and shapes the QueryWithRetry backoff loop. All sleeps route
// through SleepFor(), so under a SimClock the whole loop runs in virtual
// time.
struct RetryPolicy {
  // Total submission attempts (>= 1); exhausting them yields kUnavailable.
  int max_attempts = 10;
  // Sleep before the first retry when the server sent no retry_after hint;
  // doubles per attempt up to max_backoff_seconds.
  double initial_backoff_seconds = 0.01;
  // Hard cap on any single sleep, hinted or not. A saturated server can
  // advertise arbitrarily long drain times; the client stays bounded.
  double max_backoff_seconds = 2.0;
  // Budget for the whole loop (submissions + sleeps); <= 0 = unbounded.
  // When the budget cannot cover the next sleep the loop stops early with
  // kUnavailable rather than overshooting.
  double total_deadline_seconds = 0;
  // Each sleep is scaled by a uniform factor in [1-j, 1+j].
  double jitter_fraction = 0.2;
  // Seed for the jitter RNG: same seed => same sleep sequence.
  uint64_t seed = 1;
  // Opt-in handling of coordinator degraded answers (degraded=1 on the
  // wire: some shards were missing and the CI was widened). When false a
  // degraded reply is returned as-is — it is still an OK answer, just
  // flagged. When true the loop treats it like a rejection: back off and
  // resubmit for a full answer, returning the last degraded reply only if
  // every attempt stayed degraded.
  bool retry_degraded = false;
  // Test hook observing every backoff decision.
  std::function<void(int attempt, double sleep_seconds)> on_backoff;
};

struct QueryReply {
  double estimate = 0;
  double lo = 0;
  double hi = 0;
  double half_width = 0;
  double level = 0;
  bool cache_hit = false;
  bool partial = false;
  // Coordinator answers only: true when shards were missing and the answer
  // was extrapolated with a widened CI (degraded=1 on the wire). Distinct
  // from `partial`, the single-engine deadline semantics.
  bool degraded = false;
  uint64_t rows_used = 0;
  bool used_pre = false;
  double queue_ms = 0;
  double exec_ms = 0;
  // Streaming-ingest servers only: the committed ingest generation and delta
  // size the answer reflects, and whether the delta was folded exactly.
  uint64_t generation = 0;
  uint64_t delta_rows = 0;
  bool folded = false;
  // Online-mode answers: rounds streamed before the final line; cancelled
  // means the stream was abandoned mid-flight and the estimate fields are
  // not populated.
  bool online = false;
  uint64_t rounds = 0;
  bool cancelled = false;
};

// INGEST acknowledgment: the batch is committed (visible to the next query)
// when this returns OK.
struct IngestReply {
  uint64_t appended = 0;
  uint64_t generation = 0;
  uint64_t delta_rows = 0;
  uint64_t total_rows = 0;
};

class ServiceClient {
 public:
  static Result<ServiceClient> Connect(const std::string& host, int port);

  ServiceClient() = default;
  ~ServiceClient();
  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // Sends one request line and reads one response line: Send, then Receive.
  Result<Response> Call(const std::string& request_line);

  // The halves of Call, for a caller that keeps requests in flight on
  // several connections at once. Receive waits up to the recv timeout.
  Status Send(const std::string& request_line);
  Result<Response> Receive();

  // True when the connection can carry a new request: it is open, holds no
  // unread bytes, and the peer has not closed it. Does not block.
  bool Reusable() const;

  // Caps how long a blocking read on this connection may wait (SO_RCVTIMEO;
  // <= 0 restores "wait forever"). A timed-out Call returns
  // DeadlineExceeded and the connection should be considered poisoned (a
  // late reply would desynchronize the line protocol). The coordinator's
  // per-shard deadlines ride on this.
  Status SetRecvTimeout(double seconds);

  // HELLO [name] -> session id.
  Result<uint64_t> Hello(const std::string& name = "");
  Status Ping();
  Status SetTimeoutMs(int64_t ms);
  // SET SYNOPSIS <kind>; "off" (or "") restores the default "reservoir".
  Status SetSynopsis(const std::string& kind);

  // QUERY <sql>; server-side errors come back as the matching Status code.
  Result<QueryReply> Query(const std::string& sql);

  // SET MODE online|oneshot for this connection.
  Status SetMode(const std::string& mode);

  // Online-mode QUERY: `on_progress` is invoked for every PROGRESS line in
  // stream order; returning false sends CANCEL and abandons the stream (the
  // reply then has cancelled=true and no estimate). The connection must be
  // in online mode (SetMode("online")); in oneshot mode this degrades to a
  // plain Query with zero rounds.
  Result<QueryReply> QueryOnline(
      const std::string& sql,
      const std::function<bool(const ProgressLine&)>& on_progress);

  // INGEST: encodes `batch` with the service wire codec and appends it.
  // All-or-nothing: an error reply means no row of the batch was committed.
  Result<IngestReply> Ingest(const Table& batch);

  // Query(), but on ResourceExhausted sleeps (server hint, else exponential
  // backoff; capped, jittered) and resubmits under `policy`'s bounds.
  // Exhausting the attempt budget or the total deadline while the server
  // still rejects yields kUnavailable — the terminal "saturated" error —
  // carrying the last rejection's message.
  Result<QueryReply> QueryWithRetry(const std::string& sql,
                                    const RetryPolicy& policy);

  // Legacy shorthand: default policy with `max_attempts` attempts.
  Result<QueryReply> QueryWithRetry(const std::string& sql,
                                    int max_attempts = 10);

  // STATS as ordered key=value pairs.
  Result<std::vector<std::pair<std::string, std::string>>> Stats();

  // METRICS: the raw Prometheus exposition text (the "# EOF" terminator is
  // consumed, not returned).
  Result<std::string> Metrics();

  // QUIT (best effort) + close.
  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  Result<std::string> ReadLine();

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_CLIENT_H_
