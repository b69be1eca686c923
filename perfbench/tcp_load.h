// Closed-loop TCP reader clients against a ServiceServer: each client sends
// its next query only after the previous reply arrives. Clients share one
// pool of pre-rendered SQL and take the next unsent index, so the queries
// answered are always a prefix of the pool.

#ifndef AQPP_PERFBENCH_TCP_LOAD_H_
#define AQPP_PERFBENCH_TCP_LOAD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace aqpp {
namespace perfbench {

// One answered query as the client saw it.
struct TcpAnswer {
  bool ok = false;
  double estimate = 0;
  double half_width = 0;
  double rtt_ms = 0;
  double queue_ms = 0;
  double exec_ms = 0;
};

struct TcpLoadResult {
  // Answered queries, timed from `start`; seconds runs until the last
  // client stopped.
  Window window;
  // answers[i] belongs to pool entry i; entries past `sent` are untouched.
  std::vector<TcpAnswer> answers;
  uint64_t sent = 0;
  // Queries sent plus connections that could not be opened.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // An ingest generation that went backwards on some connection.
  bool generation_regressed = false;
};

// Runs `clients` closed-loop connections until the pool is exhausted, the
// deadline passes, or `stop` is set. Errors, refusals and partial or
// degraded answers count as failed; nothing is retried.
TcpLoadResult RunTcpReaders(int port, const std::vector<std::string>& sql,
                            const std::vector<RangeQuery>& queries,
                            size_t clients, Clock::time_point start,
                            Clock::time_point deadline,
                            const std::atomic<bool>* stop = nullptr);

}  // namespace perfbench
}  // namespace aqpp

#endif  // AQPP_PERFBENCH_TCP_LOAD_H_
