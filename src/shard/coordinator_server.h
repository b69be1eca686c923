// CoordinatorServer: the client-facing TCP front of a ShardCoordinator.
// Speaks the same line protocol as the single-engine service — QUERY <sql>
// returns the familiar estimate/lo/hi/half_width/level fields — so existing
// ServiceClient callers work unchanged against a sharded deployment. Extra
// fields: degraded=0|1 (some shards missing, CI widened; pairs with
// RetryPolicy::retry_degraded on the client), shards, shards_answered.
//
// SQL is bound against a schema catalog (column names + string
// dictionaries); the catalog table carries no rows — the data lives on the
// workers. The sockets, line framing and caps are LineServer's (see
// service/line_server.h); the shard/coordinator/{accept,recv,send}
// failpoints drop its connections.

#ifndef AQPP_SHARD_COORDINATOR_SERVER_H_
#define AQPP_SHARD_COORDINATOR_SERVER_H_

#include <string>

#include "common/status.h"
#include "service/line_server.h"
#include "shard/coordinator.h"
#include "storage/table.h"

namespace aqpp {
namespace shard {

using CoordinatorServerOptions = ListenOptions;

class CoordinatorServer {
 public:
  // `coordinator` (already Connect()ed) and `catalog` are borrowed and must
  // outlive the server.
  CoordinatorServer(ShardCoordinator* coordinator, const Catalog* catalog,
                    CoordinatorServerOptions options = {});

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  Status Start();
  void Stop();

  int port() const { return lines_.port(); }
  size_t active_connections() const { return lines_.active_connections(); }

 private:
  std::string HandleLine(const std::string& line, bool* quit);

  ShardCoordinator* coordinator_;
  const Catalog* catalog_;
  CoordinatorServerOptions options_;
  // Declared last: destroyed, and so stopped, before the state its
  // connection handlers use.
  LineServer lines_;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_COORDINATOR_SERVER_H_
