// WorkerServer: the line-protocol TCP front end of one shard worker
// (aqpp-shardd). The sockets, line framing and caps are LineServer's (see
// service/line_server.h), shared with ServiceServer; this class speaks the
// shard verbs:
//
//   PING              liveness
//   HELLO [name]      no sessions here; echoes shard identity
//   SHARDINFO         shard=<i> shards=<n> rows=<r> row_begin=<b>
//                     sample_rows=<s> domains=<col:min:max,...>
//   PARTIAL <spec>    computes the requested partial views (see
//                     src/shard/partial.h) and returns them on one line;
//                     PARTIALs that arrive while a batch computes are fused
//                     into the next ShardWorker::PartialBatch call
//   INGEST <payload>  appends a wire-encoded row batch to the worker's
//                     delta (requires ShardWorker::EnableIngest); replies
//                     appended= generation= delta_rows= total_rows=
//   METRICS           Prometheus exposition (same framing as the service)
//   QUIT              closes the connection
//
// Chaos seams: the shard/worker/{accept,recv,send} failpoints drop the
// connection, the deterministic stand-ins for a killed worker.

#ifndef AQPP_SHARD_WORKER_SERVER_H_
#define AQPP_SHARD_WORKER_SERVER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "service/line_server.h"
#include "shard/worker.h"

namespace aqpp {
namespace shard {

class PartialBatcher;

using WorkerServerOptions = ListenOptions;

class WorkerServer {
 public:
  // `worker` is borrowed and must outlive the server.
  WorkerServer(const ShardWorker* worker, WorkerServerOptions options = {});
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  Status Start();
  void Stop();

  int port() const { return lines_.port(); }
  size_t active_connections() const { return lines_.active_connections(); }

 private:
  std::string HandleLine(const std::string& line, bool* quit);

  const ShardWorker* worker_;
  WorkerServerOptions options_;
  std::unique_ptr<PartialBatcher> batcher_;
  // Declared last: destroyed, and so stopped, before the state its
  // connection handlers use.
  LineServer lines_;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_WORKER_SERVER_H_
