// ServiceServer: a line-protocol TCP front end over QueryService.
//
// The sockets, line framing and caps are LineServer's (one thread per
// connection; the per-request concurrency cap is the admission controller's
// job, not the socket layer's). Each connection is one session: opened on
// accept, closed on QUIT / disconnect. SQL arrives via the QUERY verb, is
// bound against the catalog, and is executed through QueryService::Execute —
// so every protocol client goes through admission, deadlines, and the result
// cache exactly like an in-process caller.

#ifndef AQPP_SERVICE_SERVER_H_
#define AQPP_SERVICE_SERVER_H_

#include "common/status.h"
#include "service/line_server.h"
#include "service/service.h"
#include "storage/table.h"

namespace aqpp {

using ServerOptions = ListenOptions;

class ServiceServer {
 public:
  // `service` and `catalog` are borrowed and must outlive the server.
  ServiceServer(QueryService* service, const Catalog* catalog,
                ServerOptions options = {});

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens, and starts the accept thread.
  Status Start();

  // Unblocks every connection and joins all threads. Idempotent.
  void Stop();

  // The bound port (valid after Start()).
  int port() const { return lines_.port(); }
  size_t active_connections() const { return lines_.active_connections(); }

 private:
  QueryService* service_;
  const Catalog* catalog_;
  ServerOptions options_;
  // Declared last: destroyed, and so stopped, before the state its
  // connection handlers use.
  LineServer lines_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_SERVER_H_
