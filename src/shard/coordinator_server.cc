#include "shard/coordinator_server.h"

#include "obs/metrics.h"
#include "service/protocol.h"
#include "sql/binder.h"

namespace aqpp {
namespace shard {

CoordinatorServer::CoordinatorServer(ShardCoordinator* coordinator,
                                     const Catalog* catalog,
                                     CoordinatorServerOptions options)
    : coordinator_(coordinator),
      catalog_(catalog),
      options_(std::move(options)),
      lines_("shard/coordinator",
             [this](const std::string& line, bool* quit) {
               return HandleLine(line, quit);
             }) {}

Status CoordinatorServer::Start() {
  return lines_.Start(options_);
}

void CoordinatorServer::Stop() { lines_.Stop(); }

std::string CoordinatorServer::HandleLine(const std::string& line,
                                          bool* quit) {
  auto req = ParseRequest(line);
  if (!req.ok()) return ErrorReply(req.status());
  Response resp;
  switch (req->type) {
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kHello:
    case RequestType::kShardInfo:
      resp.AddUint("shards", coordinator_->num_shards());
      resp.AddUint("rows", coordinator_->total_rows());
      return FormatResponse(resp);
    case RequestType::kQuery: {
      auto bound = ParseAndBind(req->sql, *catalog_);
      if (!bound.ok()) return ErrorReply(bound.status());
      auto answer = coordinator_->Query(bound->query);
      if (!answer.ok()) return ErrorReply(answer.status());
      resp.AddDouble("estimate", answer->merged.ci.estimate);
      resp.AddDouble("lo", answer->merged.ci.lower());
      resp.AddDouble("hi", answer->merged.ci.upper());
      resp.AddDouble("half_width", answer->merged.ci.half_width);
      resp.AddDouble("level", answer->merged.ci.level);
      resp.AddUint("cache_hit", answer->cache_hit ? 1 : 0);
      resp.AddUint("degraded", answer->merged.degraded ? 1 : 0);
      resp.AddUint("shards", answer->merged.shards_total);
      resp.AddUint("shards_answered", answer->merged.shards_answered);
      resp.AddUint("pre", answer->merged.used_pre ? 1 : 0);
      resp.AddDouble("exec_ms", answer->exec_seconds * 1000.0);
      return FormatResponse(resp);
    }
    case RequestType::kIngest: {
      // Forwarded verbatim: the coordinator owns no schema, so the payload
      // is validated (and decoded) by the target shard's workers.
      auto ack = coordinator_->IngestRaw(req->args);
      if (!ack.ok()) return ErrorReply(ack.status());
      resp.AddUint("appended", ack->appended);
      resp.AddUint("generation", ack->generation);
      resp.AddUint("delta_rows", ack->delta_rows);
      resp.AddUint("total_rows", ack->total_rows);
      resp.AddUint("replicas", ack->replicas_acked);
      return FormatResponse(resp);
    }
    case RequestType::kStats: {
      ResultCacheStats cache = coordinator_->cache_stats();
      resp.AddUint("shards", coordinator_->num_shards());
      resp.AddUint("rows", coordinator_->total_rows());
      resp.AddUint("cache_hits", cache.hits);
      resp.AddUint("cache_misses", cache.misses);
      resp.AddUint("cache_size", cache.size);
      resp.AddUint("cache_evictions", cache.evictions);
      return FormatResponse(resp);
    }
    case RequestType::kMetrics:
      return MetricsReply(obs::Registry::Global().RenderPrometheus());
    case RequestType::kQuit:
      *quit = true;
      resp.AddUint("bye", 1);
      return FormatResponse(resp);
    default:
      return ErrorReply(
          Status::InvalidArgument("verb not supported by the coordinator"));
  }
}

}  // namespace shard
}  // namespace aqpp
