#include "service/server.h"

#include <memory>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/ingest_wire.h"
#include "service/protocol.h"
#include "sql/binder.h"

namespace aqpp {

namespace {

// Online-mode streams wait this long for pipelined input between PROGRESS
// rounds (returning early the moment any arrives), so a client that reads a
// round and fires CANCEL is honored before the stream runs out from under
// it. Rounds are precomputed — without the wait they would drain at wire
// speed and a mid-stream CANCEL could never win the race.
constexpr int kOnlineRoundPollMs = 10;

// The ERR line for a failed QUERY; a rejection carries the retry hint.
std::string QueryErrorReply(const QueryOutcome& out) {
  Response err = Response::Error(StatusCodeToString(out.status.code()),
                                 out.status.message());
  if (out.status.code() == StatusCode::kResourceExhausted) {
    // retry_after_ms must precede msg=; insert after code=.
    err.fields.emplace_back(
        "retry_after_ms",
        StrFormat("%lld", static_cast<long long>(
                              out.retry_after_seconds * 1000.0 + 0.5)));
  }
  return FormatResponse(err);
}

// The answer fields of a QUERY OK line, shared by oneshot and online mode.
void AddAnswerFields(const QueryOutcome& out, bool ingest, Response* resp) {
  resp->AddDouble("estimate", out.ci.estimate);
  resp->AddDouble("lo", out.ci.lower());
  resp->AddDouble("hi", out.ci.upper());
  resp->AddDouble("half_width", out.ci.half_width);
  resp->AddDouble("level", out.ci.level);
  resp->AddUint("cache_hit", out.cache_hit ? 1 : 0);
  resp->AddUint("partial", out.partial ? 1 : 0);
  if (out.partial) resp->AddUint("rows_used", out.partial_rows_used);
  resp->AddUint("pre", out.used_pre ? 1 : 0);
  resp->AddDouble("queue_ms", out.queue_seconds * 1000.0);
  resp->AddDouble("exec_ms", out.exec_seconds * 1000.0);
  if (ingest) {
    resp->AddUint("generation", out.ingest_generation);
    resp->AddUint("delta_rows", out.delta_rows);
    resp->AddUint("folded", out.delta_folded ? 1 : 0);
  }
}

// One client connection: its session (opened on accept, closed on
// disconnect) and its answer mode (SET MODE online|oneshot).
class ServiceConnection {
 public:
  ServiceConnection(QueryService* service, const Catalog* catalog,
                    LineConnection* conn, uint64_t session_id)
      : service_(service),
        catalog_(catalog),
        conn_(conn),
        session_id_(session_id) {}
  ~ServiceConnection() { (void)service_->sessions().Close(session_id_); }
  ServiceConnection(const ServiceConnection&) = delete;
  ServiceConnection& operator=(const ServiceConnection&) = delete;

  std::string HandleLine(const std::string& line, bool* quit);

 private:
  // Online-mode QUERY: streams PROGRESS rounds (polling for CANCEL between
  // them), then returns the final reply line.
  std::string HandleOnlineQuery(const RangeQuery& query,
                                obs::QueryTrace* trace, bool* quit);

  QueryService* service_;
  const Catalog* catalog_;
  LineConnection* conn_;
  uint64_t session_id_;
  bool online_ = false;
};

std::string ServiceConnection::HandleLine(const std::string& line,
                                          bool* quit) {
  auto req = ParseRequest(line);
  if (!req.ok()) return ErrorReply(req.status());
  Response resp;
  switch (req->type) {
    case RequestType::kHello: {
      // The accept path already opened a session; HELLO just reports it (a
      // second HELLO with a name opens a fresh, named one).
      if (!req->name.empty()) {
        auto opened = service_->sessions().Open(req->name);
        if (!opened.ok()) return ErrorReply(opened.status());
        (void)service_->sessions().Close(session_id_);
        session_id_ = (*opened)->id();
      }
      resp.AddUint("session", session_id_);
      return FormatResponse(resp);
    }
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kSet: {
      if (req->set_key == "synopsis") {
        // Service-wide estimator selection; "off" restores the default.
        std::string kind = ToLowerAscii(req->set_value);
        Status set = service_->SetSynopsis(kind == "off" ? "" : kind);
        if (!set.ok()) return ErrorReply(set);
        resp.Add("synopsis", kind.empty() ? "off" : kind);
        return FormatResponse(resp);
      }
      if (req->set_key == "mode") {
        std::string mode = ToLowerAscii(req->set_value);
        if (mode != "online" && mode != "oneshot") {
          return ErrorReply(
              Status::InvalidArgument("MODE wants 'online' or 'oneshot'"));
        }
        online_ = mode == "online";
        resp.Add("mode", mode);
        return FormatResponse(resp);
      }
      if (req->set_key != "timeout_ms") {
        return ErrorReply(Status::InvalidArgument("unknown setting '" +
                                                  req->set_key + "'"));
      }
      auto session = service_->sessions().Get(session_id_);
      if (!session.ok()) return ErrorReply(session.status());
      long long ms = std::atoll(req->set_value.c_str());
      (*session)->set_default_timeout_seconds(
          ms <= 0 ? 0.0 : static_cast<double>(ms) / 1000.0);
      resp.AddUint("timeout_ms", ms <= 0 ? 0 : static_cast<uint64_t>(ms));
      return FormatResponse(resp);
    }
    case RequestType::kQuery: {
      // The trace outlives the Execute call (the worker writes into it while
      // this thread blocks); spans recorded here land in the same global
      // phase histograms the engine phases do.
      obs::QueryTrace trace;
      obs::SpanTimer parse_span(obs::Phase::kParse, &trace);
      auto bound = ParseAndBind(req->sql, *catalog_);
      parse_span.Stop();
      if (!bound.ok()) return ErrorReply(bound.status());
      if (online_) return HandleOnlineQuery(bound->query, &trace, quit);
      QueryOutcome out = service_->Execute(session_id_, bound->query,
                                           /*timeout_seconds=*/-1, &trace);
      if (!out.status.ok()) return QueryErrorReply(out);
      AddAnswerFields(out, service_->ingest() != nullptr, &resp);
      return FormatResponse(resp);
    }
    case RequestType::kStats: {
      ServiceStats s = service_->stats();
      resp.AddUint("queries", s.queries);
      resp.AddUint("completed", s.completed);
      resp.AddUint("cache_hits", s.cache_hits);
      resp.AddUint("rejected", s.rejected);
      resp.AddUint("timed_out", s.timed_out);
      resp.AddUint("partial", s.partial);
      resp.AddUint("cancelled", s.cancelled);
      resp.AddUint("failed", s.failed);
      resp.AddUint("queue_depth", s.admission.queue_depth);
      resp.AddUint("peak_queue_depth", s.admission.peak_queue_depth);
      resp.AddDouble("p50_ms", s.p50_latency_seconds * 1000.0);
      resp.AddDouble("p95_ms", s.p95_latency_seconds * 1000.0);
      resp.AddDouble("p99_ms", s.p99_latency_seconds * 1000.0);
      resp.AddDouble("cache_hit_rate", s.cache_hit_rate);
      resp.AddUint("cache_size", s.cache.size);
      resp.AddUint("cache_evictions", s.cache.evictions);
      resp.AddUint("cache_invalidated", s.cache.invalidated);
      resp.AddUint("sessions_active", s.sessions_active);
      resp.AddUint("sessions_opened", s.sessions_opened);
      resp.AddUint("slow_queries", s.slow_queries);
      // This connection's per-session counters.
      if (auto session = service_->sessions().Get(session_id_);
          session.ok()) {
        SessionCounters c = (*session)->counters();
        resp.AddUint("session_submitted", c.submitted);
        resp.AddUint("session_completed", c.completed);
        resp.AddUint("session_cache_hits", c.cache_hits);
        resp.AddUint("session_rejected", c.rejected);
        resp.AddUint("session_timed_out", c.timed_out);
        resp.AddUint("session_failed", c.failed);
      }
      return FormatResponse(resp);
    }
    case RequestType::kMetrics:
      return MetricsReply(obs::Registry::Global().RenderPrometheus());
    case RequestType::kIngest: {
      IngestManager* ingest = service_->ingest();
      if (ingest == nullptr) {
        return ErrorReply(
            Status::FailedPrecondition("streaming ingest is not enabled"));
      }
      auto batch = DecodeIngestBatch(req->args, service_->engine().table());
      if (!batch.ok()) return ErrorReply(batch.status());
      if (Status st = ingest->Append(**batch); !st.ok()) return ErrorReply(st);
      IngestSnapshot snap = ingest->snapshot();
      resp.AddUint("appended", (*batch)->num_rows());
      resp.AddUint("generation", snap.committed_generation);
      resp.AddUint("delta_rows", snap.delta_rows);
      resp.AddUint("total_rows", snap.total_rows);
      return FormatResponse(resp);
    }
    case RequestType::kCancel:
      // A CANCEL with no online query streaming is a no-op; mid-stream
      // CANCELs are consumed by HandleOnlineQuery and never reach here.
      resp.AddUint("cancelled", 0);
      return FormatResponse(resp);
    case RequestType::kQuit:
      *quit = true;
      resp.AddUint("bye", 1);
      return FormatResponse(resp);
    case RequestType::kShardInfo:
    case RequestType::kPartial:
      return ErrorReply(Status::Unimplemented(
          "shard verbs are served by aqpp-shardd, not the query service"));
  }
  return ErrorReply(Status::Internal("unhandled verb"));
}

std::string ServiceConnection::HandleOnlineQuery(const RangeQuery& query,
                                                 obs::QueryTrace* trace,
                                                 bool* quit) {
  // Rounds first, then the final one-shot execution: the final OK line must
  // be bit-identical to oneshot mode, and computing it up front lets the
  // stream guarantee that no PROGRESS round is tighter than the final
  // interval (rounds that would be are dropped).
  std::vector<ProgressiveStep> rounds;
  Status round_status = service_->OnlineRounds(session_id_, query, &rounds);
  if (!round_status.ok()) return ErrorReply(round_status);
  QueryOutcome out =
      service_->Execute(session_id_, query, /*timeout_seconds=*/-1, trace);
  if (!out.status.ok()) return QueryErrorReply(out);

  // Consumes a pipelined CANCEL: waits up to `wait_ms` for input, and when
  // the next complete request line is CANCEL, eats it. A non-CANCEL line
  // stays buffered for the normal loop.
  auto cancel_requested = [&](int wait_ms) -> bool {
    std::optional<std::string> next = conn_->PeekLine(wait_ms);
    if (!next.has_value()) return false;
    auto req = ParseRequest(*next);
    if (!req.ok() || req->type != RequestType::kCancel) return false;
    conn_->DropLine();
    return true;
  };

  uint64_t sent = 0;
  bool cancelled = false;
  for (const ProgressiveStep& step : rounds) {
    // A partial (deadline-degraded) final answer voids the >=-final-width
    // guarantee, so only filter against clean finals.
    if (!out.partial && step.ci.half_width < out.ci.half_width) continue;
    // No wait before the first round — nothing has streamed yet, so the
    // client cannot be reacting. Between rounds, give an in-flight CANCEL
    // its round-trip.
    if (cancel_requested(sent == 0 ? 0 : kOnlineRoundPollMs)) {
      cancelled = true;
      break;
    }
    ProgressLine p;
    p.round = ++sent;
    p.rows_used = step.rows_used;
    p.estimate = step.ci.estimate;
    p.lo = step.ci.lower();
    p.hi = step.ci.upper();
    p.half_width = step.ci.half_width;
    p.level = step.ci.level;
    if (!conn_->SendLine(FormatProgressLine(p))) {
      // The peer is gone; everything that could be sent was.
      *quit = true;
      return std::string();
    }
  }

  // A caller that abandoned the stream gets no estimate (the computed
  // answer is discarded), just how far the stream got.
  Response resp;
  if (!cancelled) AddAnswerFields(out, service_->ingest() != nullptr, &resp);
  resp.AddUint("online", 1);
  resp.AddUint("rounds", sent);
  if (cancelled) resp.AddUint("cancelled", 1);
  return FormatResponse(resp);
}

}  // namespace

ServiceServer::ServiceServer(QueryService* service, const Catalog* catalog,
                             ServerOptions options)
    : service_(service),
      catalog_(catalog),
      options_(std::move(options)),
      lines_("service/server",
             [this](LineConnection* conn) -> Result<LineServer::LineHandler> {
               AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                                     service_->sessions().Open(""));
               auto state = std::make_shared<ServiceConnection>(
                   service_, catalog_, conn, session->id());
               return LineServer::LineHandler(
                   [state](const std::string& line, bool* quit) {
                     return state->HandleLine(line, quit);
                   });
             }) {}

Status ServiceServer::Start() {
  return lines_.Start(options_);
}

void ServiceServer::Stop() { lines_.Stop(); }

}  // namespace aqpp
