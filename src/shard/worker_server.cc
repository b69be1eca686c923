#include "shard/worker_server.h"

#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "service/ingest_wire.h"
#include "service/protocol.h"
#include "shard/partial.h"

namespace aqpp {
namespace shard {

namespace {

struct WorkerMetrics {
  obs::Counter* partials;
  obs::Counter* partial_errors;
  obs::Histogram* partial_seconds;
  // Batch-pass series: the same ones the service's fused passes feed.
  obs::Counter* fused;
  obs::Histogram* batch_size;
  static const WorkerMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const WorkerMetrics m = {
        reg.GetCounter("aqpp_shard_partials_total", "",
                       "PARTIAL requests answered by this shard worker."),
        reg.GetCounter("aqpp_shard_partial_errors_total", "",
                       "PARTIAL requests that failed to parse or compute."),
        reg.GetHistogram("aqpp_shard_partial_seconds", "", {},
                         "Wall-clock seconds per PARTIAL request."),
        reg.GetCounter(
            "aqpp_batch_queries_fused_total", "",
            "Member queries answered by fused shared-scan batch passes."),
        reg.GetHistogram("aqpp_batch_size", "", {1, 2, 4, 8, 16, 32, 64},
                         "Queries fused per shared-scan batch pass."),
    };
    return m;
  }
};

}  // namespace

// Fuses concurrent PARTIAL requests into single ShardWorker::PartialBatch
// calls. A submitting thread with no active leader becomes one: it executes
// everything queued at once and fans the per-member results out. Followers
// park until their slot is fulfilled; arrivals during an execution form the
// next batch. A lone request never waits for company.
class PartialBatcher {
 public:
  explicit PartialBatcher(const ShardWorker* worker) : worker_(worker) {}

  Result<ShardPartial> Submit(ShardWorker::PartialRequest req) {
    auto slot = std::make_shared<Slot>(std::move(req));
    std::unique_lock<std::mutex> lock(mu_);
    pending_.push_back(slot);
    cv_.wait(lock, [&] { return slot->done || !leader_active_; });
    if (slot->done) return std::move(slot->result);
    leader_active_ = true;
    std::vector<std::shared_ptr<Slot>> batch;
    batch.swap(pending_);
    lock.unlock();

    std::vector<ShardWorker::PartialRequest> requests;
    requests.reserve(batch.size());
    for (const auto& s : batch) requests.push_back(s->req);
    const WorkerMetrics& metrics = WorkerMetrics::Get();
    metrics.batch_size->Observe(static_cast<double>(batch.size()));
    metrics.fused->Increment(batch.size());
    auto results = worker_->PartialBatch(requests);

    lock.lock();
    Result<ShardPartial> mine = Status::Internal("batch lost its own slot");
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i] == slot) {
        mine = std::move(results[i]);
      } else {
        batch[i]->result = std::move(results[i]);
      }
      batch[i]->done = true;
    }
    leader_active_ = false;
    cv_.notify_all();
    return mine;
  }

 private:
  struct Slot {
    explicit Slot(ShardWorker::PartialRequest r) : req(std::move(r)) {}
    ShardWorker::PartialRequest req;
    Result<ShardPartial> result = Status::Internal("pending");
    bool done = false;
  };

  const ShardWorker* worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool leader_active_ = false;
  std::vector<std::shared_ptr<Slot>> pending_;
};

WorkerServer::WorkerServer(const ShardWorker* worker,
                           WorkerServerOptions options)
    : worker_(worker),
      options_(std::move(options)),
      batcher_(std::make_unique<PartialBatcher>(worker_)),
      lines_("shard/worker", [this](const std::string& line, bool* quit) {
        return HandleLine(line, quit);
      }) {}

WorkerServer::~WorkerServer() = default;

Status WorkerServer::Start() {
  return lines_.Start(options_);
}

void WorkerServer::Stop() { lines_.Stop(); }

std::string WorkerServer::HandleLine(const std::string& line, bool* quit) {
  auto req = ParseRequest(line);
  if (!req.ok()) return ErrorReply(req.status());
  Response resp;
  switch (req->type) {
    case RequestType::kHello:
      resp.AddUint("shard", worker_->shard_index());
      resp.AddUint("shards", worker_->num_shards());
      return FormatResponse(resp);
    case RequestType::kPing:
      resp.AddUint("pong", 1);
      return FormatResponse(resp);
    case RequestType::kShardInfo: {
      resp.AddUint("shard", worker_->shard_index());
      resp.AddUint("shards", worker_->num_shards());
      resp.AddUint("rows", worker_->rows());
      resp.AddUint("row_begin", worker_->row_begin());
      resp.AddUint("sample_rows", worker_->sample_rows());
      if (worker_->ingest() != nullptr) {
        resp.AddUint("generation", worker_->ingest_generation());
      }
      std::string domains;
      for (const ColumnDomain& d : worker_->domains()) {
        if (!domains.empty()) domains += ',';
        domains += StrFormat("%zu:%lld:%lld", d.column,
                             static_cast<long long>(d.min),
                             static_cast<long long>(d.max));
      }
      if (!domains.empty()) resp.Add("domains", domains);
      return FormatResponse(resp);
    }
    case RequestType::kPartial: {
      const WorkerMetrics& metrics = WorkerMetrics::Get();
      Timer timer;
      auto spec = ParsePartialSpec(req->args);
      if (!spec.ok()) {
        metrics.partial_errors->Increment();
        return ErrorReply(spec.status());
      }
      if (!spec->synopsis_kind.empty()) {
        // Estimator agreement check: a coordinator that wants synopsis
        // answers must talk to workers built with that synopsis.
        std::string have = worker_->engine().active_synopsis()->kind();
        if (spec->synopsis_kind != have) {
          metrics.partial_errors->Increment();
          return ErrorReply(Status::FailedPrecondition(
              "synopsis mismatch: request wants '" + spec->synopsis_kind +
              "', worker has '" + have + "'"));
        }
      }
      auto partial = batcher_->Submit({spec->query, spec->wants, spec->seed});
      if (!partial.ok()) {
        metrics.partial_errors->Increment();
        return ErrorReply(partial.status());
      }
      metrics.partials->Increment();
      metrics.partial_seconds->Observe(timer.ElapsedSeconds());
      EncodePartial(*partial, &resp);
      if (worker_->ingest() != nullptr) {
        // Freshness hint: the committed generation the fold could reflect.
        resp.AddUint("generation", worker_->ingest_generation());
      }
      return FormatResponse(resp);
    }
    case RequestType::kIngest: {
      IngestManager* ingest = worker_->ingest();
      if (ingest == nullptr) {
        return ErrorReply(Status::FailedPrecondition(
            "streaming ingest is not enabled on this worker"));
      }
      auto batch = DecodeIngestBatch(req->args, worker_->table());
      if (!batch.ok()) return ErrorReply(batch.status());
      if (Status st = ingest->Append(**batch); !st.ok()) return ErrorReply(st);
      IngestSnapshot snap = ingest->snapshot();
      resp.AddUint("appended", (*batch)->num_rows());
      resp.AddUint("generation", snap.committed_generation);
      resp.AddUint("delta_rows", snap.delta_rows);
      resp.AddUint("total_rows", snap.total_rows);
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
          Status::InvalidArgument("verb not supported by shard workers"));
  }
}

}  // namespace shard
}  // namespace aqpp
