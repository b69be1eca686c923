// QueryService: the concurrent front door of the AQP++ engine.
//
// Request path (one synchronous Execute() call from the caller's thread):
//
//   session lookup ─ canonicalize ─ cache probe ──hit── return (replayed)
//                                        │miss
//                                   admission queue  ──full── reject +
//                                        │                    retry-after
//                                   worker thread
//                                        │
//                            engine Execute(canonical query,
//                                  {cancel = token, seed = canonical seed})
//                             │ok                │deadline exceeded
//                        cache insert     online fallback: the first
//                             │           online round (1/64 of the
//                          return         sample) → partial CI (widened)
//
// Seeded execution makes each query a pure function of (prepared engine
// state, canonical query), so concurrent workers never race on the session
// RNG and a cache hit is bit-identical to re-running the query. Deadlines
// ride a CancellationToken that the engine polls at phase boundaries; when
// one fires, the worker falls back to AqppEngine::ExecuteOnline under the
// same seed, which always yields its first round — a timed-out query
// degrades to a wide interval instead of an error whenever the sample
// supports it (a uniform/Bernoulli sample and SUM/COUNT/AVG/VAR; MIN/MAX and
// other samples report DeadlineExceeded).
//
// The engine's router picks each query's template: its id keys per-template
// cache invalidation, and its cube backs the online fallback (none when no
// template has the query's measure). Service execution bypasses the
// engine's workload log (record = false); sessions keep their own bounded
// logs instead.

#ifndef AQPP_SERVICE_SERVICE_H_
#define AQPP_SERVICE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/result_cache.h"
#include "service/session.h"

namespace aqpp {

// Kept only for perfbench/, which spells `QueryService{EngineRef(engine)}`;
// drop it once a benchmark change updates that spelling.
using EngineRef = AqppEngine*;

struct ServiceOptions {
  AdmissionOptions admission;
  ResultCacheOptions cache;
  SessionManagerOptions sessions;
  // Deadline applied when neither the request nor the session carries one;
  // <= 0 = unbounded.
  double default_timeout_seconds = 0;
  // Latency samples retained for the p50/p95/p99 estimates.
  size_t latency_window = 4096;
  // Queries whose end-to-end service time reaches this land in the slow-query
  // log with their full phase breakdown; <= 0 disables the log.
  double slow_query_threshold_seconds = 0.5;
  // Most recent slow queries retained.
  size_t slow_query_capacity = 64;
};

struct QueryOutcome {
  // OK (possibly partial), ResourceExhausted (rejected; see
  // retry_after_seconds), DeadlineExceeded / Cancelled, or an engine error.
  Status status = Status::OK();
  ConfidenceInterval ci;
  bool cache_hit = false;
  // True when this outcome was shared from an identical in-flight query
  // (single-flight attach) rather than executed for this caller.
  bool single_flight = false;
  // True when the deadline fired and `ci` is the first online round.
  bool partial = false;
  size_t partial_rows_used = 0;
  bool used_pre = false;
  std::string pre_description;
  double retry_after_seconds = 0;
  double queue_seconds = 0;
  double exec_seconds = 0;
  // Streaming ingest (only meaningful when an IngestManager is attached):
  // the committed generation and delta size the answer reflects, and whether
  // the delta was folded exactly into `ci` (SUM/COUNT; other aggregates
  // answer from published state until the absorber catches up).
  uint64_t ingest_generation = 0;
  uint64_t delta_rows = 0;
  bool delta_folded = false;
};

struct ServiceStats {
  uint64_t queries = 0;
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;  // deadline fired (partial answers included)
  uint64_t partial = 0;    // subset of timed_out answered by an online round
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  // Queries answered by attaching to an identical in-flight execution.
  uint64_t single_flight_attached = 0;
  double p50_latency_seconds = 0;
  double p95_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double cache_hit_rate = 0;  // hits / (hits + misses), 0 when no probes
  uint64_t sessions_active = 0;
  uint64_t sessions_opened = 0;
  uint64_t slow_queries = 0;  // queries over the slow-query threshold
  ResultCacheStats cache;
  AdmissionStats admission;
};

class QueryService {
 public:
  // `engine` is borrowed and must outlive the service. Prepare it first;
  // for an unprepared engine the ctor draws the sample so workers never race
  // the draw.
  QueryService(AqppEngine* engine, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  SessionManager& sessions() { return sessions_; }
  ResultCache& cache() { return cache_; }
  const AqppEngine& engine() const { return *engine_; }

  // Executes `query` for `session_id`, blocking until the outcome is known
  // (admitted work runs on the admission workers). `timeout_seconds` < 0
  // defers to the session default, then the service default. Scalar queries
  // only; group-by is reported Unimplemented.
  //
  // `trace`, when non-null, receives the query's full span breakdown
  // (queue wait, engine phases, total). When null and observability is
  // enabled, the service records into an internal trace so the slow-query
  // log still captures phase breakdowns.
  QueryOutcome Execute(uint64_t session_id, const RangeQuery& query,
                       double timeout_seconds = -1,
                       obs::QueryTrace* trace = nullptr);

  // Online-aggregation rounds for `query`: AqppEngine::ExecuteOnline over
  // growing sample prefixes, seeded from the canonical query (same seed as
  // one-shot execution) and shifted by the exact delta fold when ingest is
  // attached. Rounds are filtered monotone — half_width never increases from
  // one round to the next. Queries the online path refuses as unstreamable
  // (MIN/MAX, stratified or biased samples: Unimplemented or
  // FailedPrecondition) yield an empty round list with OK status: online
  // mode degrades to one-shot. Any other error is returned. The caller streams
  // these as PROGRESS lines and then runs Execute() for the final answer,
  // dropping any round tighter than the final interval (see docs/ingest.md).
  Status OnlineRounds(uint64_t session_id, const RangeQuery& query,
                      std::vector<ProgressiveStep>* rounds);

  // Attaches the streaming-ingest manager: query execution takes its state
  // mutex shared (engine pass + delta fold are one consistent read), answers
  // fold the delta exactly for SUM/COUNT, and every delta commit or absorb
  // publish invalidates the result cache. Call before serving traffic; the
  // manager must outlive the service.
  void AttachIngest(IngestManager* ingest);
  IngestManager* ingest() const { return ingest_; }

  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  // Cache invalidation surface. Appends invalidate through AttachIngest's
  // commit observer.
  void InvalidateCache() { cache_.InvalidateAll(); }
  void InvalidateTemplate(int template_id) {
    cache_.InvalidateTemplate(template_id);
  }

  // Selects the engine's synopsis and invalidates every cached answer (the
  // estimator changed; replayed bits would no longer match a re-execution).
  Status SetSynopsis(const std::string& kind);

  ServiceStats stats() const;

  // Stops admission (queued jobs resolve as Cancelled). Idempotent; the
  // destructor calls it.
  void Stop();

 private:
  // One in-flight canonical query; identical cache-miss arrivals attach to
  // it and share the leader's outcome (see service.cc for the definition).
  struct Flight;

  // One member of a batch. Caller holds the ingest state mutex shared.
  QueryOutcome RunOnWorker(const CanonicalQuery& canon, int template_id,
                           const CancellationToken* token, SteadyTime enqueued,
                           uint64_t cache_generation, obs::QueryTrace* trace,
                           const std::vector<uint8_t>* query_mask);
  // Folds the current delta into `out` (exact SUM/COUNT shift) and stamps the
  // ingest generation fields. Caller holds the ingest state mutex shared.
  Status FoldDeltaLocked(const RangeQuery& query, QueryOutcome* out);
  // The admission runner, and so the only worker entry: one shared
  // sample-mask pass for the whole batch, then per-member engine execution
  // with the precomputed masks. A lone request is a batch of one.
  void RunBatch(std::vector<AdmissionController::Job>& jobs);
  // The deadline fallback: the first online round under `token`.
  Result<ProgressiveStep> RunProgressive(const CanonicalQuery& canon,
                                         const CancellationToken* token);
  void RecordLatency(double seconds);
  void AccountOutcome(const QueryOutcome& outcome, Session& session);

  AqppEngine* engine_;
  ServiceOptions options_;
  IngestManager* ingest_ = nullptr;
  obs::SlowQueryLog slow_log_;
  QueryCanonicalizer canonicalizer_;
  SessionManager sessions_;
  ResultCache cache_;
  AdmissionController admission_;

  // Single-flight table: canonical key -> the execution identical arrivals
  // attach to. Entries are removed before the leader fans its outcome out.
  std::mutex flight_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_;

  mutable std::mutex stats_mu_;
  uint64_t queries_ = 0;
  uint64_t completed_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t rejected_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t partial_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t failed_ = 0;
  uint64_t single_flight_attached_ = 0;
  std::vector<double> latencies_;  // ring buffer
  size_t latency_next_ = 0;
  bool latency_full_ = false;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_SERVICE_H_
