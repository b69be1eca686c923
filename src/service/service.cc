#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/string_util.h"
#include "kernels/multi_scan.h"
#include "obs/metrics.h"

namespace aqpp {

namespace {

// Service-level counters/histograms, resolved once per process.
struct ServiceMetrics {
  obs::Counter* queries;
  obs::Counter* deadline_expiries;
  obs::Counter* partials;
  obs::Counter* slow_queries;
  obs::Counter* single_flight;
  obs::Histogram* latency;
  static const ServiceMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const ServiceMetrics m = {
        reg.GetCounter("aqpp_service_queries_total", "",
                       "Queries submitted to the service front door."),
        reg.GetCounter("aqpp_service_deadline_expiries_total", "",
                       "Queries whose deadline fired (partial answers "
                       "included)."),
        reg.GetCounter("aqpp_service_partial_total", "",
                       "Deadline-expired queries answered by their "
                       "first online round."),
        reg.GetCounter("aqpp_service_slow_queries_total", "",
                       "Queries over the slow-query threshold."),
        reg.GetCounter("aqpp_single_flight_attached_total", "",
                       "Queries answered by attaching to an identical "
                       "in-flight execution."),
        reg.GetHistogram("aqpp_service_query_seconds", "", {},
                         "End-to-end service latency per query (cache hits "
                         "included)."),
    };
    return m;
  }
};

// Batch-pass metrics: same series the shard worker server feeds. Registered
// when the service is constructed, so METRICS lists them before the first
// batch forms.
struct BatchServiceMetrics {
  obs::Counter* fused;
  obs::Histogram* batch_size;
  static const BatchServiceMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const BatchServiceMetrics m = {
        reg.GetCounter(
            "aqpp_batch_queries_fused_total", "",
            "Member queries answered by fused shared-scan batch passes."),
        reg.GetHistogram("aqpp_batch_size", "", {1, 2, 4, 8, 16, 32, 64},
                         "Queries fused per shared-scan batch pass."),
    };
    return m;
  }
};

// Per-query context parked on the admission job (Job.payload). RunBatch
// fills `out` and fires `done`, which the Execute() call blocks on.
struct BatchItem {
  CanonicalQuery canon;
  int template_id = -1;
  std::shared_ptr<CancellationToken> token;
  SteadyTime enqueued;
  uint64_t cache_generation = 0;
  obs::QueryTrace* trace = nullptr;
  QueryOutcome out;
  std::promise<void> done;
};

}  // namespace

// One in-flight canonical query. The leader executes and fans its outcome
// out; attachers block on `future` and copy `out`.
struct QueryService::Flight {
  std::promise<void> done;
  std::shared_future<void> future = done.get_future().share();
  QueryOutcome out;
};

QueryService::QueryService(AqppEngine* engine, ServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      slow_log_(options_.slow_query_threshold_seconds > 0
                    ? options_.slow_query_threshold_seconds
                    : std::numeric_limits<double>::infinity(),
                options_.slow_query_capacity),
      canonicalizer_(&engine_->table()),
      sessions_(options_.sessions),
      cache_(options_.cache),
      admission_(options_.admission,
                 [this](std::vector<AdmissionController::Job>& jobs) {
                   RunBatch(jobs);
                 }) {
  (void)BatchServiceMetrics::Get();
  // One throwaway COUNT(*) draws the sample of an unprepared engine here:
  // the draw is not safe to race from workers.
  RangeQuery count_all;
  count_all.func = AggregateFunction::kCount;
  ExecuteControl control;
  control.record = false;
  (void)engine_->Execute(count_all, control);
  latencies_.resize(std::max<size_t>(1, options_.latency_window), 0.0);
}

QueryService::~QueryService() { Stop(); }

void QueryService::Stop() { admission_.Stop(); }

void QueryService::AttachIngest(IngestManager* ingest) {
  ingest_ = ingest;
  if (ingest_ != nullptr) {
    // Every delta commit and every absorb publish makes cached answers
    // unreplayable (the data they answered over changed).
    ingest_->set_commit_observer([this] { cache_.InvalidateAll(); });
  }
}

Status QueryService::FoldDeltaLocked(const RangeQuery& query,
                                     QueryOutcome* out) {
  IngestSnapshot snap = ingest_->snapshot();
  out->ingest_generation = snap.committed_generation;
  out->delta_rows = snap.delta_rows;
  if (!IngestManager::FoldSupported(query.func)) return Status::OK();
  std::shared_ptr<const Table> delta = ingest_->delta();
  if (delta == nullptr || delta->num_rows() == 0) {
    out->delta_folded = true;  // nothing to fold is an exact fold
    return Status::OK();
  }
  AQPP_ASSIGN_OR_RETURN(double shift, IngestManager::FoldValue(*delta, query));
  out->ci.estimate += shift;  // exact shift: the interval width is unchanged
  out->delta_folded = true;
  return Status::OK();
}

Status QueryService::SetSynopsis(const std::string& kind) {
  if (!kind.empty() && kind != "off" &&
      !synopsis::IsSynopsisRegistered(kind)) {
    return Status::NotFound("unknown synopsis kind '" + kind + "'");
  }
  AQPP_RETURN_NOT_OK(engine_->SetSynopsis(kind));
  cache_.InvalidateAll();
  return Status::OK();
}

void QueryService::RecordLatency(double seconds) {
  ServiceMetrics::Get().latency->Observe(seconds);
  std::lock_guard<std::mutex> lock(stats_mu_);
  latencies_[latency_next_] = seconds;
  latency_next_ = (latency_next_ + 1) % latencies_.size();
  if (latency_next_ == 0) latency_full_ = true;
}

void QueryService::AccountOutcome(const QueryOutcome& outcome,
                                  Session& session) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (outcome.status.ok()) {
    ++completed_;
    session.OnCompleted();
    if (outcome.cache_hit) {
      ++cache_hits_;
      session.OnCacheHit();
    }
    if (outcome.partial) {
      ++timed_out_;
      ++partial_;
      session.OnTimedOut();
      ServiceMetrics::Get().deadline_expiries->Increment();
      ServiceMetrics::Get().partials->Increment();
    }
    return;
  }
  switch (outcome.status.code()) {
    case StatusCode::kResourceExhausted:
      ++rejected_;
      session.OnRejected();
      break;
    case StatusCode::kDeadlineExceeded:
      ++timed_out_;
      session.OnTimedOut();
      ServiceMetrics::Get().deadline_expiries->Increment();
      break;
    case StatusCode::kCancelled:
      ++cancelled_;
      break;
    default:
      ++failed_;
      session.OnFailed();
      break;
  }
}

QueryOutcome QueryService::Execute(uint64_t session_id,
                                   const RangeQuery& query,
                                   double timeout_seconds,
                                   obs::QueryTrace* trace) {
  QueryOutcome out;
  auto session_or = sessions_.Get(session_id);
  if (!session_or.ok()) {
    out.status = session_or.status();
    return out;
  }
  std::shared_ptr<Session> session = *session_or;
  session->OnSubmitted();
  ServiceMetrics::Get().queries->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++queries_;
  }
  SteadyTime start = SteadyNow();
  // Without a caller-provided trace, record into a local one (when
  // observability is on) so the slow-query log still sees phase breakdowns.
  // The trace lives on this stack frame; the worker writes into it while we
  // block on the promise below, so there is no concurrent access.
  std::optional<obs::QueryTrace> local_trace;
  if (trace == nullptr && obs::Enabled()) {
    local_trace.emplace();
    trace = &*local_trace;
  }
  obs::SpanTimer total_span(obs::Phase::kTotal, trace);

  if (!query.group_by.empty()) {
    out.status = Status::Unimplemented(
        "the service answers scalar queries; run GROUP BY through the "
        "engine directly");
    AccountOutcome(out, *session);
    return out;
  }

  CanonicalQuery canon = canonicalizer_.Canonicalize(query);
  session->RecordQuery(canon.query);

  // Snapshot the invalidation generation before executing: if maintenance
  // wipes the cache while the query runs, the stale result must not be
  // re-inserted after the wipe (InsertIfCurrent drops it).
  uint64_t cache_generation = cache_.generation();
  {
    // Under ingest the lookup + delta fold must be one consistent read: the
    // absorber invalidates the cache inside its exclusive publish section, so
    // holding the state mutex shared across both pins (cached base answer,
    // delta) to the same generation.
    std::shared_lock<std::shared_mutex> state_lock;
    if (ingest_ != nullptr) {
      state_lock = std::shared_lock<std::shared_mutex>(ingest_->state_mutex());
    }
    if (auto hit = cache_.Lookup(canon.key)) {
      out.ci = hit->ci;
      out.used_pre = hit->used_pre;
      out.pre_description = hit->pre_description;
      out.cache_hit = true;
      if (ingest_ != nullptr) {
        Status folded = FoldDeltaLocked(canon.query, &out);
        if (!folded.ok()) {
          out = QueryOutcome{};
          out.status = std::move(folded);
        }
      }
      if (state_lock.owns_lock()) state_lock.unlock();
      AccountOutcome(out, *session);
      total_span.Stop();
      RecordLatency(SecondsBetween(start, SteadyNow()));
      return out;
    }
  }

  // Single-flight: if an identical canonical query is already executing,
  // attach to it and share the leader's outcome instead of scanning again.
  // A follower whose leader fails re-executes on its own, so errors never
  // fan out.
  std::shared_ptr<Flight> flight;
  bool flight_leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto [it, inserted] = in_flight_.try_emplace(canon.key);
    if (inserted) {
      it->second = std::make_shared<Flight>();
      flight_leader = true;
    }
    flight = it->second;
  }
  if (!flight_leader) {
    flight->future.wait();
    if (flight->out.status.ok()) {
      out = flight->out;
      out.single_flight = true;
      ServiceMetrics::Get().single_flight->Increment();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++single_flight_attached_;
      }
      AccountOutcome(out, *session);
      total_span.Stop();
      RecordLatency(SecondsBetween(start, SteadyNow()));
      return out;
    }
    // The leader failed (deadline, cancellation, rejection…). Don't fan the
    // error out — fall through and execute this query on its own.
  }
  // The leader must fan its outcome out on every post-creation return path,
  // removing the table entry first so late arrivals start a fresh flight.
  auto finish_flight = [&] {
    if (!flight_leader) return;
    {
      std::lock_guard<std::mutex> lock(flight_mu_);
      in_flight_.erase(canon.key);
    }
    flight->out = out;
    flight->done.set_value();
  };

  double timeout = timeout_seconds;
  if (timeout < 0) timeout = session->default_timeout_seconds();
  if (timeout <= 0) timeout = options_.default_timeout_seconds;
  auto token = std::make_shared<CancellationToken>(
      timeout > 0 ? Deadline::After(timeout) : Deadline::Infinite());

  // RouteFor peeks at the published cubes; under ingest the absorber may be
  // swapping them, so the peek needs the same shared state lock the workers
  // use.
  int template_id;
  {
    std::shared_lock<std::shared_mutex> state_lock;
    if (ingest_ != nullptr) {
      state_lock = std::shared_lock<std::shared_mutex>(ingest_->state_mutex());
    }
    template_id = engine_->RouteFor(canon.query);
  }
  auto item = std::make_shared<BatchItem>();
  item->canon = canon;
  item->template_id = template_id;
  item->token = token;
  item->enqueued = SteadyNow();
  item->cache_generation = cache_generation;
  item->trace = trace;
  std::future<void> done = item->done.get_future();
  AdmissionController::Job job;
  job.token = token;
  job.payload = item;
  double retry_after = 0;
  Status admitted = admission_.Submit(session_id, std::move(job),
                                      &retry_after);
  if (!admitted.ok()) {
    out.status = std::move(admitted);
    out.retry_after_seconds = retry_after;
    finish_flight();
    AccountOutcome(out, *session);
    return out;
  }
  done.wait();
  out = std::move(item->out);
  finish_flight();
  AccountOutcome(out, *session);
  double total_seconds = total_span.Stop();
  RecordLatency(SecondsBetween(start, SteadyNow()));
  if (trace != nullptr &&
      slow_log_.MaybeRecord(StrFormat("%llu", static_cast<unsigned long long>(
                                                  session_id)),
                            canon.key, total_seconds, *trace)) {
    ServiceMetrics::Get().slow_queries->Increment();
  }
  return out;
}

QueryOutcome QueryService::RunOnWorker(const CanonicalQuery& canon,
                                       int template_id,
                                       const CancellationToken* token,
                                       SteadyTime enqueued,
                                       uint64_t cache_generation,
                                       obs::QueryTrace* trace,
                                       const std::vector<uint8_t>* query_mask) {
  QueryOutcome out;
  out.queue_seconds = SecondsBetween(enqueued, SteadyNow());
  obs::RecordPhase(trace, obs::Phase::kQueue, out.queue_seconds);
  SteadyTime start = SteadyNow();

  Status stop = Status::OK();
  if (token->ShouldStop()) {
    // The deadline burned out in the queue (or Stop() cancelled us) — skip
    // straight to the fallback / error path without touching the engine.
    stop = token->StopStatus();
  } else {
    ExecuteControl control;
    control.cancel = token;
    control.seed = canon.seed;
    control.record = false;
    control.trace = trace;
    control.query_mask = query_mask;
    auto result = engine_->Execute(canon.query, control);
    if (result.ok()) {
      out.ci = result->ci;
      out.used_pre = result->used_pre;
      out.pre_description = result->pre_description;
      // The cache stores the *base* (unfolded) answer: a delta commit bumps
      // the cache generation through the commit observer, so this insert is
      // dropped whenever the delta changed since the probe, and hits fold
      // the live delta themselves.
      cache_.InsertIfCurrent(canon.key, template_id, *result,
                             cache_generation);
      if (ingest_ != nullptr) {
        Status folded = FoldDeltaLocked(canon.query, &out);
        if (!folded.ok()) {
          out = QueryOutcome{};
          out.status = std::move(folded);
        }
      }
      out.exec_seconds = SecondsBetween(start, SteadyNow());
      return out;
    }
    stop = result.status();
  }

  if (stop.code() == StatusCode::kDeadlineExceeded) {
    obs::SpanTimer progressive_span(obs::Phase::kProgressive, trace);
    auto partial = RunProgressive(canon, token);
    if (partial.ok()) {
      out.ci = partial->ci;
      out.partial = true;
      out.partial_rows_used = partial->rows_used;
      if (ingest_ != nullptr) {
        Status folded = FoldDeltaLocked(canon.query, &out);
        if (!folded.ok()) {
          out = QueryOutcome{};
          out.status = std::move(folded);
        }
      }
      out.exec_seconds = SecondsBetween(start, SteadyNow());
      return out;  // partial answers are NOT cached: different precision
    }
  }
  out.status = std::move(stop);
  out.exec_seconds = SecondsBetween(start, SteadyNow());
  return out;
}

void QueryService::RunBatch(std::vector<AdmissionController::Job>& jobs) {
  std::vector<std::shared_ptr<BatchItem>> items;
  items.reserve(jobs.size());
  for (AdmissionController::Job& j : jobs) {
    items.push_back(std::static_pointer_cast<BatchItem>(std::move(j.payload)));
  }
  if (items.size() > 1) {
    BatchServiceMetrics::Get().batch_size->Observe(
        static_cast<double>(items.size()));
    BatchServiceMetrics::Get().fused->Increment(items.size());
  }

  // Under ingest, the mask pass and every member's engine pass + delta fold
  // happen inside one shared acquisition of the ingest state mutex, so the
  // absorber's publish swap can never interleave with them (a row is counted
  // in exactly one of {published state, delta}).
  std::shared_lock<std::shared_mutex> state_lock;
  if (ingest_ != nullptr) {
    state_lock = std::shared_lock<std::shared_mutex>(ingest_->state_mutex());
  }

  // One pass over the sample evaluates every eligible member's predicate
  // mask. MIN/MAX members use the extrema grid (no sample mask) and
  // already-cancelled members skip straight to their error path, so neither
  // joins the pass. A member whose mask fails to bind simply runs without
  // one — the engine's own mask pass reproduces the identical error, and no
  // sibling is poisoned.
  const Table& sample_rows = *engine_->sample().rows;
  std::vector<size_t> mask_idx;
  std::vector<std::vector<RangeCondition>> conds;
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = *items[i];
    AggregateFunction func = item.canon.query.func;
    if (item.token->ShouldStop()) continue;
    if (func == AggregateFunction::kMin || func == AggregateFunction::kMax) {
      continue;
    }
    mask_idx.push_back(i);
    conds.push_back(item.canon.query.predicate.conditions());
  }
  std::vector<std::optional<std::vector<uint8_t>>> masks(items.size());
  if (!conds.empty()) {
    auto fused = kernels::MultiEvaluateMask(sample_rows, conds);
    for (size_t j = 0; j < mask_idx.size(); ++j) {
      if (fused[j].ok()) masks[mask_idx[j]] = std::move(*fused[j]);
    }
  }

  // Per-member execution under the shared masks: failures stay scoped to
  // their member, and every promise is fulfilled exactly once.
  for (size_t i = 0; i < items.size(); ++i) {
    BatchItem& item = *items[i];
    const std::vector<uint8_t>* mask =
        masks[i].has_value() ? &*masks[i] : nullptr;
    item.out = RunOnWorker(item.canon, item.template_id, item.token.get(),
                           item.enqueued, item.cache_generation, item.trace,
                           mask);
    item.done.set_value();
  }
}

Status QueryService::OnlineRounds(uint64_t session_id, const RangeQuery& query,
                                  std::vector<ProgressiveStep>* rounds) {
  rounds->clear();
  auto session_or = sessions_.Get(session_id);
  if (!session_or.ok()) return session_or.status();
  if (!query.group_by.empty()) {
    return Status::Unimplemented("online mode answers scalar queries");
  }
  CanonicalQuery canon = canonicalizer_.Canonicalize(query);

  std::shared_lock<std::shared_mutex> state_lock;
  if (ingest_ != nullptr) {
    state_lock = std::shared_lock<std::shared_mutex>(ingest_->state_mutex());
  }
  ExecuteControl control;
  control.seed = canon.seed;
  control.record = false;
  auto steps = engine_->ExecuteOnline(canon.query, control);
  if (!steps.ok()) {
    // Unstreamable aggregates and samples produce no rounds: online
    // degrades to one-shot. Anything else is a real failure.
    const StatusCode code = steps.status().code();
    if (code == StatusCode::kUnimplemented ||
        code == StatusCode::kFailedPrecondition) {
      return Status::OK();
    }
    return steps.status();
  }
  // The delta is not part of the sample, so every round gets the same exact
  // shift the one-shot answer gets — intervals translate, widths survive.
  double shift = 0.0;
  if (ingest_ != nullptr && IngestManager::FoldSupported(canon.query.func)) {
    std::shared_ptr<const Table> delta = ingest_->delta();
    if (delta != nullptr && delta->num_rows() > 0) {
      AQPP_ASSIGN_OR_RETURN(shift,
                            IngestManager::FoldValue(*delta, canon.query));
    }
  }
  const size_t sample_rows = engine_->sample().size();
  double tightest = std::numeric_limits<double>::infinity();
  for (ProgressiveStep step : *steps) {
    step.ci.estimate += shift;
    // A zero-width round short of the full sample means the consumed prefix
    // held no difference rows at all — that is absence of evidence, not
    // certainty. Emitting it would mislead the client and pin the monotone
    // filter at zero, silencing every honest round after it. (At the full
    // sample a zero width is exact — the query aligns with the cube — and
    // passes through.)
    if (step.ci.half_width == 0.0 && step.rows_used < sample_rows) continue;
    // Monotone filter: a round wider than its predecessor carries no new
    // information for the stream's contract and is dropped.
    if (step.ci.half_width > tightest) continue;
    tightest = step.ci.half_width;
    rounds->push_back(step);
  }
  return Status::OK();
}

Result<ProgressiveStep> QueryService::RunProgressive(
    const CanonicalQuery& canon, const CancellationToken* token) {
  ExecuteControl control;
  control.cancel = token;
  control.seed = canon.seed;
  control.record = false;
  AQPP_ASSIGN_OR_RETURN(auto steps,
                        engine_->ExecuteOnline(canon.query, control));
  return steps.back();
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.queries = queries_;
    s.completed = completed_;
    s.cache_hits = cache_hits_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.partial = partial_;
    s.cancelled = cancelled_;
    s.failed = failed_;
    s.single_flight_attached = single_flight_attached_;
    size_t n = latency_full_ ? latencies_.size() : latency_next_;
    if (n > 0) {
      std::vector<double> sorted(latencies_.begin(),
                                 latencies_.begin() + n);
      std::sort(sorted.begin(), sorted.end());
      auto pct = [&](double q) {
        size_t idx = static_cast<size_t>(
            std::ceil(q * static_cast<double>(n)));
        return sorted[std::min(n - 1, idx == 0 ? 0 : idx - 1)];
      };
      s.p50_latency_seconds = pct(0.50);
      s.p95_latency_seconds = pct(0.95);
      s.p99_latency_seconds = pct(0.99);
    }
  }
  s.cache = cache_.stats();
  uint64_t probes = s.cache.hits + s.cache.misses;
  s.cache_hit_rate =
      probes == 0 ? 0 : static_cast<double>(s.cache.hits) /
                            static_cast<double>(probes);
  s.admission = admission_.stats();
  s.sessions_active = sessions_.active();
  s.sessions_opened = sessions_.total_opened();
  s.slow_queries = slow_log_.total_recorded();
  return s;
}

}  // namespace aqpp
