#include "core/ingest.h"

#include <chrono>
#include <cmath>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "synopsis/synopsis.h"

namespace aqpp {

namespace {

struct IngestMetrics {
  obs::Counter* rows;
  obs::Counter* batches;
  obs::Counter* rejected;
  obs::Counter* absorbs;
  obs::Counter* absorb_failures;
  obs::Gauge* delta_rows;
  obs::Histogram* absorb_latency;
  static const IngestMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const IngestMetrics m = {
        reg.GetCounter("aqpp_ingest_rows_total", "",
                       "Rows committed to the ingest delta."),
        reg.GetCounter("aqpp_ingest_batches_total", "",
                       "Batches committed to the ingest delta."),
        reg.GetCounter("aqpp_ingest_rejected_batches_total", "",
                       "Ingest batches rejected at validation or by "
                       "delta backpressure."),
        reg.GetCounter("aqpp_ingest_absorbs_total", "",
                       "Absorb cycles published (delta folded into cube, "
                       "reservoir, and synopsis)."),
        reg.GetCounter("aqpp_ingest_absorb_failures_total", "",
                       "Absorb cycles aborted before publishing; the prior "
                       "generation stays live."),
        reg.GetGauge("aqpp_ingest_delta_rows", "",
                     "Rows currently resident in the ingest delta."),
        reg.GetHistogram("aqpp_ingest_absorb_seconds", "", {},
                         "Wall time of one absorb cycle (candidate "
                         "preparation + publish swap)."),
    };
    return m;
  }
};

// New empty table with `base`'s schema sharing its dictionary codings, so
// ordinal codes in the delta line up with canonicalized predicates.
std::shared_ptr<Table> NewDeltaLike(const Table& base) {
  auto t = std::make_shared<Table>(base.schema());
  for (size_t c = 0; c < base.num_columns(); ++c) {
    if (base.column(c).type() == DataType::kString) {
      t->mutable_column(c).SetDictionary(base.column(c).dictionary());
    }
  }
  return t;
}

// Appends rows [begin, end) of `src` onto `dst`, re-coding string values
// into dst's dictionaries. The caller has validated dictionary membership,
// so lookups cannot fail.
void AppendRowsCoded(Table* dst, const Table& src, size_t begin, size_t end) {
  for (size_t c = 0; c < dst->num_columns(); ++c) {
    Column& d = dst->mutable_column(c);
    const Column& s = src.column(c);
    if (d.type() == DataType::kDouble) {
      auto& out = d.MutableDoubleData();
      const auto& in = s.DoubleData();
      out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(begin),
                 in.begin() + static_cast<ptrdiff_t>(end));
    } else if (d.type() == DataType::kString) {
      auto& out = d.MutableInt64Data();
      out.reserve(out.size() + (end - begin));
      for (size_t r = begin; r < end; ++r) {
        auto code = d.LookupDictionary(s.GetString(r));
        AQPP_CHECK(code.ok()) << "unvalidated dictionary value reached commit";
        out.push_back(*code);
      }
    } else {
      auto& out = d.MutableInt64Data();
      const auto& in = s.Int64Data();
      out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(begin),
                 in.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  dst->SetRowCountFromColumns();
}

uint64_t CycleSeed(uint64_t base, uint64_t rows_absorbed_before) {
  // splitmix-style derivation: equal (seed, absorbed-prefix) => equal draw,
  // so a failed cycle retries with the same reservoir continuation.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (rows_absorbed_before + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

IngestManager::IngestManager(AqppEngine* engine, IngestOptions options)
    : engine_(engine), options_(options) {
  AQPP_CHECK(engine_ != nullptr);
  delta_ = NewDeltaLike(engine_->table());
}

IngestManager::~IngestManager() { Stop(); }

Status IngestManager::Start() {
  if (!options_.background) return Status::OK();
  if (absorber_.joinable()) {
    return Status::FailedPrecondition("ingest absorber already running");
  }
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    stop_ = false;
  }
  absorber_ = std::thread([this] { AbsorberLoop(); });
  return Status::OK();
}

void IngestManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (absorber_.joinable()) absorber_.join();
}

void IngestManager::set_commit_observer(std::function<void()> observer) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  observer_ = std::move(observer);
}

void IngestManager::NotifyObserver() {
  std::function<void()> observer;
  {
    std::lock_guard<std::mutex> lock(observer_mu_);
    observer = observer_;
  }
  if (observer) observer();
}

std::shared_ptr<const Table> IngestManager::delta() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return delta_;
}

uint64_t IngestManager::generation() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return committed_generation_;
}

IngestSnapshot IngestManager::snapshot() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  IngestSnapshot s;
  s.committed_generation = committed_generation_;
  s.absorbed_generation = absorbed_generation_;
  s.batches_committed = batches_committed_;
  s.rows_committed = rows_committed_;
  s.rows_absorbed = rows_absorbed_;
  s.absorb_failures = absorb_failures_;
  s.delta_rows = delta_ == nullptr ? 0 : delta_->num_rows();
  s.total_rows = engine_->table().num_rows() + rows_committed_;
  return s;
}

Status IngestManager::ValidateBatch(const Table& batch) const {
  if (batch.num_rows() == 0) {
    return Status::InvalidArgument("empty ingest batch");
  }
  if (batch.num_rows() > options_.max_batch_rows) {
    return Status::InvalidArgument(
        StrFormat("ingest batch of %zu rows exceeds the %zu-row bound",
                  batch.num_rows(), options_.max_batch_rows));
  }
  // The absorber continues the sample by Algorithm R, which keeps uniform
  // samples only; reject up front so no batch commits that could never be
  // absorbed.
  if (engine_->sample().method != SamplingMethod::kUniform) {
    return Status::FailedPrecondition(StrFormat(
        "ingest requires a uniform engine sample (this engine's is %s)",
        SamplingMethodToString(engine_->sample().method)));
  }
  const Table& base = engine_->table();
  AQPP_RETURN_NOT_OK(
      synopsis::CheckSameSchema(base.schema(), batch.schema()));
  AQPP_RETURN_NOT_OK(synopsis::ValidateBatchDictionaries(base, batch));
  // Non-finite measures would poison every downstream aggregate (cube cells,
  // reservoir moments, delta folds); reject the batch whole.
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.column(c).type() != DataType::kDouble) continue;
    for (double v : batch.column(c).DoubleData()) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "non-finite value in column '" + batch.schema().column(c).name +
            "'");
      }
    }
  }
  // A synopsis that is not engine-aligned absorbs the batch itself later;
  // a batch it would refuse would fail every absorb cycle, so refuse it now.
  if (auto syn = engine_->active_synopsis();
      syn != nullptr && !syn->engine_aligned()) {
    AQPP_RETURN_NOT_OK(syn->ValidateAbsorb(batch));
  }
  // Cube-domain guard (footnote 5): a value past a dimension's last cut of
  // any template's cube would silently break that cube's coverage guarantee
  // — reject up front so the absorber can never fail on it later.
  for (size_t t = 0; t < engine_->num_templates(); ++t) {
    const PrefixCube* cube = engine_->cube_of(t);
    if (cube == nullptr) continue;
    for (const auto& dim : cube->scheme().dims()) {
      const Column& base_col = base.column(dim.column);
      const Column& batch_col = batch.column(dim.column);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        int64_t v;
        if (base_col.type() == DataType::kString) {
          auto code = base_col.LookupDictionary(batch_col.GetString(r));
          AQPP_CHECK(code.ok());  // dictionary membership validated above
          v = *code;
        } else {
          v = batch_col.GetInt64(r);
        }
        if (v > dim.cuts.back()) {
          return Status::OutOfRange(StrFormat(
              "appended value %lld on column '%s' exceeds the cube's last "
              "cut %lld; rebuild the cube to extend the domain",
              static_cast<long long>(v),
              base.schema().column(dim.column).name.c_str(),
              static_cast<long long>(dim.cuts.back())));
        }
      }
    }
  }
  return Status::OK();
}

Status IngestManager::Append(const Table& batch) {
  // Validation reads published engine state (cube scheme, dictionaries); hold
  // the state lock shared so a concurrent absorb publish cannot swap the cube
  // out from under the domain check.
  Status valid;
  {
    std::shared_lock<std::shared_mutex> state_lock(state_mu_);
    valid = ValidateBatch(batch);
  }
  if (!valid.ok()) {
    IngestMetrics::Get().rejected->Increment();
    return valid;
  }
  if (auto fired = AQPP_FAILPOINT_EVAL("ingest/append")) {
    if (fired->kind == fail::ActionKind::kReturnError) {
      IngestMetrics::Get().rejected->Increment();
      return fired->error;
    }
  }
  size_t delta_rows_after = 0;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    size_t current = delta_ == nullptr ? 0 : delta_->num_rows();
    if (current + batch.num_rows() > options_.max_delta_rows) {
      IngestMetrics::Get().rejected->Increment();
      return Status::ResourceExhausted(StrFormat(
          "ingest delta holds %zu rows (bound %zu); retry after the "
          "absorber catches up",
          current, options_.max_delta_rows));
    }
    // Copy-on-write commit: readers that snapshotted the previous delta keep
    // scanning a stable table.
    auto next = NewDeltaLike(engine_->table());
    if (current > 0) AppendRowsCoded(next.get(), *delta_, 0, current);
    AppendRowsCoded(next.get(), batch, 0, batch.num_rows());
    delta_ = std::move(next);
    ++batches_committed_;
    rows_committed_ += batch.num_rows();
    ++committed_generation_;
    delta_rows_after = delta_->num_rows();
  }
  IngestMetrics::Get().rows->Increment(batch.num_rows());
  IngestMetrics::Get().batches->Increment();
  IngestMetrics::Get().delta_rows->Set(
      static_cast<int64_t>(delta_rows_after));
  NotifyObserver();
  if (options_.background && delta_rows_after >= options_.absorb_threshold_rows) {
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      wake_ = true;
    }
    cv_.notify_all();
  }
  return Status::OK();
}

Result<double> IngestManager::FoldValue(const Table& delta,
                                        const RangeQuery& query) {
  if (auto fired = AQPP_FAILPOINT_EVAL("ingest/delta_fold")) {
    if (fired->kind == fail::ActionKind::kReturnError) return fired->error;
  }
  if (!FoldSupported(query.func)) {
    return Status::Unimplemented(
        "exact delta folds cover SUM and COUNT only");
  }
  if (query.func == AggregateFunction::kSum &&
      query.agg_column >= delta.num_columns()) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  double total = 0.0;
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    if (!query.predicate.Matches(delta, r)) continue;
    total += query.func == AggregateFunction::kCount
                 ? 1.0
                 : delta.column(query.agg_column).GetDouble(r);
  }
  return total;
}

Status IngestManager::AbsorbNow() {
  std::lock_guard<std::mutex> cycle_lock(absorb_mu_);
  Status st = AbsorbCycle();
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(delta_mu_);
    ++absorb_failures_;
    IngestMetrics::Get().absorb_failures->Increment();
  }
  return st;
}

Status IngestManager::AbsorbCycle() {
  std::shared_ptr<const Table> batch;
  uint64_t rows_absorbed_before = 0;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    batch = delta_;
    rows_absorbed_before = rows_absorbed_;
  }
  if (batch == nullptr || batch->num_rows() == 0) return Status::OK();
  const size_t absorbing = batch->num_rows();
  SteadyTime start = SteadyNow();

  if (auto fired = AQPP_FAILPOINT_EVAL("ingest/absorb_commit")) {
    if (fired->kind == fail::ActionKind::kReturnError) return fired->error;
  }

  // ---- Candidates, prepared outside any lock --------------------------------

  // Reservoir continuation over a copy of the live sample; the continuation
  // unshares its rows before Algorithm R overwrites any.
  Sample sample = engine_->sample();
  if (sample.size() == 0) {
    return Status::FailedPrecondition(
        "engine has no sample; prepare it before ingest");
  }
  size_t rows_seen = sample.population_size;
  Rng rng(CycleSeed(options_.seed, rows_absorbed_before));
  AQPP_RETURN_NOT_OK(
      synopsis::ContinueReservoir(&sample, &rows_seen, *batch, rng));

  // Cubes: per template, a delta cube over the (validated,
  // dictionary-coded) delta, added onto a clone — exact, because prefix
  // summation is linear.
  std::vector<std::shared_ptr<PrefixCube>> cube_candidates(
      engine_->num_templates());
  for (size_t t = 0; t < cube_candidates.size(); ++t) {
    std::shared_ptr<PrefixCube> live = engine_->shared_cube(t);
    if (live == nullptr) continue;
    AQPP_ASSIGN_OR_RETURN(
        auto delta_cube,
        PrefixCube::Build(*batch, live->scheme(), live->measures()));
    cube_candidates[t] = live->Clone();
    AQPP_RETURN_NOT_OK(cube_candidates[t]->MergeFrom(*delta_cube));
  }

  // A non-aligned synopsis summarizes the table, not the engine sample:
  // serialize → fresh instance → absorb the clone. An engine-aligned one is
  // re-adopted over the published sample by PublishMaintained.
  std::shared_ptr<synopsis::Synopsis> synopsis_candidate;
  if (auto active = engine_->active_synopsis(); !active->engine_aligned()) {
    AQPP_ASSIGN_OR_RETURN(
        auto fresh, synopsis::CreateSynopsis(active->kind(), active->options()));
    std::string bytes;
    AQPP_RETURN_NOT_OK(active->SerializeTo(&bytes));
    AQPP_RETURN_NOT_OK(fresh->DeserializeFrom(bytes));
    AQPP_RETURN_NOT_OK(fresh->Absorb(*batch));
    synopsis_candidate = std::move(fresh);
  }

  // ---- Publish: one exclusive critical section ------------------------------

  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    if (auto fired = AQPP_FAILPOINT_EVAL("ingest/swap")) {
      if (fired->kind == fail::ActionKind::kReturnError) return fired->error;
    }
    AQPP_RETURN_NOT_OK(engine_->PublishMaintained(
        std::move(sample), std::move(cube_candidates)));
    // A concurrent SET SYNOPSIS may have swapped kinds mid-cycle; never
    // clobber the newer selection with a stale clone.
    if (synopsis_candidate != nullptr &&
        std::string(engine_->active_synopsis()->kind()) ==
            synopsis_candidate->kind()) {
      engine_->AdoptSynopsis(std::move(synopsis_candidate));
    }
    {
      std::lock_guard<std::mutex> lock(delta_mu_);
      auto next = NewDeltaLike(engine_->table());
      if (delta_ != nullptr && delta_->num_rows() > absorbing) {
        AppendRowsCoded(next.get(), *delta_, absorbing, delta_->num_rows());
      }
      delta_ = std::move(next);
      rows_absorbed_ += absorbing;
      ++absorbed_generation_;
      ++committed_generation_;
      IngestMetrics::Get().delta_rows->Set(
          static_cast<int64_t>(delta_->num_rows()));
    }
    // The observer (cache invalidation) must fire before any reader can run
    // against the new state: a reader that acquired the state lock after this
    // publish but before invalidation could pair a stale cached base answer
    // with the truncated delta and lose the absorbed rows.
    NotifyObserver();
  }
  IngestMetrics::Get().absorbs->Increment();
  IngestMetrics::Get().absorb_latency->Observe(
      SecondsBetween(start, SteadyNow()));
  return Status::OK();
}

void IngestManager::AbsorberLoop() {
  std::unique_lock<std::mutex> lock(cv_mu_);
  while (!stop_) {
    cv_.wait_for(
        lock,
        std::chrono::duration<double>(options_.absorb_interval_seconds),
        [this] { return stop_ || wake_; });
    wake_ = false;
    if (stop_) break;
    lock.unlock();
    bool pending;
    {
      std::lock_guard<std::mutex> dlock(delta_mu_);
      pending = delta_ != nullptr && delta_->num_rows() > 0;
    }
    if (pending) {
      Status st = AbsorbNow();
      if (!st.ok()) {
        AQPP_LOG(Warning) << "ingest absorb cycle aborted: " << st.ToString();
      }
    }
    lock.lock();
  }
}

}  // namespace aqpp
