#include "synopsis/reservoir.h"

#include <cmath>

#include "common/failpoint.h"
#include "common/logging.h"
#include "sampling/samplers.h"
#include "synopsis/closed_form.h"
#include "synopsis/serialize_util.h"

namespace aqpp {
namespace synopsis {

namespace {
constexpr char kMagic[] = "AQPPSYN1";
}  // namespace

ReservoirSynopsis::ReservoirSynopsis(std::string kind, SynopsisOptions options)
    : Synopsis(std::move(options)),
      kind_(std::move(kind)),
      absorb_rng_(options_.seed) {}

Status ReservoirSynopsis::BuildFromTable(const Table& table) {
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("cannot build a synopsis of no rows");
  }
  Rng build_rng(options_.seed);
  AQPP_ASSIGN_OR_RETURN(
      sample_, CreateUniformSample(table, options_.sample_rate, build_rng));
  rows_seen_ = sample_.population_size;
  absorb_rng_ = Rng(options_.seed);
  measure_cache_ = std::make_unique<MeasureCache>(sample_.rows.get());
  built_ = true;
  engine_aligned_ = false;
  ci_inflation_ = 1.0;
  return Status::OK();
}

Status ReservoirSynopsis::BuildFromSample(const Sample& sample) {
  // The bootstrap kind runs the engine's own weighted estimator, so it adopts
  // any sample; the closed-form intervals assume a uniform draw.
  if (closed_form() && sample.method != SamplingMethod::kUniform) {
    return Status::Unimplemented(
        "reservoir_closed synopsis adopts uniform samples only");
  }
  if (sample.rows == nullptr) {
    return Status::FailedPrecondition("cannot adopt a sample without rows");
  }
  // Shares the engine's rows: the adopted synopsis is a row-for-row view of
  // the engine sample, which keeps engine-computed masks valid
  // (engine_aligned) and the estimates bit-identical to SampleEstimator over
  // that sample (an empty one included). Absorb copies the rows before it
  // overwrites any.
  sample_ = sample;
  rows_seen_ = sample_.population_size;
  absorb_rng_ = Rng(options_.seed);
  measure_cache_ = std::make_unique<MeasureCache>(sample_.rows.get());
  built_ = true;
  engine_aligned_ = true;
  ci_inflation_ = 1.0;
  return Status::OK();
}

SampleEstimator ReservoirSynopsis::Estimator(obs::QueryTrace* trace) const {
  SampleEstimator est(&sample_,
                      {options_.confidence_level, options_.bootstrap_resamples});
  est.set_measure_cache(measure_cache_.get());
  est.set_trace(trace);
  return est;
}

ConfidenceInterval ReservoirSynopsis::Inflate(ConfidenceInterval ci) const {
  // Skipped entirely at 1.0 so the un-degraded reservoir path stays
  // bit-identical to SampleEstimator (no spurious rounding).
  if (ci_inflation_ != 1.0) ci.half_width *= ci_inflation_;
  return ci;
}

Result<ConfidenceInterval> ReservoirSynopsis::Estimate(
    const RangeQuery& query, const ExecuteControl& control, Rng& rng) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("synopsis estimates are scalar");
  }
  SampleEstimator est = Estimator(control.trace);
  const std::vector<uint8_t>* mask = nullptr;
  std::vector<uint8_t> local_mask;
  if (control.query_mask != nullptr && engine_aligned_ &&
      control.query_mask->size() == sample_.size()) {
    mask = control.query_mask;
  } else {
    AQPP_ASSIGN_OR_RETURN(local_mask, est.Mask(query.predicate));
    mask = &local_mask;
  }
  if (closed_form()) {
    AQPP_ASSIGN_OR_RETURN(auto ci,
                          ClosedFormMasked(query, *mask, nullptr, PreValues{}));
    return Inflate(ci);
  }
  AQPP_ASSIGN_OR_RETURN(auto ci, est.EstimateDirectMasked(query, *mask, rng));
  return Inflate(ci);
}

Result<ConfidenceInterval> ReservoirSynopsis::EstimateWithPre(
    const RangeQuery& query, const RangePredicate& pre_predicate,
    const PreValues& pre, const ExecuteControl& control, Rng& rng) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  AQPP_ASSIGN_OR_RETURN(auto q_mask,
                        query.predicate.EvaluateMask(*sample_.rows));
  AQPP_ASSIGN_OR_RETURN(auto pre_mask, pre_predicate.EvaluateMask(*sample_.rows));
  return EstimateWithPreMasked(query, q_mask, pre_mask, pre, control, rng);
}

Result<ConfidenceInterval> ReservoirSynopsis::EstimateWithPreMasked(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>& pre_mask, const PreValues& pre,
    const ExecuteControl& control, Rng& rng) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("synopsis estimates are scalar");
  }
  if (q_mask.size() != sample_.size() || pre_mask.size() != sample_.size()) {
    return Status::InvalidArgument("mask length does not match synopsis rows");
  }
  if (closed_form()) {
    AQPP_ASSIGN_OR_RETURN(auto ci,
                          ClosedFormMasked(query, q_mask, &pre_mask, pre));
    return Inflate(ci);
  }
  SampleEstimator est = Estimator(control.trace);
  AQPP_ASSIGN_OR_RETURN(auto ci,
                        est.EstimateWithPreMasked(query, q_mask, pre_mask,
                                                  pre, rng));
  return Inflate(ci);
}

Result<ConfidenceInterval> ReservoirSynopsis::ClosedFormMasked(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>* pre_mask, const PreValues& pre) const {
  const size_t n = sample_.size();
  const double dn = static_cast<double>(n);
  // d_i = cond_q - cond_pre in {-1, 0, 1}; the direct case is pre = phi
  // (all-zero pre mask), collapsing d to the plain query mask.
  auto diff = [&](size_t i) {
    double d = q_mask[i] ? 1.0 : 0.0;
    if (pre_mask != nullptr && (*pre_mask)[i]) d -= 1.0;
    return d;
  };
  SampleEstimator est = Estimator(nullptr);

  switch (query.func) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount: {
      std::vector<double> measure;
      if (query.func == AggregateFunction::kSum) {
        AQPP_ASSIGN_OR_RETURN(measure, est.MeasureValues(query.agg_column));
      }
      std::vector<double> z(n);
      for (size_t i = 0; i < n; ++i) {
        const double a =
            query.func == AggregateFunction::kSum ? measure[i] : 1.0;
        z[i] = dn * sample_.weights[i] * a * diff(i);
      }
      ConfidenceInterval ci =
          ClosedFormSumCI(z, options_.confidence_level);
      ci.estimate +=
          query.func == AggregateFunction::kSum ? pre.sum : pre.count;
      return ci;
    }
    case AggregateFunction::kAvg: {
      AQPP_ASSIGN_OR_RETURN(auto measure, est.MeasureValues(query.agg_column));
      std::vector<double> s_contrib(n), c_contrib(n);
      for (size_t i = 0; i < n; ++i) {
        const double wd = sample_.weights[i] * diff(i);
        s_contrib[i] = wd * measure[i];
        c_contrib[i] = wd;
      }
      return ClosedFormRatioCI(s_contrib, c_contrib, pre,
                               options_.confidence_level);
    }
    case AggregateFunction::kVar: {
      AQPP_ASSIGN_OR_RETURN(auto measure, est.MeasureValues(query.agg_column));
      std::vector<double> s2_contrib(n), s_contrib(n), c_contrib(n);
      for (size_t i = 0; i < n; ++i) {
        const double wd = sample_.weights[i] * diff(i);
        s2_contrib[i] = wd * measure[i] * measure[i];
        s_contrib[i] = wd * measure[i];
        c_contrib[i] = wd;
      }
      return ClosedFormVarCI(s2_contrib, s_contrib, c_contrib, pre,
                             options_.confidence_level);
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return Status::Unimplemented(
          "AQP cannot estimate MIN/MAX from a sample (Section 8)");
  }
  return Status::Internal("unreachable");
}

Status ReservoirSynopsis::Absorb(const Table& batch) {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  AQPP_RETURN_NOT_OK(CheckSameSchema(sample_.rows->schema(), batch.schema()));
  // The continuation validates the whole batch before it overwrites a row,
  // so a rejected batch and a torn absorb (chaos lane) both leave the old
  // synopsis, never a half-overwritten reservoir.
  AQPP_FAILPOINT_RETURN_STATUS("synopsis/absorb");
  AQPP_RETURN_NOT_OK(
      ContinueReservoir(&sample_, &rows_seen_, batch, absorb_rng_));
  // Overwrites invalidate cached measure materializations and any
  // engine-computed masks.
  measure_cache_ = std::make_unique<MeasureCache>(sample_.rows.get());
  engine_aligned_ = false;
  return Status::OK();
}

Status ReservoirSynopsis::Degrade(double keep_fraction, Rng& rng) {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!(keep_fraction > 0.0) || keep_fraction > 1.0) {
    return Status::InvalidArgument("keep_fraction must be in (0, 1]");
  }
  AQPP_ASSIGN_OR_RETURN(sample_, Subsample(sample_, keep_fraction, rng));
  // Conservative widening: the retained rows carry 1/keep times less
  // information, so every subsequent interval is inflated by at least that
  // factor — the "never tighter after Degrade" contract.
  ci_inflation_ *= 1.0 / keep_fraction;
  rows_seen_ = sample_.population_size;
  measure_cache_ = std::make_unique<MeasureCache>(sample_.rows.get());
  engine_aligned_ = false;
  return Status::OK();
}

Status ReservoirSynopsis::SerializeTo(std::string* out) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  out->clear();
  out->append(kMagic);
  PutString(out, kind_);
  PutF64(out, options_.confidence_level);
  PutU64(out, options_.bootstrap_resamples);
  PutF64(out, options_.sample_rate);
  PutU64(out, static_cast<uint64_t>(options_.ci_method));
  PutU64(out, options_.seed);
  PutF64(out, ci_inflation_);
  PutU64(out, rows_seen_);
  PutSample(out, sample_);
  return Status::OK();
}

Status ReservoirSynopsis::DeserializeFrom(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) - 1 ||
      bytes.compare(0, sizeof(kMagic) - 1, kMagic) != 0) {
    return Status::InvalidArgument("bad synopsis magic");
  }
  std::string payload = bytes.substr(sizeof(kMagic) - 1);
  ByteReader r(payload);
  std::string kind;
  if (!r.GetString(&kind)) return Status::InvalidArgument("truncated kind");
  if (kind != kind_) {
    return Status::InvalidArgument("serialized kind '" + kind +
                                   "' does not match this synopsis ('" +
                                   kind_ + "')");
  }
  uint64_t resamples = 0, ci_method = 0, seed = 0, rows_seen = 0;
  double level = 0, rate = 0, inflation = 0;
  if (!r.GetF64(&level) || !r.GetU64(&resamples) || !r.GetF64(&rate) ||
      !r.GetU64(&ci_method) || ci_method > 1 || !r.GetU64(&seed) ||
      !r.GetF64(&inflation) || !r.GetU64(&rows_seen)) {
    return Status::InvalidArgument("truncated synopsis header");
  }
  AQPP_ASSIGN_OR_RETURN(Sample sample, GetSample(&r));
  if (!r.Done()) return Status::InvalidArgument("trailing synopsis bytes");
  if (sample.size() == 0) {
    return Status::InvalidArgument("serialized synopsis has no rows");
  }
  options_.confidence_level = level;
  options_.bootstrap_resamples = static_cast<size_t>(resamples);
  options_.sample_rate = rate;
  options_.ci_method = static_cast<SynopsisOptions::CiMethod>(ci_method);
  options_.seed = seed;
  ci_inflation_ = inflation;
  rows_seen_ = static_cast<size_t>(rows_seen);
  sample_ = std::move(sample);
  // The absorb stream is not serialized; re-derive it deterministically so
  // restored instances absorb reproducibly (statistical equivalence, not
  // draw-for-draw continuation).
  absorb_rng_ = Rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * rows_seen_));
  measure_cache_ = std::make_unique<MeasureCache>(sample_.rows.get());
  built_ = true;
  engine_aligned_ = false;
  return Status::OK();
}

size_t ReservoirSynopsis::MemoryUsage() const {
  return built_ ? sample_.MemoryUsage() : 0;
}

}  // namespace synopsis
}  // namespace aqpp
