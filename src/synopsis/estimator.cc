#include "synopsis/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "kernels/elementwise.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace aqpp {

Result<const std::vector<double>*> MeasureCache::Get(size_t column) {
  if (column >= rows_->num_columns()) {
    return Status::InvalidArgument("measure column out of range");
  }
  const Column& col = rows_->column(column);
  // kDouble columns are already the double span we need: borrow in place.
  if (col.type() == DataType::kDouble) return &col.DoubleData();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = columns_.find(column);
  if (it == columns_.end()) {
    auto values =
        std::make_unique<std::vector<double>>(col.ToDoubleVector());
    it = columns_.emplace(column, std::move(values)).first;
  }
  return it->second.get();
}

SampleEstimator::SampleEstimator(const Sample* sample,
                                 EstimatorOptions options)
    : sample_(sample),
      options_(options),
      lambda_(NormalCriticalValue(options.confidence_level)) {
  AQPP_CHECK(sample != nullptr);
  AQPP_CHECK_GT(sample->size(), 0u);
}

ConfidenceInterval SampleEstimator::SumCI(
    const std::vector<double>& y_values) const {
  const size_t n = sample_->size();
  AQPP_CHECK_EQ(y_values.size(), n);
  ConfidenceInterval ci;
  ci.level = options_.confidence_level;

  if (sample_->stratified()) {
    // est = sum_h N_h * mean_h(y); Var = sum_h N_h^2 * s_h^2 / n_h.
    std::vector<RunningMoments> per_stratum(sample_->stratum_info.size());
    for (size_t i = 0; i < n; ++i) {
      per_stratum[static_cast<size_t>(sample_->strata[i])].Add(y_values[i]);
    }
    double est = 0, var = 0;
    for (size_t h = 0; h < per_stratum.size(); ++h) {
      const auto& m = per_stratum[h];
      double num_pop = static_cast<double>(sample_->stratum_info[h].population_rows);
      if (m.count() == 0) continue;
      est += num_pop * m.mean();
      var += num_pop * num_pop * m.variance_sample() / m.count();
    }
    ci.estimate = est;
    ci.half_width = lambda_ * std::sqrt(std::max(0.0, var));
    return ci;
  }

  // Non-stratified: per-row expansion contributions z_i = n * w_i * y_i;
  // estimate = mean(z), Var(estimate) = s^2(z) / n. For a uniform sample
  // (w_i = N/n) this reduces verbatim to Example 1's
  // N * mean(A'), lambda * N * sqrt(Var(A') / n).
  RunningMoments z;
  const double dn = static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    z.Add(dn * sample_->weights[i] * y_values[i]);
  }
  ci.estimate = z.mean();
  ci.half_width = lambda_ * std::sqrt(z.variance_sample() / dn);
  return ci;
}

Result<std::vector<uint8_t>> SampleEstimator::Mask(
    const RangePredicate& predicate) const {
  return predicate.EvaluateMask(*sample_->rows);
}

Result<std::vector<double>> SampleEstimator::MeasureValues(
    size_t column) const {
  AQPP_ASSIGN_OR_RETURN(const std::vector<double>* values, MeasureRef(column));
  return *values;
}

Result<const std::vector<double>*> SampleEstimator::MeasureRef(
    size_t column) const {
  if (measure_cache_ != nullptr) {
    return measure_cache_->Get(column);
  }
  if (column >= sample_->rows->num_columns()) {
    return Status::InvalidArgument("measure column out of range");
  }
  const Column& col = sample_->rows->column(column);
  if (col.type() == DataType::kDouble) return &col.DoubleData();
  auto it = local_measures_.find(column);
  if (it == local_measures_.end()) {
    auto values =
        std::make_unique<std::vector<double>>(col.ToDoubleVector());
    it = local_measures_.emplace(column, std::move(values)).first;
  }
  return it->second.get();
}

namespace {

// y_i = measure_i * mask_i as doubles.
std::vector<double> MaskedValues(const std::vector<double>& measure,
                                 const std::vector<uint8_t>& mask) {
  std::vector<double> y(measure.size());
  kernels::MaskedMeasure(measure.data(), mask.data(), measure.size(),
                         y.data());
  return y;
}

}  // namespace

ConfidenceInterval SampleEstimator::SumDifferenceCI(
    const std::vector<double>& measure, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>& pre_mask, double pre_value) const {
  // y_i = A_i * (cond_q - cond_pre): Example 3's A * cond(C = 0) pattern.
  std::vector<double> y(measure.size());
  kernels::DifferenceSeries(measure.data(), q_mask.data(), pre_mask.data(),
                            measure.size(), y.data());
  obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
  ConfidenceInterval ci = SumCI(y);
  ci_span.Stop();
  ci.estimate += pre_value;  // pre(D) is a known constant
  return ci;
}

ConfidenceInterval AvgDifferenceBootstrapCI(const SupportSeries<2>& contrib,
                                            const PreValues& pre,
                                            double confidence_level,
                                            size_t resamples, Rng& rng) {
  auto ratio_of = [&](const SupportSeries<2>::Row& sums) {
    double den = pre.count + sums[1];
    return den != 0 ? (pre.sum + sums[0]) / den : 0.0;
  };
  ConfidenceInterval ci;
  ci.level = confidence_level;
  ci.estimate = ratio_of(contrib.Sums());
  ci.half_width = PercentileHalfWidth(
      contrib.Resample(ratio_of, resamples, rng), confidence_level);
  return ci;
}

ConfidenceInterval VarDifferenceBootstrapCI(const SupportSeries<3>& contrib,
                                            const PreValues& pre,
                                            double confidence_level,
                                            size_t resamples, Rng& rng) {
  auto var_of = [&](const SupportSeries<3>::Row& sums) {
    double cnt = pre.count + sums[2];
    if (cnt <= 0) return 0.0;
    double mean = (pre.sum + sums[1]) / cnt;
    double ex2 = (pre.sum_sq + sums[0]) / cnt;
    return std::max(0.0, ex2 - mean * mean);
  };
  ConfidenceInterval ci;
  ci.level = confidence_level;
  ci.estimate = var_of(contrib.Sums());
  ci.half_width = PercentileHalfWidth(
      contrib.Resample(var_of, resamples, rng), confidence_level);
  return ci;
}

Result<ConfidenceInterval> SampleEstimator::EstimateDirect(
    const RangeQuery& query, Rng& rng) const {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "EstimateDirect handles scalar queries only");
  }
  AQPP_ASSIGN_OR_RETURN(auto mask, Mask(query.predicate));
  return EstimateDirectMasked(query, mask, rng);
}

Result<ConfidenceInterval> SampleEstimator::EstimateDirectMasked(
    const RangeQuery& query, const std::vector<uint8_t>& mask,
    Rng& rng) const {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "EstimateDirect handles scalar queries only");
  }
  const size_t n = sample_->size();
  AQPP_CHECK_EQ(mask.size(), n);

  switch (query.func) {
    case AggregateFunction::kSum: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure,
                            MeasureRef(query.agg_column));
      std::vector<double> y = MaskedValues(*measure, mask);
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      return SumCI(y);
    }
    case AggregateFunction::kCount: {
      std::vector<double> y(n);
      kernels::MaskToDouble(mask.data(), n, y.data());
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      return SumCI(y);
    }
    case AggregateFunction::kAvg: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure_ptr,
                            MeasureRef(query.agg_column));
      const std::vector<double>& measure = *measure_ptr;
      // Ratio estimator R = (sum w a cond) / (sum w cond), linearized CI:
      // Var(R) ≈ Var( sum_i w_i cond_i (a_i - R) ) / (sum w cond)^2.
      double num = 0, den = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!mask[i]) continue;
        num += sample_->weights[i] * measure[i];
        den += sample_->weights[i];
      }
      ConfidenceInterval ci;
      ci.level = options_.confidence_level;
      if (den <= 0) return ci;  // no matching rows observed
      double ratio = num / den;
      std::vector<double> resid(n);
      for (size_t i = 0; i < n; ++i) {
        resid[i] = mask[i] ? (measure[i] - ratio) : 0.0;
      }
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      ConfidenceInterval resid_ci = SumCI(resid);
      ci_span.Stop();
      ci.estimate = ratio;
      ci.half_width = resid_ci.half_width / den;
      return ci;
    }
    case AggregateFunction::kVar: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure_ptr,
                            MeasureRef(query.agg_column));
      const std::vector<double>& measure = *measure_ptr;
      // Plug-in weighted population variance, bootstrap CI. The statistic
      // skips unmasked rows, so the masked rows are the resampling support.
      std::vector<std::pair<double, double>> support;  // (A_i, w_i)
      RunningMoments full;
      for (size_t i = 0; i < n; ++i) {
        if (!mask[i]) continue;
        support.emplace_back(measure[i], sample_->weights[i]);
        full.AddWeighted(measure[i], sample_->weights[i]);
      }
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      SupportResampler resampler(n, support.size());
      std::vector<double> estimates(options_.bootstrap_resamples);
      for (double& e : estimates) {
        RunningMoments m;
        resampler.Draw(rng, [&](size_t j) {
          m.AddWeighted(support[j].first, support[j].second);
        });
        e = m.variance_population();
      }
      ConfidenceInterval ci;
      ci.level = options_.confidence_level;
      ci.half_width = PercentileHalfWidth(std::move(estimates), ci.level);
      ci_span.Stop();
      // Center on the full-sample plug-in value.
      ci.estimate = full.variance_population();
      return ci;
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return Status::Unimplemented(
          "AQP cannot estimate MIN/MAX from a sample (Section 8)");
  }
  return Status::Internal("unreachable");
}

Result<ConfidenceInterval> SampleEstimator::EstimateWithPre(
    const RangeQuery& query, const RangePredicate& pre_predicate,
    const PreValues& pre, Rng& rng) const {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "EstimateWithPre handles scalar queries only");
  }
  AQPP_ASSIGN_OR_RETURN(auto q_mask, Mask(query.predicate));
  AQPP_ASSIGN_OR_RETURN(auto pre_mask, Mask(pre_predicate));
  return EstimateWithPreMasked(query, q_mask, pre_mask, pre, rng);
}

Result<ConfidenceInterval> SampleEstimator::EstimateWithPreMasked(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>& pre_mask, const PreValues& pre,
    Rng& rng) const {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "EstimateWithPre handles scalar queries only");
  }
  const size_t n = sample_->size();
  AQPP_CHECK_EQ(q_mask.size(), n);
  AQPP_CHECK_EQ(pre_mask.size(), n);

  switch (query.func) {
    case AggregateFunction::kSum: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure,
                            MeasureRef(query.agg_column));
      return SumDifferenceCI(*measure, q_mask, pre_mask, pre.sum);
    }
    case AggregateFunction::kCount: {
      std::vector<double> ones(n, 1.0);
      return SumDifferenceCI(ones, q_mask, pre_mask, pre.count);
    }
    case AggregateFunction::kAvg: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure_ptr,
                            MeasureRef(query.agg_column));
      const std::vector<double>& measure = *measure_ptr;
      SupportSeries<2> contrib(n);
      for (size_t i = 0; i < n; ++i) {
        contrib.Push(AvgContribution(measure[i], sample_->weights[i],
                                     MaskDifference(q_mask[i], pre_mask[i])));
      }
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      return AvgDifferenceBootstrapCI(contrib, pre, options_.confidence_level,
                                      options_.bootstrap_resamples, rng);
    }
    case AggregateFunction::kVar: {
      AQPP_ASSIGN_OR_RETURN(const std::vector<double>* measure_ptr,
                            MeasureRef(query.agg_column));
      const std::vector<double>& measure = *measure_ptr;
      SupportSeries<3> contrib(n);
      for (size_t i = 0; i < n; ++i) {
        contrib.Push(VarContribution(measure[i], sample_->weights[i],
                                     MaskDifference(q_mask[i], pre_mask[i])));
      }
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      return VarDifferenceBootstrapCI(contrib, pre, options_.confidence_level,
                                      options_.bootstrap_resamples, rng);
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return Status::Unimplemented(
          "AQP++ inherits AQP's aggregate support; MIN/MAX unsupported");
  }
  return Status::Internal("unreachable");
}

}  // namespace aqpp
