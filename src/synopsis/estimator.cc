#include "synopsis/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
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
    : sample_(sample), options_(options) {
  AQPP_CHECK(sample != nullptr);
  AQPP_CHECK_GT(sample->size(), 0u);
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

std::vector<SupportRow> DifferenceSupport(
    const std::vector<uint8_t>& q_mask, const std::vector<uint8_t>* pre_mask) {
  const size_t n = q_mask.size();
  const uint8_t* q = q_mask.data();
  const uint8_t* p = nullptr;
  if (pre_mask != nullptr) {
    AQPP_CHECK_EQ(pre_mask->size(), n);
    p = pre_mask->data();
  }
  std::vector<SupportRow> support;
  auto visit = [&](size_t i) {
    const uint8_t pre = p != nullptr ? p[i] : 0;
    if (q[i] != pre) {
      support.push_back({static_cast<uint32_t>(i), MaskDifference(q[i], pre)});
    }
  };
  // Eight mask bytes per compare: a word where the masks agree holds no
  // support row.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t qw = 0, pw = 0;
    std::memcpy(&qw, q + i, 8);
    if (p != nullptr) std::memcpy(&pw, p + i, 8);
    if (qw == pw) continue;
    for (size_t r = i; r < i + 8; ++r) visit(r);
  }
  for (; i < n; ++i) visit(i);
  return support;
}

namespace {

// Adds the sample's zero rows to the moments of the support rows in `m`:
// `n - m.count()` exact zeros, merged as one block.
void FoldZeroRows(RunningMoments* m, double n) {
  RunningMoments zeros;
  zeros.AddWeighted(0.0, n - m->count());
  m->Merge(zeros);
}

}  // namespace

ConfidenceInterval SparseSumCI(const Sample& sample,
                               const std::vector<SupportRow>& support,
                               const double* measure, double confidence_level,
                               double center) {
  auto y_of = [&](const SupportRow& s) {
    return ((measure != nullptr ? measure[s.row] : 1.0) - center) * s.diff;
  };
  const double lambda = NormalCriticalValue(confidence_level);
  ConfidenceInterval ci;
  ci.level = confidence_level;

  if (sample.stratified()) {
    std::vector<RunningMoments> per_stratum(sample.stratum_info.size());
    for (const SupportRow& s : support) {
      per_stratum[static_cast<size_t>(sample.strata[s.row])].Add(y_of(s));
    }
    double est = 0, var = 0;
    for (size_t h = 0; h < per_stratum.size(); ++h) {
      const StratumInfo& info = sample.stratum_info[h];
      if (info.sample_rows == 0) continue;
      const double n_h = static_cast<double>(info.sample_rows);
      const double num_pop = static_cast<double>(info.population_rows);
      RunningMoments& m = per_stratum[h];
      FoldZeroRows(&m, n_h);
      est += num_pop * m.mean();
      var += num_pop * num_pop * m.variance_sample() / n_h;
    }
    ci.estimate = est;
    ci.half_width = lambda * std::sqrt(std::max(0.0, var));
    return ci;
  }

  RunningMoments z;
  const double dn = static_cast<double>(sample.size());
  for (const SupportRow& s : support) {
    z.Add(dn * sample.weights[s.row] * y_of(s));
  }
  FoldZeroRows(&z, dn);
  ci.estimate = z.mean();
  ci.half_width = lambda * std::sqrt(z.variance_sample() / dn);
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

Result<ConfidenceInterval> DifferenceCI(AggregateFunction func,
                                        const Sample& sample,
                                        const std::vector<SupportRow>& support,
                                        const std::vector<double>* measure,
                                        const PreValues& pre,
                                        const EstimatorOptions& options,
                                        Rng& rng) {
  switch (func) {
    case AggregateFunction::kSum: {
      AQPP_CHECK(measure != nullptr);
      ConfidenceInterval ci = SparseSumCI(sample, support, measure->data(),
                                          options.confidence_level);
      ci.estimate += pre.sum;  // pre(D) is a known constant
      return ci;
    }
    case AggregateFunction::kCount: {
      ConfidenceInterval ci =
          SparseSumCI(sample, support, nullptr, options.confidence_level);
      ci.estimate += pre.count;
      return ci;
    }
    case AggregateFunction::kAvg: {
      AQPP_CHECK(measure != nullptr);
      SupportSeries<2> contrib(sample.size());
      for (const SupportRow& s : support) {
        contrib.Push(AvgContribution((*measure)[s.row], sample.weights[s.row],
                                     s.diff));
      }
      return AvgDifferenceBootstrapCI(contrib, pre, options.confidence_level,
                                      options.bootstrap_resamples, rng);
    }
    case AggregateFunction::kVar: {
      AQPP_CHECK(measure != nullptr);
      SupportSeries<3> contrib(sample.size());
      for (const SupportRow& s : support) {
        contrib.Push(VarContribution((*measure)[s.row], sample.weights[s.row],
                                     s.diff));
      }
      return VarDifferenceBootstrapCI(contrib, pre, options.confidence_level,
                                      options.bootstrap_resamples, rng);
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return Status::Unimplemented(
          "AQP++ inherits AQP's aggregate support; MIN/MAX unsupported");
  }
  return Status::Internal("unreachable");
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
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    return Status::Unimplemented(
        "AQP cannot estimate MIN/MAX from a sample (Section 8)");
  }
  const double* measure = nullptr;
  if (query.func != AggregateFunction::kCount) {
    AQPP_ASSIGN_OR_RETURN(const std::vector<double>* column,
                          MeasureRef(query.agg_column));
    measure = column->data();
  }
  // The query's own rows; every other row contributes an exact zero.
  const std::vector<SupportRow> support = DifferenceSupport(mask, nullptr);
  const std::vector<double>& weights = sample_->weights;

  switch (query.func) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount: {
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      return SparseSumCI(*sample_, support, measure,
                         options_.confidence_level);
    }
    case AggregateFunction::kAvg: {
      // Ratio estimator R = (sum w a cond) / (sum w cond), linearized CI:
      // Var(R) ≈ Var( sum_i w_i cond_i (a_i - R) ) / (sum w cond)^2.
      double num = 0, den = 0;
      for (const SupportRow& s : support) {
        num += weights[s.row] * measure[s.row];
        den += weights[s.row];
      }
      ConfidenceInterval ci;
      ci.level = options_.confidence_level;
      if (den <= 0) return ci;  // no matching rows observed
      double ratio = num / den;
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      ConfidenceInterval resid_ci = SparseSumCI(
          *sample_, support, measure, options_.confidence_level, ratio);
      ci_span.Stop();
      ci.estimate = ratio;
      ci.half_width = resid_ci.half_width / den;
      return ci;
    }
    case AggregateFunction::kVar: {
      // Plug-in weighted population variance, bootstrap CI. The statistic
      // skips unmasked rows, so the masked rows are the resampling support.
      RunningMoments full;
      for (const SupportRow& s : support) {
        full.AddWeighted(measure[s.row], weights[s.row]);
      }
      obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
      SupportResampler resampler(n, support.size());
      std::vector<double> estimates(options_.bootstrap_resamples);
      for (double& e : estimates) {
        RunningMoments m;
        resampler.Draw(rng, [&](size_t j) {
          const uint32_t r = support[j].row;
          m.AddWeighted(measure[r], weights[r]);
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
      break;
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
  const std::vector<double>* measure = nullptr;
  if (query.func != AggregateFunction::kCount) {
    AQPP_ASSIGN_OR_RETURN(measure, MeasureRef(query.agg_column));
  }
  // y_i = A_i * (cond_q - cond_pre): Example 3's A * cond(C = 0) pattern,
  // nonzero only where the masks differ.
  const std::vector<SupportRow> support = DifferenceSupport(q_mask, &pre_mask);
  obs::SpanTimer ci_span(obs::Phase::kCiConstruction, trace_);
  return DifferenceCI(query.func, *sample_, support, measure, pre, options_,
                      rng);
}

}  // namespace aqpp
