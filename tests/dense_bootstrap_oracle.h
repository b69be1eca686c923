// Dense oracles: the sample intervals as they ran before the support-sparse
// paths. DenseSumCI walks every sample row of the y series, zeros included,
// through Welford moments (the sparse SparseSumCI of synopsis/estimator.h
// must agree with it up to rounding). The dense bootstrap draws n row
// indices with replacement per resample and gathers all n of them (the
// support-sparse resampler of stats/bootstrap.h must give bit-identical
// point estimates and equal resampling distributions); bench_kernels times
// it as the baseline. Not linked into any production target.

#ifndef AQPP_TESTS_DENSE_BOOTSTRAP_ORACLE_H_
#define AQPP_TESTS_DENSE_BOOTSTRAP_ORACLE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "sampling/sample.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace oracle {

// CLT interval for the population sum of y, y[i] evaluated on sample row i,
// every row walked. Stratified: est = sum_h N_h * mean_h(y),
// Var = sum_h N_h^2 * s_h^2 / n_h. Otherwise z_i = n * w_i * y_i,
// estimate = mean(z), Var(estimate) = s^2(z) / n.
inline ConfidenceInterval DenseSumCI(const Sample& sample,
                                     const std::vector<double>& y,
                                     double confidence_level) {
  const size_t n = sample.size();
  const double lambda = NormalCriticalValue(confidence_level);
  ConfidenceInterval ci;
  ci.level = confidence_level;
  if (sample.stratified()) {
    std::vector<RunningMoments> per_stratum(sample.stratum_info.size());
    for (size_t i = 0; i < n; ++i) {
      per_stratum[static_cast<size_t>(sample.strata[i])].Add(y[i]);
    }
    double est = 0, var = 0;
    for (size_t h = 0; h < per_stratum.size(); ++h) {
      const RunningMoments& m = per_stratum[h];
      const double num_pop =
          static_cast<double>(sample.stratum_info[h].population_rows);
      if (m.count() == 0) continue;
      est += num_pop * m.mean();
      var += num_pop * num_pop * m.variance_sample() / m.count();
    }
    ci.estimate = est;
    ci.half_width = HalfWidthFromVariance(lambda, var);
    return ci;
  }
  RunningMoments z;
  const double dn = static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) z.Add(dn * sample.weights[i] * y[i]);
  ci.estimate = z.mean();
  ci.half_width = lambda * std::sqrt(z.variance_sample() / dn);
  return ci;
}

// Sum of v[idx[j]] for j in [0, k), accumulated in index order.
inline double GatherSum(const double* v, const uint32_t* idx, size_t k) {
  double sum = 0.0;
  for (size_t j = 0; j < k; ++j) sum += v[idx[j]];
  return sum;
}

// `resamples` replicates of stat(resample sums) over W dense series of
// length n: n uniform draws per resample, every drawn row gathered.
template <size_t W, typename Stat>
std::vector<double> DenseResample(
    const std::array<const std::vector<double>*, W>& series, const Stat& stat,
    size_t resamples, Rng& rng) {
  const size_t n = series[0]->size();
  std::vector<double> estimates;
  estimates.reserve(resamples);
  std::vector<uint32_t> idx(n);
  for (size_t r = 0; r < resamples; ++r) {
    for (size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<uint32_t>(rng.NextBounded(n));
    }
    std::array<double, W> sums;
    for (size_t s = 0; s < W; ++s) {
      sums[s] = GatherSum(series[s]->data(), idx.data(), n);
    }
    estimates.push_back(stat(sums));
  }
  return estimates;
}

// Full-sample sums of each dense series, in row order.
template <size_t W>
std::array<double, W> DenseSums(
    const std::array<const std::vector<double>*, W>& series) {
  const size_t n = series[0]->size();
  std::vector<uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::array<double, W> sums;
  for (size_t s = 0; s < W; ++s) {
    sums[s] = GatherSum(series[s]->data(), idx.data(), n);
  }
  return sums;
}

// The dense AvgDifferenceBootstrapCI over s_contrib[i] = w A diff,
// c_contrib[i] = w diff.
inline ConfidenceInterval DenseAvgDifferenceBootstrapCI(
    const std::vector<double>& s_contrib, const std::vector<double>& c_contrib,
    const PreValues& pre, double confidence_level, size_t resamples,
    Rng& rng) {
  auto ratio_of = [&](const std::array<double, 2>& sums) {
    double den = pre.count + sums[1];
    return den != 0 ? (pre.sum + sums[0]) / den : 0.0;
  };
  const std::array<const std::vector<double>*, 2> series = {&s_contrib,
                                                            &c_contrib};
  ConfidenceInterval ci;
  ci.level = confidence_level;
  ci.half_width = PercentileHalfWidth(
      DenseResample(series, ratio_of, resamples, rng), confidence_level);
  ci.estimate = ratio_of(DenseSums(series));
  return ci;
}

// The dense VarDifferenceBootstrapCI over {w A^2 diff, w A diff, w diff}.
inline ConfidenceInterval DenseVarDifferenceBootstrapCI(
    const std::vector<double>& s2_contrib, const std::vector<double>& s_contrib,
    const std::vector<double>& c_contrib, const PreValues& pre,
    double confidence_level, size_t resamples, Rng& rng) {
  auto var_of = [&](const std::array<double, 3>& sums) {
    double cnt = pre.count + sums[2];
    if (cnt <= 0) return 0.0;
    double mean = (pre.sum + sums[1]) / cnt;
    double ex2 = (pre.sum_sq + sums[0]) / cnt;
    return std::max(0.0, ex2 - mean * mean);
  };
  const std::array<const std::vector<double>*, 3> series = {
      &s2_contrib, &s_contrib, &c_contrib};
  ConfidenceInterval ci;
  ci.level = confidence_level;
  ci.half_width = PercentileHalfWidth(
      DenseResample(series, var_of, resamples, rng), confidence_level);
  ci.estimate = var_of(DenseSums(series));
  return ci;
}

}  // namespace oracle
}  // namespace aqpp

#endif  // AQPP_TESTS_DENSE_BOOTSTRAP_ORACLE_H_
