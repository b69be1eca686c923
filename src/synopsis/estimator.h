// Sample-based estimators: the AQP path (Equation 3, Example 1) and the
// AQP++ difference path (Equation 4, Example 3).
//
// Both are built on one primitive: given per-row values y_i on the sample,
// sum_i w_i * y_i estimates the population sum of y, with a CLT confidence
// interval from the per-row expansion contributions. For AQP the row value
// is A_i * cond_q(i); for AQP++ it is A_i * (cond_q(i) - cond_pre(i)) and
// the precomputed pre(D) is added back as a constant — which is exactly why
// a highly correlated pre shrinks the interval (Section 4.2's
// back-of-the-envelope analysis).
//
// y_i is zero on every row outside a support: the rows where the two masks
// differ (AQP: the query's own rows). Every interval here walks only that
// support and folds the zero rows in closed form.

#ifndef AQPP_SYNOPSIS_ESTIMATOR_H_
#define AQPP_SYNOPSIS_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "expr/query.h"
#include "obs/trace.h"
#include "sampling/sample.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"

namespace aqpp {

struct EstimatorOptions {
  double confidence_level = 0.95;
  // Resamples used for bootstrap CIs (AVG/VAR paths).
  size_t bootstrap_resamples = 120;
};

// Precomputed aggregate values of one `pre` box, read from the cube planes.
struct PreValues {
  double sum = 0.0;       // SUM(A) over the box
  double count = 0.0;     // COUNT(*) over the box
  double sum_sq = 0.0;    // SUM(A^2) over the box
};

// Materialized double views of a table's measure columns, built once and
// shared by every estimate over the same sample (the engine-level measure
// cache). Thread-safe.
class MeasureCache {
 public:
  // `rows` must outlive the cache.
  explicit MeasureCache(const Table* rows) : rows_(rows) {}

  // The double-materialized values of `column`; built on first use.
  // The returned pointer stays valid for the cache's lifetime.
  Result<const std::vector<double>*> Get(size_t column);

 private:
  const Table* rows_;
  std::mutex mu_;
  std::unordered_map<size_t, std::unique_ptr<std::vector<double>>> columns_;
};

// ---- The difference estimate -----------------------------------------------
//
// SampleEstimator::EstimateWithPreMasked and the batched identification
// scorer (core/scoring.h) both hand their support to DifferenceCI, so an
// estimate and a candidate's score are one computation: for the same
// support rows in the same order and the same RNG state they are
// bit-identical.

// diff_i = cond_q(i) - cond_pre(i): exactly -1.0, 0.0 or +1.0.
inline double MaskDifference(uint8_t q, uint8_t pre) {
  return static_cast<double>(q) - static_cast<double>(pre);
}

// A sample row where the query mask and the pre mask differ, with its
// diff = cond_q - cond_pre (exactly +1.0 or -1.0).
struct SupportRow {
  uint32_t row;
  double diff;
};

// The rows where `q_mask` and `pre_mask` differ, in ascending row order. A
// null `pre_mask` counts as all zeros, so the support is the query's own
// rows with diff +1 (the direct path).
std::vector<SupportRow> DifferenceSupport(const std::vector<uint8_t>& q_mask,
                                          const std::vector<uint8_t>* pre_mask);

// CLT interval for the population sum of y_i = (A_i - center) * diff_i,
// where y_i is zero off `support` (ascending rows) and A_i is
// measure[row] (1.0 when `measure` is null: COUNT).
//   Non-stratified: z_i = n w_i y_i; estimate mean(z), Var = s^2(z) / n —
//     for a uniform sample Example 1's N mean(A'), lambda N sqrt(Var(A')/n).
//   Stratified: estimate sum_h N_h mean_h(y), Var = sum_h N_h^2 s_h^2 / n_h,
//     with n_h = StratumInfo::sample_rows (the stratum's row count).
// Only the support rows are walked; the zero rows join the moments as one
// block in closed form (RunningMoments::Merge). An empty support gives an
// estimate and half-width of exactly 0.
ConfidenceInterval SparseSumCI(const Sample& sample,
                               const std::vector<SupportRow>& support,
                               const double* measure, double confidence_level,
                               double center = 0.0);

// One row's AVG contributions {w A diff, w diff}.
inline SupportSeries<2>::Row AvgContribution(double a, double w,
                                             double diff) {
  return {w * a * diff, w * diff};
}

// One row's VAR contributions {w A^2 diff, w A diff, w diff}.
inline SupportSeries<3>::Row VarContribution(double a, double w,
                                             double diff) {
  return {w * a * a * diff, w * a * diff, w * diff};
}

// AVG = (pre.sum + ŝ) / (pre.count + ĉ) with numerator/denominator estimated
// by difference; percentile-bootstrap CI over the paired per-row
// contributions {s, c} = AvgContribution (the paper's Section 4.2.2
// procedure), resampled over their support.
ConfidenceInterval AvgDifferenceBootstrapCI(const SupportSeries<2>& contrib,
                                            const PreValues& pre,
                                            double confidence_level,
                                            size_t resamples, Rng& rng);

// VAR = E[A^2] - E[A]^2 reconstructed from three difference-estimated sums
// (SUM(A^2), SUM(A), COUNT) = VarContribution; percentile-bootstrap CI.
ConfidenceInterval VarDifferenceBootstrapCI(const SupportSeries<3>& contrib,
                                            const PreValues& pre,
                                            double confidence_level,
                                            size_t resamples, Rng& rng);

// The AQP++ estimate of `func` as pre(D) + (q̂(S) - p̂re(S)) from the
// difference support: SUM/COUNT through SparseSumCI plus pre.sum /
// pre.count; AVG/VAR push each support row's contributions into a
// SupportSeries for the bootstrap above. `measure` may be null only for
// COUNT. MIN/MAX: Unimplemented.
Result<ConfidenceInterval> DifferenceCI(AggregateFunction func,
                                        const Sample& sample,
                                        const std::vector<SupportRow>& support,
                                        const std::vector<double>* measure,
                                        const PreValues& pre,
                                        const EstimatorOptions& options,
                                        Rng& rng);

class SampleEstimator {
 public:
  // `sample` must outlive the estimator.
  SampleEstimator(const Sample* sample, EstimatorOptions options = {});

  const Sample& sample() const { return *sample_; }
  const EstimatorOptions& options() const { return options_; }

  // Borrows an external measure cache (e.g. the engine's); when set,
  // repeated estimates over the same sample stop re-materializing the
  // measure column. The cache must be built over this estimator's sample
  // rows and must outlive the estimator.
  void set_measure_cache(MeasureCache* cache) { measure_cache_ = cache; }

  // Attaches a per-query trace; the final CI-producing computation of each
  // estimate records one kCiConstruction span (the matching global phase
  // histogram is observed regardless).
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

  // ---- AQP (direct) path ---------------------------------------------------

  // Estimates `query` (scalar, no group-by) directly from the sample.
  // SUM/COUNT: SparseSumCI over the query's rows. AVG: linearized ratio
  // estimator, its residual CI through SparseSumCI.
  // VAR: plug-in estimate with bootstrap CI. MIN/MAX: Unimplemented (the
  // paper notes AQP cannot handle them; see Section 8).
  Result<ConfidenceInterval> EstimateDirect(const RangeQuery& query,
                                            Rng& rng) const;

  // Same, with the query's row mask already computed (mask reuse across the
  // identification → estimation pipeline).
  Result<ConfidenceInterval> EstimateDirectMasked(
      const RangeQuery& query, const std::vector<uint8_t>& mask,
      Rng& rng) const;

  // ---- AQP++ (difference) path ---------------------------------------------

  // Estimates `query` as pre(D) + (q̂(S) - p̂re(S)). `pre_predicate` is the
  // sample-side predicate of the precomputed box; `pre` carries its exact
  // precomputed values. Supports SUM/COUNT/AVG/VAR.
  Result<ConfidenceInterval> EstimateWithPre(const RangeQuery& query,
                                             const RangePredicate& pre_predicate,
                                             const PreValues& pre,
                                             Rng& rng) const;

  // Same, with both row masks already computed (no predicate
  // re-evaluation): DifferenceCI over the rows where the masks differ.
  Result<ConfidenceInterval> EstimateWithPreMasked(
      const RangeQuery& query, const std::vector<uint8_t>& q_mask,
      const std::vector<uint8_t>& pre_mask, const PreValues& pre,
      Rng& rng) const;

  // ---- Row-mask helpers (exposed for identification & tests) --------------

  // 0/1 mask of sample rows matching `predicate`.
  Result<std::vector<uint8_t>> Mask(const RangePredicate& predicate) const;

  // Aggregation-attribute values of all sample rows.
  Result<std::vector<double>> MeasureValues(size_t column) const;

 private:
  // Borrowed (cached) or lazily materialized measure column.
  Result<const std::vector<double>*> MeasureRef(size_t column) const;

  const Sample* sample_;
  EstimatorOptions options_;
  MeasureCache* measure_cache_ = nullptr;
  obs::QueryTrace* trace_ = nullptr;
  // Fallback materialization when no external cache is attached.
  mutable std::unordered_map<size_t, std::unique_ptr<std::vector<double>>>
      local_measures_;
};

}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_ESTIMATOR_H_
