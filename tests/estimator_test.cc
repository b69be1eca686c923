#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "core/identification.h"
#include "cube/prefix_cube.h"
#include "dense_bootstrap_oracle.h"
#include "exec/executor.h"
#include "identification_oracle.h"
#include "sampling/samplers.h"
#include "synopsis/estimator.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 50000, .dom1 = 100, .dom2 = 50,
                            .seed = 201});
    executor_ = std::make_unique<ExactExecutor>(table_.get());
    Rng rng(1);
    sample_ = std::move(CreateUniformSample(*table_, 0.05, rng)).value();
  }

  RangeQuery SumQuery(int64_t lo, int64_t hi) {
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 2;
    q.predicate.Add({0, lo, hi});
    return q;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
  Sample sample_;
};

// ---- Direct (AQP) path -----------------------------------------------------

TEST_F(EstimatorTest, DirectSumMatchesExample1Formula) {
  // Verify the direct SUM interval reduces to Example 1 for a uniform sample:
  // est = N * mean(A'), eps = lambda * N * sqrt(Var(A') / n).
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(10, 40);
  Rng rng(2);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok());

  const size_t n = sample_.size();
  const double N = static_cast<double>(sample_.population_size);
  std::vector<double> a_prime(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t c = sample_.rows->column(0).GetInt64(i);
    a_prime[i] = (c >= 10 && c <= 40) ? sample_.rows->column(2).GetDouble(i)
                                      : 0.0;
  }
  double mean = 0;
  for (double v : a_prime) mean += v / static_cast<double>(n);
  double var = 0;
  for (double v : a_prime) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n - 1);
  double expected_est = N * mean;
  double expected_eps = 1.959964 * N * std::sqrt(var / static_cast<double>(n));
  EXPECT_NEAR(ci->estimate, expected_est, std::fabs(expected_est) * 1e-9);
  EXPECT_NEAR(ci->half_width, expected_eps, expected_eps * 1e-4);
}

TEST_F(EstimatorTest, DirectEstimateNearTruth) {
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(20, 60);
  Rng rng(3);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok());
  double truth = *executor_->Execute(q);
  // Within ~4 half-widths with overwhelming probability.
  EXPECT_NEAR(ci->estimate, truth, 4 * ci->half_width + 1e-9);
}

TEST_F(EstimatorTest, DirectCount) {
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(1, 25);
  q.func = AggregateFunction::kCount;
  Rng rng(4);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(ci->estimate, truth, 4 * ci->half_width + 1e-9);
}

TEST_F(EstimatorTest, DirectAvg) {
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(30, 70);
  q.func = AggregateFunction::kAvg;
  Rng rng(5);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(ci->estimate, truth, 5 * ci->half_width + 1e-9);
  EXPECT_GT(ci->half_width, 0.0);
}

TEST_F(EstimatorTest, DirectVar) {
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(1, 100);
  q.func = AggregateFunction::kVar;
  Rng rng(6);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(ci->estimate, truth, truth * 0.2);
  // The bootstrap resamples the masked rows (here every row).
  EXPECT_GT(ci->half_width, 0.0);
  EXPECT_NEAR(ci->estimate, truth, 5 * ci->half_width);
}

TEST_F(EstimatorTest, MinMaxUnsupported) {
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(1, 100);
  q.func = AggregateFunction::kMin;
  Rng rng(7);
  EXPECT_EQ(est.EstimateDirect(q, rng).status().code(),
            StatusCode::kUnimplemented);
}

// ---- Difference (AQP++) path ------------------------------------------------

TEST_F(EstimatorTest, IdenticalPreGivesExactAnswer) {
  // Subsumption: pre == q makes AQP++ return pre(D) exactly with a zero
  // interval (Section 4.2's "AQP++ subsumes AggPre").
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(10, 40);
  double truth = *executor_->Execute(q);
  PreValues pre{truth, 0, 0};
  Rng rng(8);
  auto ci = est.EstimateWithPre(q, q.predicate, pre, rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->estimate, truth, 1e-6);
  EXPECT_NEAR(ci->half_width, 0.0, 1e-6);
}

TEST_F(EstimatorTest, PhiPreEqualsDirect) {
  // Subsumption: pre == phi makes AQP++ identical to AQP.
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(10, 40);
  RangePredicate phi;
  phi.Add({0, 1, 0});  // always false
  Rng rng(9);
  auto with_phi = est.EstimateWithPre(q, phi, PreValues{}, rng);
  auto direct = est.EstimateDirect(q, rng);
  ASSERT_TRUE(with_phi.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(with_phi->estimate, direct->estimate, 1e-9);
  EXPECT_NEAR(with_phi->half_width, direct->half_width, 1e-9);
}

TEST_F(EstimatorTest, CorrelatedPreShrinksInterval) {
  // The Section 4.2 analysis: an overlapping pre (high Cov(q̂, p̂re)) must
  // beat phi; a disjoint pre must not help.
  SampleEstimator est(&sample_);
  RangeQuery q = SumQuery(10, 40);
  Rng rng(10);
  auto direct = est.EstimateDirect(q, rng);
  ASSERT_TRUE(direct.ok());

  // Overlapping pre: [11, 40] (the paper's introduction example shape).
  RangeQuery pre_query = SumQuery(11, 40);
  double pre_truth = *executor_->Execute(pre_query);
  auto with_close_pre =
      est.EstimateWithPre(q, pre_query.predicate, PreValues{pre_truth, 0, 0},
                          rng);
  ASSERT_TRUE(with_close_pre.ok());
  EXPECT_LT(with_close_pre->half_width, direct->half_width * 0.5);
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(with_close_pre->estimate, truth,
              4 * with_close_pre->half_width + 1e-9);

  // Disjoint pre: [60, 90] shares nothing with q; variance adds instead.
  RangeQuery far = SumQuery(60, 90);
  double far_truth = *executor_->Execute(far);
  auto with_far_pre =
      est.EstimateWithPre(q, far.predicate, PreValues{far_truth, 0, 0}, rng);
  ASSERT_TRUE(with_far_pre.ok());
  EXPECT_GT(with_far_pre->half_width, direct->half_width);
}

TEST_F(EstimatorTest, DifferenceEstimatorUnbiased) {
  // Lemma 2: E[pre(D) + q̂ - p̂re] = q(D), checked across many sample draws.
  RangeQuery q = SumQuery(15, 55);
  RangeQuery pre_q = SumQuery(21, 60);
  double truth = *executor_->Execute(q);
  double pre_truth = *executor_->Execute(pre_q);
  Rng rng(11);
  double mean_est = 0;
  constexpr int kDraws = 50;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateUniformSample(*table_, 0.02, rng);
    ASSERT_TRUE(s.ok());
    SampleEstimator est(&*s);
    auto ci = est.EstimateWithPre(q, pre_q.predicate,
                                  PreValues{pre_truth, 0, 0}, rng);
    ASSERT_TRUE(ci.ok());
    mean_est += ci->estimate / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, std::fabs(truth) * 0.01);
}

TEST_F(EstimatorTest, CoverageTracksConfidenceLevel) {
  // Property: 95% CIs contain the truth ~95% of the time.
  RangeQuery q = SumQuery(25, 65);
  double truth = *executor_->Execute(q);
  Rng rng(12);
  int covered = 0;
  constexpr int kDraws = 120;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateUniformSample(*table_, 0.02, rng);
    ASSERT_TRUE(s.ok());
    SampleEstimator est(&*s);
    auto ci = est.EstimateDirect(q, rng);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(truth)) ++covered;
  }
  // Binomial(120, 0.95): expect >= 104 with overwhelming probability.
  EXPECT_GE(covered, 104);
}

TEST_F(EstimatorTest, CountDifferencePath) {
  RangeQuery q = SumQuery(10, 50);
  q.func = AggregateFunction::kCount;
  RangeQuery pre_q = SumQuery(15, 50);
  pre_q.func = AggregateFunction::kCount;
  double pre_count = *executor_->Execute(pre_q);
  SampleEstimator est(&sample_);
  Rng rng(13);
  auto ci = est.EstimateWithPre(q, pre_q.predicate,
                                PreValues{0, pre_count, 0}, rng);
  ASSERT_TRUE(ci.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(ci->estimate, truth, 4 * ci->half_width + 1e-9);
  // And the pre helps vs direct.
  auto direct = est.EstimateDirect(q, rng);
  EXPECT_LT(ci->half_width, direct->half_width);
}

TEST_F(EstimatorTest, AvgAndVarDifferencePaths) {
  RangeQuery q = SumQuery(10, 50);
  RangeQuery pre_q = SumQuery(12, 48);
  double pre_sum = *executor_->Execute(pre_q);
  RangeQuery pre_cnt = pre_q;
  pre_cnt.func = AggregateFunction::kCount;
  double pre_count = *executor_->Execute(pre_cnt);
  double pre_ss = 0;
  for (size_t i = 0; i < table_->num_rows(); ++i) {
    int64_t c = table_->column(0).GetInt64(i);
    if (c >= 12 && c <= 48) {
      double a = table_->column(2).GetDouble(i);
      pre_ss += a * a;
    }
  }
  PreValues pre{pre_sum, pre_count, pre_ss};
  SampleEstimator est(&sample_);
  Rng rng(14);

  RangeQuery avg_q = q;
  avg_q.func = AggregateFunction::kAvg;
  auto avg_ci = est.EstimateWithPre(avg_q, pre_q.predicate, pre, rng);
  ASSERT_TRUE(avg_ci.ok());
  double avg_truth = *executor_->Execute(avg_q);
  EXPECT_NEAR(avg_ci->estimate, avg_truth, std::fabs(avg_truth) * 0.02);

  RangeQuery var_q = q;
  var_q.func = AggregateFunction::kVar;
  auto var_ci = est.EstimateWithPre(var_q, pre_q.predicate, pre, rng);
  ASSERT_TRUE(var_ci.ok());
  double var_truth = *executor_->Execute(var_q);
  EXPECT_NEAR(var_ci->estimate, var_truth, var_truth * 0.25);
}

// ---- Stratified estimation ----------------------------------------------------

TEST(StratifiedEstimatorTest, PerStratumEstimation) {
  // Build a table with wildly different group sizes; stratified estimation
  // must stay accurate for the small group.
  Schema schema({{"g", DataType::kInt64},
                 {"c", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng gen(15);
  for (int i = 0; i < 40; ++i) {
    t->AddRow().Int64(0).Int64(gen.NextInt(1, 100)).Double(500.0 +
                                                           gen.NextGaussian());
  }
  for (int i = 0; i < 20000; ++i) {
    t->AddRow().Int64(1).Int64(gen.NextInt(1, 100)).Double(10.0 +
                                                           gen.NextGaussian());
  }
  Rng rng(16);
  auto s = CreateStratifiedSample(*t, {0}, 0.02, rng);
  ASSERT_TRUE(s.ok());
  SampleEstimator est(&*s);

  // SUM over the tiny group only.
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 0, 0});
  Rng rng2(17);
  auto ci = est.EstimateDirect(q, rng2);
  ASSERT_TRUE(ci.ok());
  ExactExecutor ex(t.get());
  double truth = *ex.Execute(q);
  // The tiny stratum is fully sampled, so the estimate is near-exact.
  EXPECT_NEAR(ci->estimate, truth, std::fabs(truth) * 0.01);
}

// ---- Measure-biased estimation --------------------------------------------------

TEST(MeasureBiasedEstimatorTest, OutlierQueriesAccurate) {
  Schema schema({{"c", DataType::kInt64}, {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng gen(18);
  for (int i = 0; i < 50000; ++i) {
    // 0.5% outliers worth 500x the base value.
    double v = gen.NextBernoulli(0.005) ? 5000.0 : 10.0 * gen.NextDouble();
    t->AddRow().Int64(gen.NextInt(1, 1000)).Double(v);
  }
  ExactExecutor ex(t.get());
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 1;
  q.predicate.Add({0, 100, 400});
  double truth = *ex.Execute(q);

  Rng rng(19);
  auto uniform = CreateUniformSample(*t, 0.01, rng);
  auto biased = CreateMeasureBiasedSample(*t, 1, 0.01, rng);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(biased.ok());
  SampleEstimator est_u(&*uniform), est_b(&*biased);
  Rng rng2(20);
  auto ci_u = est_u.EstimateDirect(q, rng2);
  auto ci_b = est_b.EstimateDirect(q, rng2);
  ASSERT_TRUE(ci_u.ok());
  ASSERT_TRUE(ci_b.ok());
  // Measure-biased sampling should produce a much tighter interval on this
  // outlier-dominated workload (the Section 7.4 motivation).
  EXPECT_LT(ci_b->half_width, ci_u->half_width * 0.8);
  EXPECT_NEAR(ci_b->estimate, truth, 5 * ci_b->half_width + 1e-9);
}

// ---- Support-sparse bootstrap vs the dense oracle ---------------------------

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Random dense AVG/VAR contribution series over n rows, about `support_frac`
// of them on the support. With `mixed_signs`, off-support rows carry a mix
// of +0.0 and -0.0 and some support rows carry a -0.0 value in one series
// (A = 0 with diff -1); without, every support row has A > 0 and diff +1.
struct DenseSeries {
  std::vector<double> s2, s, c;
};

DenseSeries RandomSeries(size_t n, double support_frac, Rng& rng,
                         bool mixed_signs = true) {
  DenseSeries d;
  d.s2.resize(n);
  d.s.resize(n);
  d.c.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double w = 0.5 + rng.NextDouble();
    double a = 100.0 + 30.0 * rng.NextGaussian();
    if (mixed_signs && rng.NextBernoulli(0.05)) a = 0.0;
    if (mixed_signs && rng.NextBernoulli(0.5)) a = -a;
    double diff = 0.0;
    if (rng.NextBernoulli(support_frac)) {
      diff = !mixed_signs || rng.NextBernoulli(0.5) ? 1.0 : -1.0;
    }
    const auto v = VarContribution(a, w, diff);
    d.s2[i] = v[0];
    d.s[i] = v[1];
    d.c[i] = v[2];
  }
  return d;
}

SupportSeries<2> AvgSupport(const DenseSeries& d) {
  SupportSeries<2> out(d.s.size());
  for (size_t i = 0; i < d.s.size(); ++i) out.Push({d.s[i], d.c[i]});
  return out;
}

SupportSeries<3> VarSupport(const DenseSeries& d) {
  SupportSeries<3> out(d.s.size());
  for (size_t i = 0; i < d.s.size(); ++i) out.Push({d.s2[i], d.s[i], d.c[i]});
  return out;
}

TEST(SupportBootstrapTest, EstimateBitIdenticalToDenseOracle) {
  Rng gen = testutil::MakeTestRng(300);
  const double kFracs[] = {0.0, 0.005, 0.05, 0.5, 1.0};
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + gen.NextBounded(3000);
    const double frac = kFracs[trial % 5];
    DenseSeries d = RandomSeries(n, frac, gen);
    PreValues pre{gen.NextGaussian() * 1e4, 50.0 + 100.0 * gen.NextDouble(),
                  1e6 * gen.NextDouble()};
    const SupportSeries<2> avg = AvgSupport(d);
    const SupportSeries<3> var = VarSupport(d);
    if (frac == 0.0) {
      ASSERT_EQ(avg.k(), 0u);
    }
    if (frac == 1.0) {
      ASSERT_EQ(avg.k(), n);
    }

    Rng r1(trial), r2(trial);
    auto sparse = AvgDifferenceBootstrapCI(avg, pre, 0.95, 60, r1);
    auto dense =
        oracle::DenseAvgDifferenceBootstrapCI(d.s, d.c, pre, 0.95, 60, r2);
    EXPECT_EQ(Bits(sparse.estimate), Bits(dense.estimate))
        << "n=" << n << " k=" << avg.k();
    auto sparse_v = VarDifferenceBootstrapCI(var, pre, 0.95, 60, r1);
    auto dense_v = oracle::DenseVarDifferenceBootstrapCI(d.s2, d.s, d.c, pre,
                                                         0.95, 60, r2);
    EXPECT_EQ(Bits(sparse_v.estimate), Bits(dense_v.estimate))
        << "n=" << n << " k=" << var.k();
    if (avg.k() == 0) {
      // No row can move a resample: a zero-width interval on both paths.
      EXPECT_EQ(sparse.half_width, 0.0);
      EXPECT_EQ(dense.half_width, 0.0);
      EXPECT_EQ(sparse_v.half_width, 0.0);
    } else {
      EXPECT_TRUE(std::isfinite(sparse.half_width));
      EXPECT_GE(sparse.half_width, 0.0);
    }
  }
}

TEST(SupportBootstrapTest, NegativeZeroRowsStayOffTheSupport) {
  SupportSeries<2> series(4);
  series.Push({-0.0, 0.0});
  series.Push({-0.0, 2.0});  // -0.0 next to a nonzero: a support row
  series.Push({0.0, -0.0});
  series.Push({std::nan(""), 0.0});  // NaN counts as support
  ASSERT_EQ(series.k(), 2u);
  EXPECT_EQ(Bits(series[0][0]), Bits(-0.0));
  const auto sums = series.Sums();
  EXPECT_EQ(Bits(sums[1]), Bits(2.0));
  EXPECT_TRUE(std::isnan(sums[0]));
}

// Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

TEST(SupportBootstrapTest, ResampleStatisticsMatchDenseInDistribution) {
  // One resample statistic per seed from each path, 2000 seeds apiece; the
  // KS statistic must stay below the alpha = 0.001 critical value. A
  // negative control that draws exactly k support picks per resample (the
  // naive "resample the support" shortcut) must be rejected, which shows
  // the test has the power to see a wrong hit count.
  constexpr size_t kSeeds = 2000;
  const double critical = 1.95 * std::sqrt(2.0 / kSeeds);
  Rng gen = testutil::MakeTestRng(310);
  const size_t n = 4000;
  DenseSeries d = RandomSeries(n, 0.05, gen, /*mixed_signs=*/false);
  const SupportSeries<2> avg = AvgSupport(d);
  const SupportSeries<3> var = VarSupport(d);
  // pre's mean (50) sits away from the support rows' (100), so the ratio
  // moves with the number of support hits.
  const PreValues pre{1e5, 2000.0, 3e7};
  auto ratio_of = [&](const std::array<double, 2>& sums) {
    return (pre.sum + sums[0]) / (pre.count + sums[1]);
  };
  auto var_of = [&](const std::array<double, 3>& sums) {
    const double cnt = pre.count + sums[2];
    const double mean = (pre.sum + sums[1]) / cnt;
    return (pre.sum_sq + sums[0]) / cnt - mean * mean;
  };
  const std::array<const std::vector<double>*, 2> dense2 = {&d.s, &d.c};
  const std::array<const std::vector<double>*, 3> dense3 = {&d.s2, &d.s,
                                                            &d.c};
  std::vector<double> sparse_avg, dense_avg, naive_avg, sparse_var, dense_var;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng a(seed), b(seed + 1'000'003), c(seed + 2'000'003);
    sparse_avg.push_back(avg.Resample(ratio_of, 1, a)[0]);
    sparse_var.push_back(var.Resample(var_of, 1, a)[0]);
    dense_avg.push_back(oracle::DenseResample(dense2, ratio_of, 1, b)[0]);
    dense_var.push_back(oracle::DenseResample(dense3, var_of, 1, b)[0]);
    std::array<double, 2> sums{};
    for (size_t p = 0; p < avg.k(); ++p) {
      const auto& row = avg[static_cast<size_t>(c.NextBounded(avg.k()))];
      sums[0] += row[0];
      sums[1] += row[1];
    }
    naive_avg.push_back(ratio_of(sums));
  }
  EXPECT_LT(KsStatistic(sparse_avg, dense_avg), critical);
  EXPECT_LT(KsStatistic(sparse_var, dense_var), critical);
  EXPECT_GT(KsStatistic(naive_avg, dense_avg), critical);
}

TEST_F(EstimatorTest, DifferenceEstimateBitIdenticalToDenseOracle) {
  // End to end through the estimator: real masks, real weights.
  RangeQuery q = SumQuery(10, 50);
  RangeQuery pre_q = SumQuery(12, 48);
  SampleEstimator est(&sample_);
  auto q_mask = est.Mask(q.predicate);
  auto p_mask = est.Mask(pre_q.predicate);
  ASSERT_TRUE(q_mask.ok() && p_mask.ok());
  auto measure = est.MeasureValues(2);
  ASSERT_TRUE(measure.ok());
  const size_t n = sample_.size();
  DenseSeries d;
  for (size_t i = 0; i < n; ++i) {
    const auto v = VarContribution((*measure)[i], sample_.weights[i],
                                   MaskDifference((*q_mask)[i], (*p_mask)[i]));
    d.s2.push_back(v[0]);
    d.s.push_back(v[1]);
    d.c.push_back(v[2]);
  }
  const PreValues pre{1e6, 1e4, 1e8};
  Rng unused(0);
  for (AggregateFunction func :
       {AggregateFunction::kAvg, AggregateFunction::kVar}) {
    RangeQuery fq = q;
    fq.func = func;
    Rng rng(15);
    auto ci = est.EstimateWithPreMasked(fq, *q_mask, *p_mask, pre, rng);
    ASSERT_TRUE(ci.ok());
    const double oracle_estimate =
        func == AggregateFunction::kAvg
            ? oracle::DenseAvgDifferenceBootstrapCI(d.s, d.c, pre, 0.95, 2,
                                                    unused)
                  .estimate
            : oracle::DenseVarDifferenceBootstrapCI(d.s2, d.s, d.c, pre, 0.95,
                                                    2, unused)
                  .estimate;
    EXPECT_EQ(Bits(ci->estimate), Bits(oracle_estimate));
    EXPECT_GT(ci->half_width, 0.0);
  }
}

// ---- Support-sparse SUM interval vs the dense oracle -----------------------

enum class BatteryKind { kUniform, kWeighted, kStratified };

// An n-row sample over one double column. Uniform: w = N / n. Weighted:
// Bernoulli inclusion with per-row probability p_i, w_i = 1 / p_i.
// Stratified: 2-6 strata of random size, w_h = N_h / n_h, n_h the stratum's
// row count.
Sample BatterySample(BatteryKind kind, size_t n, Rng& rng) {
  Sample sample;
  sample.rows = std::make_shared<Table>(
      Schema(std::vector<ColumnSchema>{{"a", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) sample.rows->AddRow().Double(0.0);
  sample.population_size = 40 * n;
  switch (kind) {
    case BatteryKind::kUniform:
      sample.weights.assign(n, 40.0);
      break;
    case BatteryKind::kWeighted:
      sample.method = SamplingMethod::kBernoulli;
      for (size_t i = 0; i < n; ++i) {
        sample.weights.push_back(1.0 / (0.005 + 0.3 * rng.NextDouble()));
      }
      break;
    case BatteryKind::kStratified: {
      sample.method = SamplingMethod::kStratified;
      const size_t strata = 2 + rng.NextBounded(5);
      sample.stratum_info.resize(strata);
      for (size_t i = 0; i < n; ++i) {
        const size_t h = rng.NextBounded(strata);
        sample.strata.push_back(static_cast<int32_t>(h));
        ++sample.stratum_info[h].sample_rows;
      }
      for (StratumInfo& info : sample.stratum_info) {
        info.population_rows = info.sample_rows * (5 + rng.NextBounded(80));
      }
      for (size_t i = 0; i < n; ++i) {
        const StratumInfo& info =
            sample.stratum_info[static_cast<size_t>(sample.strata[i])];
        sample.weights.push_back(static_cast<double>(info.population_rows) /
                                 static_cast<double>(info.sample_rows));
      }
      break;
    }
  }
  return sample;
}

// Distance in units in the last place between two same-signed doubles.
uint64_t UlpShift(double a, double b) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return 0;
  const int64_t ia = std::bit_cast<int64_t>(a);
  const int64_t ib = std::bit_cast<int64_t>(b);
  return ia > ib ? static_cast<uint64_t>(ia - ib)
                 : static_cast<uint64_t>(ib - ia);
}

TEST(SparseSumCITest, MatchesDenseOracleOnRandomizedSeries) {
  Rng gen = testutil::MakeTestRng(340);
  const double kFracs[] = {0.0, 0.005, 0.05, 0.5, 1.0};
  uint64_t max_est_ulps = 0, max_half_ulps = 0;
  for (BatteryKind kind : {BatteryKind::kUniform, BatteryKind::kWeighted,
                           BatteryKind::kStratified}) {
    for (int trial = 0; trial < 30; ++trial) {
      const size_t n = 1 + gen.NextBounded(3000);
      const double frac = kFracs[trial % 5];
      const Sample sample = BatterySample(kind, n, gen);
      // Measures of mixed sign and scale, with some -0.0 rows.
      std::vector<double> measure(n);
      for (double& a : measure) {
        a = 100.0 + 30.0 * gen.NextGaussian();
        if (gen.NextBernoulli(0.05)) a = -0.0;
        if (gen.NextBernoulli(0.3)) a = -a;
      }
      // Masks: about `frac` of the rows differ; frac = 1 puts every row on
      // the support. In a stratified sample stratum 0 never differs.
      std::vector<uint8_t> q(n), pre(n);
      for (size_t i = 0; i < n; ++i) {
        const bool quiet = kind == BatteryKind::kStratified &&
                           sample.strata[i] == 0;
        q[i] = gen.NextBernoulli(0.5);
        pre[i] = q[i];
        if (!quiet && (frac == 1.0 || gen.NextBernoulli(frac))) {
          pre[i] = 1 - q[i];
        }
      }
      const std::vector<SupportRow> support = DifferenceSupport(q, &pre);
      if (frac == 1.0 && kind != BatteryKind::kStratified) {
        ASSERT_EQ(support.size(), n);
      }

      // The difference series (center 0) and a direct-path residual series
      // over the query's rows (center = the AVG ratio's role).
      const double center = 97.5 + gen.NextDouble();
      const std::vector<SupportRow> direct = DifferenceSupport(q, nullptr);
      std::vector<double> y(n, 0.0), resid(n, 0.0);
      for (const SupportRow& s : support) y[s.row] = measure[s.row] * s.diff;
      for (const SupportRow& s : direct) {
        resid[s.row] = measure[s.row] - center;
      }
      const struct {
        const std::vector<SupportRow>* rows;
        const std::vector<double>* dense;
        double center;
      } kCases[] = {{&support, &y, 0.0}, {&direct, &resid, center}};
      for (const auto& c : kCases) {
        const ConfidenceInterval dense =
            oracle::DenseSumCI(sample, *c.dense, 0.95);
        const ConfidenceInterval sparse =
            SparseSumCI(sample, *c.rows, measure.data(), 0.95, c.center);
        if (c.rows->empty()) {
          // k = 0: nothing to estimate, exactly on both paths.
          EXPECT_EQ(sparse.estimate, 0.0);
          EXPECT_EQ(sparse.half_width, 0.0);
          EXPECT_EQ(dense.estimate, 0.0);
          EXPECT_EQ(dense.half_width, 0.0);
          continue;
        }
        // The estimate may cancel toward 0; its rounding is measured
        // against the interval's scale.
        const double est_scale = std::max(
            {std::abs(dense.estimate), dense.half_width, 1e-300});
        EXPECT_LE(std::abs(sparse.estimate - dense.estimate),
                  1e-9 * est_scale)
            << "n=" << n << " k=" << c.rows->size();
        EXPECT_LE(std::abs(sparse.half_width - dense.half_width),
                  1e-9 * std::max(dense.half_width, 1e-300))
            << "n=" << n << " k=" << c.rows->size();
        max_est_ulps =
            std::max(max_est_ulps, UlpShift(sparse.estimate, dense.estimate));
        max_half_ulps = std::max(
            max_half_ulps, UlpShift(sparse.half_width, dense.half_width));
      }
    }
  }
  std::printf("SparseSumCI vs DenseSumCI: largest shift %llu ulp (estimate), "
              "%llu ulp (half-width)\n",
              static_cast<unsigned long long>(max_est_ulps),
              static_cast<unsigned long long>(max_half_ulps));
}

TEST(SparseSumCITest, NanMeasureOnTheSupportGivesNanOnBothPaths) {
  for (BatteryKind kind : {BatteryKind::kUniform, BatteryKind::kWeighted,
                           BatteryKind::kStratified}) {
    Rng gen(350 + static_cast<uint64_t>(kind));
    const size_t n = 500;
    const Sample sample = BatterySample(kind, n, gen);
    std::vector<double> measure(n);
    for (double& a : measure) a = 50.0 + gen.NextGaussian();
    std::vector<uint8_t> q(n, 0), pre(n, 0);
    for (size_t i = 0; i < n; i += 7) q[i] = 1;
    measure[14] = std::nan("");  // row 14 is on the support
    const std::vector<SupportRow> support = DifferenceSupport(q, &pre);
    std::vector<double> y(n, 0.0);
    for (const SupportRow& s : support) y[s.row] = measure[s.row] * s.diff;
    const ConfidenceInterval dense = oracle::DenseSumCI(sample, y, 0.95);
    const ConfidenceInterval sparse =
        SparseSumCI(sample, support, measure.data(), 0.95);
    EXPECT_TRUE(std::isnan(dense.estimate));
    EXPECT_TRUE(std::isnan(sparse.estimate));
    EXPECT_EQ(std::isnan(dense.half_width), std::isnan(sparse.half_width));
    if (!std::isnan(dense.half_width)) {
      EXPECT_EQ(Bits(sparse.half_width), Bits(dense.half_width));
    }
  }
}

TEST(SparseSumCITest, DifferenceSupportListsDifferingRowsInOrder) {
  // Lengths around the 8-byte word, both mask kinds.
  Rng gen(360);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 64u, 1001u}) {
    std::vector<uint8_t> q(n), pre(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = gen.NextBernoulli(0.3);
      pre[i] = gen.NextBernoulli(0.3);
    }
    const std::vector<uint8_t>* pre_masks[] = {&pre, nullptr};
    for (const std::vector<uint8_t>* p : pre_masks) {
      std::vector<SupportRow> expected;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t pi = p != nullptr ? (*p)[i] : 0;
        if (q[i] != pi) {
          expected.push_back({static_cast<uint32_t>(i),
                              MaskDifference(q[i], pi)});
        }
      }
      const std::vector<SupportRow> got = DifferenceSupport(q, p);
      ASSERT_EQ(got.size(), expected.size()) << "n=" << n;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].row, expected[j].row);
        EXPECT_EQ(got[j].diff, expected[j].diff);
      }
    }
  }
}

TEST(SupportBootstrapScorerTest, BatchedMatchesLegacyBitForBitWithGroupedSet) {
  // Enough candidates that ScoreBatch groups the active set by cell (12 or
  // more jobs), so the batched scorer walks rows out of row order and must
  // sort its support before folding moments or resampling.
  auto table = testutil::MakeSynthetic({.rows = 40000, .seed = 320});
  std::vector<DimensionPartition> dims = {
      DimensionPartition{0, {20, 40, 60, 80, 100}},
      DimensionPartition{1, {10, 20, 30, 40, 50}}};
  auto cube = PrefixCube::Build(
      *table, PartitionScheme(std::move(dims)),
      {MeasureSpec::Sum(2), MeasureSpec::Count(), MeasureSpec::SumSquares(2)});
  ASSERT_TRUE(cube.ok());
  Rng srng(321);
  auto sample = std::move(CreateUniformSample(*table, 0.2, srng)).value();
  const IdentificationOptions opts;
  Rng c1(322);
  AggregateIdentifier batched(cube->get(), &sample, opts, c1);

  // Each bound strictly inside a cut interval, with a full interval between
  // the two: both snap directions at both ends stay non-empty, giving
  // 4^2 + 1 candidates.
  Rng qrng(323);
  for (AggregateFunction func :
       {AggregateFunction::kSum, AggregateFunction::kCount,
        AggregateFunction::kAvg, AggregateFunction::kVar}) {
    for (int trial = 0; trial < 4; ++trial) {
      RangeQuery q;
      q.func = func;
      q.agg_column = 2;
      q.predicate.Add({0, qrng.NextInt(23, 37), qrng.NextInt(63, 77)});
      q.predicate.Add({1, qrng.NextInt(12, 18), qrng.NextInt(32, 38)});
      Rng r1(330 + trial), r2(330 + trial);
      auto b = batched.ScoreAll(q, r1);
      auto l = oracle::ScoreAll(batched, opts, q, r2);
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_TRUE(l.ok()) << l.status();
      ASSERT_GE(b->size(), 12u);
      ASSERT_EQ(b->size(), l->size());
      for (size_t i = 0; i < b->size(); ++i) {
        EXPECT_EQ((*b)[i].pre.lo, (*l)[i].pre.lo);
        EXPECT_EQ((*b)[i].pre.hi, (*l)[i].pre.hi);
        EXPECT_EQ(Bits((*b)[i].scored_error), Bits((*l)[i].scored_error))
            << "candidate " << i << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace aqpp
