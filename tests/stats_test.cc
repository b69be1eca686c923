#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/histogram.h"
#include "test_util.h"

namespace aqpp {
namespace {

// ---- RunningMoments ----------------------------------------------------------

TEST(RunningMomentsTest, MatchesHandComputation) {
  RunningMoments m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(x);
  EXPECT_DOUBLE_EQ(m.count(), 8.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance_population(), 4.0, 1e-12);
  EXPECT_NEAR(m.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(m.stddev_population(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(RunningMomentsTest, WeightedEqualsRepetition) {
  RunningMoments weighted, repeated;
  weighted.AddWeighted(3.0, 4.0);
  weighted.AddWeighted(7.0, 2.0);
  for (int i = 0; i < 4; ++i) repeated.Add(3.0);
  for (int i = 0; i < 2; ++i) repeated.Add(7.0);
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance_population(), repeated.variance_population(),
              1e-12);
}

TEST(RunningMomentsTest, MergeEqualsSinglePass) {
  Rng rng = testutil::MakeTestRng(5);
  RunningMoments all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextGaussian() * 3 + 1;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance_population(), all.variance_population(), 1e-9);
  EXPECT_NEAR(a.count(), all.count(), 1e-12);
}

TEST(RunningMomentsTest, MergeWithEmpty) {
  RunningMoments a, empty;
  a.Add(5);
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  empty.Merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(RunningMomentsTest, ZeroAndNegativeWeightsIgnored) {
  RunningMoments m;
  m.AddWeighted(100.0, 0.0);
  m.AddWeighted(100.0, -1.0);
  m.Add(2.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.count(), 1.0);
}

// ---- Batch helpers -------------------------------------------------------------

TEST(DescriptiveTest, MeanVariance) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(VariancePopulation(v), 1.25, 1e-12);
  EXPECT_NEAR(VarianceSample(v), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(DescriptiveTest, QuantileAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 0.5), 1.5);  // interpolation
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

// ---- Inverse normal / critical values -------------------------------------------

TEST(ConfidenceTest, InverseNormalKnownValues) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.841344746), 1.0, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.0013498980316301), -3.0, 1e-5);
}

TEST(ConfidenceTest, CriticalValuesMatchPaper) {
  // The paper's Example 1: lambda = 1.96 at 95%, 2.576 at 99%.
  EXPECT_NEAR(NormalCriticalValue(0.95), 1.96, 0.001);
  EXPECT_NEAR(NormalCriticalValue(0.99), 2.576, 0.001);
}

TEST(ConfidenceTest, IntervalSemantics) {
  ConfidenceInterval ci{1000.0, 5.0, 0.95};
  EXPECT_DOUBLE_EQ(ci.lower(), 995.0);
  EXPECT_DOUBLE_EQ(ci.upper(), 1005.0);
  EXPECT_TRUE(ci.Contains(1000.0));
  EXPECT_TRUE(ci.Contains(995.0));
  EXPECT_FALSE(ci.Contains(1005.01));
  EXPECT_DOUBLE_EQ(ci.error(), 5.0);
  EXPECT_DOUBLE_EQ(ci.RelativeErrorVs(1000.0), 0.005);
}

// ---- Bootstrap ------------------------------------------------------------------

TEST(BootstrapTest, SumHalfWidthMatchesCLTScale) {
  // Contributions are iid N(mu, sigma^2) on every row (k = n); the bootstrap
  // CI of the sum should be close to the CLT interval lambda*sigma*sqrt(n).
  Rng rng = testutil::MakeTestRng(41);
  constexpr size_t kN = 2000;
  SupportSeries<1> contrib(kN);
  for (size_t i = 0; i < kN; ++i) {
    contrib.Push({10.0 + 2.0 * rng.NextGaussian()});
  }
  ASSERT_EQ(contrib.k(), kN);
  auto sum = [](const std::array<double, 1>& s) { return s[0]; };
  double half_width =
      PercentileHalfWidth(contrib.Resample(sum, 400, rng), 0.95);
  double expected_halfwidth = 1.96 * 2.0 * std::sqrt(static_cast<double>(kN));
  EXPECT_NEAR(contrib.Sums()[0], 10.0 * kN, 4 * expected_halfwidth);
  EXPECT_NEAR(half_width, expected_halfwidth, expected_halfwidth * 0.3);
}

TEST(BootstrapTest, SparseSupportKeepsTheDenseVariance) {
  // 5% of n rows carry N(10, 2^2); the rest are exact zeros. A dense
  // resample sum has variance n * Var(row) = n * (f (mu^2 + sigma^2) -
  // f^2 mu^2) — the Binomial hit count contributes the mu^2 term, which a
  // fixed k-pick resample would miss (it would give k * sigma^2 only).
  Rng rng = testutil::MakeTestRng(42);
  constexpr size_t kN = 20000;
  SupportSeries<1> contrib(kN);
  for (size_t i = 0; i < kN; ++i) {
    contrib.Push({rng.NextBernoulli(0.05) ? 10.0 + 2.0 * rng.NextGaussian()
                                          : 0.0});
  }
  const double f = static_cast<double>(contrib.k()) / kN;
  const double var_row = f * (100.0 + 4.0) - f * f * 100.0;
  const double expected = 1.96 * std::sqrt(kN * var_row);
  auto sum = [](const std::array<double, 1>& s) { return s[0]; };
  double half_width =
      PercentileHalfWidth(contrib.Resample(sum, 400, rng), 0.95);
  EXPECT_NEAR(half_width, expected, expected * 0.2);
}

TEST(BootstrapTest, EmptySupportIsZeroWidthAndDrawsNothing) {
  SupportSeries<1> contrib(500);
  for (int i = 0; i < 500; ++i) contrib.Push({i % 2 ? 0.0 : -0.0});
  ASSERT_EQ(contrib.k(), 0u);
  Rng rng(7), untouched(7);
  auto sum = [](const std::array<double, 1>& s) { return s[0]; };
  auto estimates = contrib.Resample(sum, 50, rng);
  EXPECT_EQ(PercentileHalfWidth(estimates, 0.95), 0.0);
  for (double e : estimates) EXPECT_EQ(std::bit_cast<uint64_t>(e), 0u);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(BootstrapTest, PercentileHalfWidthInterpolates) {
  std::vector<double> estimates;
  for (int i = 100; i >= 0; --i) estimates.push_back(i);
  // alpha/2 = 0.05: q_0.95 = 95, q_0.05 = 5.
  EXPECT_DOUBLE_EQ(PercentileHalfWidth(estimates, 0.90), 45.0);
  // Between order statistics: 4 replicates, p = 0.025 -> index 0.075.
  EXPECT_DOUBLE_EQ(PercentileHalfWidth({0, 10, 20, 30}, 0.95),
                   ((20 + 0.925 * 10) - (0 + 0.075 * 10)) / 2.0);
  EXPECT_EQ(PercentileHalfWidth({}, 0.95), 0.0);
}

// ---- Distributions ----------------------------------------------------------------

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(100, 2.0);
  double total = 0;
  for (int64_t i = 1; i <= 100; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SkewConcentratesMass) {
  // With z=2, P(1) / P(2) = 4.
  ZipfDistribution z(1000, 2.0);
  EXPECT_NEAR(z.Pmf(1) / z.Pmf(2), 4.0, 1e-6);
  Rng rng = testutil::MakeTestRng(47);
  int head = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.Sample(rng) == 1) ++head;
  }
  EXPECT_NEAR(static_cast<double>(head) / kDraws, z.Pmf(1), 0.01);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfDistribution z(10, 0.0);
  for (int64_t i = 1; i <= 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-9);
}

TEST(AliasSamplerTest, MatchesWeights) {
  std::vector<double> weights{1, 2, 3, 4};
  AliasSampler alias(weights);
  Rng rng = testutil::MakeTestRng(53);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[alias.Sample(rng)];
  for (size_t i = 0; i < 4; ++i) {
    double expected = weights[i] / 10.0 * kDraws;
    EXPECT_NEAR(counts[i], expected, expected * 0.08);
  }
}

TEST(AliasSamplerTest, HandlesZeros) {
  AliasSampler alias({0.0, 1.0, 0.0});
  Rng rng = testutil::MakeTestRng(59);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(alias.Sample(rng), 1u);
}

TEST(TruncatedNormalTest, StaysInBounds) {
  Rng rng = testutil::MakeTestRng(61);
  for (int i = 0; i < 5000; ++i) {
    double x = SampleTruncatedNormal(10, 5, 8, 12, rng);
    EXPECT_GE(x, 8.0);
    EXPECT_LE(x, 12.0);
  }
}

TEST(ParetoTest, RespectsScaleAndTail) {
  Rng rng = testutil::MakeTestRng(67);
  double min_seen = 1e18;
  int above_double = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    double x = SamplePareto(2.0, 1.0, rng);
    min_seen = std::min(min_seen, x);
    if (x > 4.0) ++above_double;
  }
  EXPECT_GE(min_seen, 2.0);
  // P(X > 2 x_m) = (1/2)^alpha = 0.5 for alpha=1.
  EXPECT_NEAR(static_cast<double>(above_double) / kDraws, 0.5, 0.02);
}

// ---- Equi-depth histograms -----------------------------------------------------

TEST(HistogramTest, UniformColumnEstimates) {
  Schema schema({{"c", DataType::kInt64}});
  Table t(schema);
  Rng rng = testutil::MakeTestRng(71);
  for (int i = 0; i < 50000; ++i) t.AddRow().Int64(rng.NextInt(1, 1000));
  auto hist = EquiDepthHistogram::Build(t, 0, 50);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->total_rows(), 50000u);
  // Uniform domain: selectivity of [101, 300] ~ 20%.
  EXPECT_NEAR(hist->EstimateSelectivity(101, 300), 0.2, 0.02);
  EXPECT_NEAR(hist->EstimateSelectivity(1, 1000), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(hist->EstimateSelectivity(5000, 9000), 0.0);
  EXPECT_DOUBLE_EQ(hist->EstimateSelectivity(300, 100), 0.0);
  EXPECT_NEAR(hist->EstimateCount(101, 300), 10000.0, 1000.0);
}

TEST(HistogramTest, SkewedColumnTracksExactCounts) {
  // Quadratic skew: dense at low values.
  Schema schema({{"c", DataType::kInt64}});
  Table t(schema);
  Rng rng = testutil::MakeTestRng(73);
  std::vector<int64_t> values;
  for (int i = 0; i < 40000; ++i) {
    double u = rng.NextDouble();
    int64_t v = 1 + static_cast<int64_t>(u * u * 999.0);
    values.push_back(v);
    t.AddRow().Int64(v);
  }
  auto hist = EquiDepthHistogram::Build(t, 0, 64);
  ASSERT_TRUE(hist.ok());
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{1, 10},
                        {5, 50}, {100, 400}, {500, 1000}}) {
    size_t exact = 0;
    for (int64_t v : values) {
      if (v >= lo && v <= hi) ++exact;
    }
    double truth = static_cast<double>(exact) / 40000.0;
    EXPECT_NEAR(hist->EstimateSelectivity(lo, hi), truth,
                std::max(0.02, truth * 0.25))
        << "[" << lo << ", " << hi << "]";
  }
}

TEST(HistogramTest, DuplicateRunsStayInOneBucket) {
  // One value dominates; its bucket must absorb the whole run.
  Schema schema({{"c", DataType::kInt64}});
  Table t(schema);
  for (int i = 0; i < 9000; ++i) t.AddRow().Int64(5);
  for (int i = 0; i < 1000; ++i) t.AddRow().Int64(100 + i % 100);
  auto hist = EquiDepthHistogram::Build(t, 0, 10);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist->EstimateSelectivity(5, 5), 0.9, 0.05);
  EXPECT_NEAR(hist->EstimateSelectivity(100, 199), 0.1, 0.05);
}

TEST(HistogramTest, Quantiles) {
  Schema schema({{"c", DataType::kInt64}});
  Table t(schema);
  for (int64_t v = 1; v <= 1000; ++v) t.AddRow().Int64(v);
  auto hist = EquiDepthHistogram::Build(t, 0, 100);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(static_cast<double>(hist->Quantile(0.5)), 500.0, 15.0);
  EXPECT_NEAR(static_cast<double>(hist->Quantile(0.9)), 900.0, 15.0);
  EXPECT_EQ(hist->Quantile(1.0), 1000);
}

TEST(HistogramTest, InvalidInputs) {
  Schema schema({{"c", DataType::kInt64}, {"x", DataType::kDouble}});
  Table t(schema);
  t.AddRow().Int64(1).Double(1.0);
  EXPECT_FALSE(EquiDepthHistogram::Build(t, 99, 8).ok());
  EXPECT_FALSE(EquiDepthHistogram::Build(t, 1, 8).ok());  // DOUBLE column
  EXPECT_FALSE(EquiDepthHistogram::Build(t, 0, 0).ok());
  Table empty(schema);
  EXPECT_FALSE(EquiDepthHistogram::Build(empty, 0, 8).ok());
}

}  // namespace
}  // namespace aqpp
