#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sampling/sample.h"
#include "sampling/samplers.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

double WeightedSum(const Sample& s, size_t measure_col) {
  double total = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    total += s.weights[i] * s.rows->column(measure_col).GetDouble(i);
  }
  return total;
}

double TrueSum(const Table& t, size_t measure_col) {
  double total = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    total += t.column(measure_col).GetDouble(i);
  }
  return total;
}

// ---- Uniform ------------------------------------------------------------------

TEST(UniformSamplerTest, SizeAndWeights) {
  auto t = MakeSynthetic({.rows = 10000});
  Rng rng = testutil::MakeTestRng(1);
  auto s = CreateUniformSample(*t, 0.01, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 100u);
  EXPECT_EQ(s->population_size, 10000u);
  for (double w : s->weights) EXPECT_DOUBLE_EQ(w, 100.0);
  EXPECT_EQ(s->method, SamplingMethod::kUniform);
}

TEST(UniformSamplerTest, RejectsBadRate) {
  auto t = MakeSynthetic({.rows = 100});
  Rng rng = testutil::MakeTestRng(1);
  EXPECT_FALSE(CreateUniformSample(*t, 0.0, rng).ok());
  EXPECT_FALSE(CreateUniformSample(*t, 1.5, rng).ok());
}

TEST(UniformSamplerTest, FullRateIsIdentityMultiset) {
  auto t = MakeSynthetic({.rows = 500});
  Rng rng = testutil::MakeTestRng(2);
  auto s = CreateUniformSample(*t, 1.0, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 500u);
  EXPECT_NEAR(WeightedSum(*s, 2), TrueSum(*t, 2), 1e-6);
}

TEST(UniformSamplerTest, EstimatorUnbiasedAcrossDraws) {
  auto t = MakeSynthetic({.rows = 20000, .seed = 3});
  double truth = TrueSum(*t, 2);
  Rng rng = testutil::MakeTestRng(4);
  double mean_est = 0;
  constexpr int kDraws = 60;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateUniformSample(*t, 0.02, rng);
    ASSERT_TRUE(s.ok());
    mean_est += WeightedSum(*s, 2) / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.005);
}

// ---- Bernoulli ------------------------------------------------------------------

TEST(BernoulliSamplerTest, SizeConcentratesAroundRate) {
  auto t = MakeSynthetic({.rows = 50000});
  Rng rng = testutil::MakeTestRng(5);
  auto s = CreateBernoulliSample(*t, 0.02, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(static_cast<double>(s->size()), 1000.0, 150.0);
  for (double w : s->weights) EXPECT_DOUBLE_EQ(w, 50.0);
}

TEST(BernoulliSamplerTest, EstimatorUnbiasedAcrossDraws) {
  auto t = MakeSynthetic({.rows = 20000, .seed = 6});
  double truth = TrueSum(*t, 2);
  Rng rng = testutil::MakeTestRng(7);
  double mean_est = 0;
  constexpr int kDraws = 60;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateBernoulliSample(*t, 0.02, rng);
    ASSERT_TRUE(s.ok());
    mean_est += WeightedSum(*s, 2) / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.01);
}

// ---- Reservoir ------------------------------------------------------------------

TEST(ReservoirSamplerTest, ExactSizeAndUniformity) {
  auto t = MakeSynthetic({.rows = 2000});
  Rng rng = testutil::MakeTestRng(8);
  auto s = CreateReservoirSample(*t, 100, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 100u);
  // Inclusion frequency across repetitions should be ~ n/N for every row;
  // spot-check via the mean of the sampled measure tracking the population.
  double pop_mean = TrueSum(*t, 2) / 2000.0;
  double mean_of_means = 0;
  constexpr int kDraws = 80;
  for (int d = 0; d < kDraws; ++d) {
    auto sd = CreateReservoirSample(*t, 100, rng);
    ASSERT_TRUE(sd.ok());
    double m = 0;
    for (size_t i = 0; i < sd->size(); ++i) {
      m += sd->rows->column(2).GetDouble(i) / 100.0;
    }
    mean_of_means += m / kDraws;
  }
  EXPECT_NEAR(mean_of_means, pop_mean, pop_mean * 0.01);
}

TEST(ReservoirSamplerTest, ReservoirLargerThanTable) {
  auto t = MakeSynthetic({.rows = 10});
  Rng rng = testutil::MakeTestRng(9);
  auto s = CreateReservoirSample(*t, 100, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 10u);
}

// ---- Stratified ------------------------------------------------------------------

std::shared_ptr<Table> SkewedGroupTable() {
  // Column 0 = group (0 is tiny, 1 medium, 2 huge), column 1 = measure.
  Schema schema({{"g", DataType::kInt64}, {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng rng = testutil::MakeTestRng(10);
  for (int i = 0; i < 10; ++i) t->AddRow().Int64(0).Double(rng.NextDouble());
  for (int i = 0; i < 500; ++i) t->AddRow().Int64(1).Double(rng.NextDouble());
  for (int i = 0; i < 9490; ++i) t->AddRow().Int64(2).Double(rng.NextDouble());
  return t;
}

TEST(StratifiedSamplerTest, SmallGroupsFullyCovered) {
  auto t = SkewedGroupTable();
  Rng rng = testutil::MakeTestRng(11);
  auto s = CreateStratifiedSample(*t, {0}, 0.03, rng);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->stratum_info.size(), 3u);
  // The tiny group (10 rows) must be fully sampled: disproportionate
  // allocation is the whole point (Section 7.4).
  EXPECT_EQ(s->stratum_info[0].population_rows, 10u);
  EXPECT_EQ(s->stratum_info[0].sample_rows, 10u);
  // Budget is ~300; the huge group must not starve the others.
  EXPECT_GE(s->stratum_info[1].sample_rows, 50u);
}

TEST(StratifiedSamplerTest, WeightsAreNhOverNh) {
  auto t = SkewedGroupTable();
  Rng rng = testutil::MakeTestRng(12);
  auto s = CreateStratifiedSample(*t, {0}, 0.05, rng);
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < s->size(); ++i) {
    const auto& info = s->stratum_info[static_cast<size_t>(s->strata[i])];
    EXPECT_NEAR(s->weights[i],
                static_cast<double>(info.population_rows) /
                    static_cast<double>(info.sample_rows),
                1e-9);
  }
}

TEST(StratifiedSamplerTest, EstimatorUnbiasedAcrossDraws) {
  auto t = SkewedGroupTable();
  double truth = TrueSum(*t, 1);
  Rng rng = testutil::MakeTestRng(13);
  double mean_est = 0;
  constexpr int kDraws = 60;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateStratifiedSample(*t, {0}, 0.03, rng);
    ASSERT_TRUE(s.ok());
    mean_est += WeightedSum(*s, 1) / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.02);
}

TEST(StratifiedSamplerTest, RejectsDoubleColumn) {
  auto t = SkewedGroupTable();
  Rng rng = testutil::MakeTestRng(14);
  EXPECT_FALSE(CreateStratifiedSample(*t, {1}, 0.05, rng).ok());
}

// ---- Measure-biased ------------------------------------------------------------

TEST(MeasureBiasedSamplerTest, OutliersOverrepresented) {
  Schema schema({{"c", DataType::kInt64}, {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng gen(15);
  // 1% of rows carry huge values.
  for (int i = 0; i < 10000; ++i) {
    double v = (i % 100 == 0) ? 1000.0 : 1.0;
    t->AddRow().Int64(i % 50 + 1).Double(v);
  }
  Rng rng = testutil::MakeTestRng(16);
  auto s = CreateMeasureBiasedSample(*t, 1, 0.02, rng);
  ASSERT_TRUE(s.ok());
  size_t outliers = 0;
  for (size_t i = 0; i < s->size(); ++i) {
    if (s->rows->column(1).GetDouble(i) > 100.0) ++outliers;
  }
  // Outliers carry ~91% of the total measure, so most draws should be
  // outliers even though they are 1% of rows.
  EXPECT_GT(outliers, s->size() / 2);
}

TEST(MeasureBiasedSamplerTest, HansenHurwitzUnbiased) {
  auto t = MakeSynthetic({.rows = 5000, .seed = 17});
  double truth = TrueSum(*t, 2);
  Rng rng = testutil::MakeTestRng(18);
  double mean_est = 0;
  constexpr int kDraws = 60;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateMeasureBiasedSample(*t, 2, 0.02, rng);
    ASSERT_TRUE(s.ok());
    mean_est += WeightedSum(*s, 2) / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.01);
}

// ---- Subsample ------------------------------------------------------------------

TEST(SubsampleTest, RescalesWeights) {
  auto t = MakeSynthetic({.rows = 10000});
  Rng rng = testutil::MakeTestRng(19);
  auto s = CreateUniformSample(*t, 0.05, rng);
  ASSERT_TRUE(s.ok());
  auto sub = Subsample(*s, 0.25, rng);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->size(), 125u);
  for (double w : sub->weights) EXPECT_NEAR(w, 10000.0 / 125.0, 1e-9);
  EXPECT_NEAR(sub->sampling_fraction, 0.05 * 0.25, 1e-12);
}

TEST(SubsampleTest, PreservesStratificationStructure) {
  auto t = SkewedGroupTable();
  Rng rng = testutil::MakeTestRng(20);
  auto s = CreateStratifiedSample(*t, {0}, 0.10, rng);
  ASSERT_TRUE(s.ok());
  auto sub = Subsample(*s, 0.5, rng);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->stratified());
  EXPECT_EQ(sub->stratum_info.size(), s->stratum_info.size());
  // Every stratum remains represented.
  std::set<int32_t> present(sub->strata.begin(), sub->strata.end());
  EXPECT_EQ(present.size(), 3u);
  // n_h (StratumInfo::sample_rows) stays each stratum's row count, before
  // and after thinning: the stratified SUM interval divides by it.
  for (const Sample* sample : {&*s, &*sub}) {
    std::vector<size_t> rows(sample->stratum_info.size(), 0);
    for (int32_t h : sample->strata) ++rows[static_cast<size_t>(h)];
    for (size_t h = 0; h < rows.size(); ++h) {
      EXPECT_EQ(sample->stratum_info[h].sample_rows, rows[h])
          << "stratum " << h;
    }
  }
  // Weighted total still estimates the population.
  double truth = TrueSum(*t, 1);
  EXPECT_NEAR(WeightedSum(*sub, 1), truth, truth * 0.35);
}

TEST(SubsampleTest, RejectsBadRate) {
  auto t = MakeSynthetic({.rows = 100});
  Rng rng = testutil::MakeTestRng(21);
  auto s = CreateUniformSample(*t, 0.5, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(Subsample(*s, 0.0, rng).ok());
  EXPECT_FALSE(Subsample(*s, 1.0001, rng).ok());
}

}  // namespace
}  // namespace aqpp
