#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/executor.h"
#include "sampling/workload_sampler.h"
#include "synopsis/estimator.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

RangeQuery HistQuery(int64_t lo, int64_t hi) {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, lo, hi});
  return q;
}

class WorkloadSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 50000, .dom1 = 100, .dom2 = 50,
                            .seed = 1301});
    executor_ = std::make_unique<ExactExecutor>(table_.get());
    // History concentrated on the [10, 30] region of c1.
    for (int i = 0; i < 8; ++i) {
      history_.push_back(HistQuery(10 + i, 25 + i));
    }
  }
  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
  std::vector<RangeQuery> history_;
};

TEST_F(WorkloadSamplerTest, BasicShapeAndWeights) {
  Rng rng(1);
  auto s = CreateWorkloadAwareSample(*table_, history_, 0.02, rng);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->size(), 1000u);
  EXPECT_EQ(s->method, SamplingMethod::kWorkloadAware);
  for (double w : s->weights) EXPECT_GT(w, 0.0);
}

TEST_F(WorkloadSamplerTest, HotRegionOverrepresented) {
  Rng rng(2);
  auto s = CreateWorkloadAwareSample(*table_, history_, 0.02, rng,
                                     {.boost = 8.0});
  ASSERT_TRUE(s.ok());
  size_t hot = 0;
  for (size_t i = 0; i < s->size(); ++i) {
    int64_t v = s->rows->column(0).GetInt64(i);
    if (v >= 10 && v <= 32) ++hot;
  }
  // The hot region is ~23% of the domain but should hold a clear majority
  // of the boosted sample.
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(s->size()), 0.5);
}

TEST_F(WorkloadSamplerTest, UnbiasedForAllQueries) {
  // Even out-of-workload queries stay unbiased (Hansen-Hurwitz weights).
  RangeQuery cold = HistQuery(60, 90);
  double truth = *executor_->Execute(cold);
  Rng rng(3);
  double mean_est = 0;
  constexpr int kDraws = 60;
  for (int d = 0; d < kDraws; ++d) {
    auto s = CreateWorkloadAwareSample(*table_, history_, 0.02, rng);
    ASSERT_TRUE(s.ok());
    double est = 0;
    for (size_t i = 0; i < s->size(); ++i) {
      int64_t v = s->rows->column(0).GetInt64(i);
      if (v >= 60 && v <= 90) {
        est += s->weights[i] * s->rows->column(2).GetDouble(i);
      }
    }
    mean_est += est / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.03);
}

TEST_F(WorkloadSamplerTest, TighterIntervalsOnInWorkloadQueries) {
  Rng rng(4);
  auto aware = CreateWorkloadAwareSample(*table_, history_, 0.02, rng,
                                         {.boost = 8.0});
  auto uniform = CreateWorkloadAwareSample(*table_, {}, 0.02, rng);
  ASSERT_TRUE(aware.ok());
  ASSERT_TRUE(uniform.ok());
  SampleEstimator est_a(&*aware), est_u(&*uniform);
  RangeQuery in_workload = HistQuery(12, 28);
  Rng rng2(5);
  auto ci_a = est_a.EstimateDirect(in_workload, rng2);
  auto ci_u = est_u.EstimateDirect(in_workload, rng2);
  ASSERT_TRUE(ci_a.ok());
  ASSERT_TRUE(ci_u.ok());
  EXPECT_LT(ci_a->half_width, ci_u->half_width * 0.75);
  double truth = *executor_->Execute(in_workload);
  EXPECT_NEAR(ci_a->estimate, truth, 5 * ci_a->half_width + 1e-9);
}

TEST_F(WorkloadSamplerTest, ZeroBoostMatchesUniformStatistics) {
  Rng rng(6);
  auto s = CreateWorkloadAwareSample(*table_, history_, 0.05, rng,
                                     {.boost = 0.0});
  ASSERT_TRUE(s.ok());
  // All weights equal N/n with no boost.
  for (double w : s->weights) {
    EXPECT_NEAR(w, 50000.0 / s->size(), 1e-9);
  }
}

TEST_F(WorkloadSamplerTest, InvalidInputs) {
  Rng rng(7);
  EXPECT_FALSE(CreateWorkloadAwareSample(*table_, {}, 0.0, rng).ok());
  EXPECT_FALSE(
      CreateWorkloadAwareSample(*table_, {}, 0.02, rng, {.boost = -1}).ok());
  RangeQuery bad;
  bad.predicate.Add({99, 1, 2});
  EXPECT_FALSE(CreateWorkloadAwareSample(*table_, {bad}, 0.02, rng).ok());
  RangeQuery on_double;
  on_double.predicate.Add({2, 1, 2});  // measure column is DOUBLE
  EXPECT_FALSE(CreateWorkloadAwareSample(*table_, {on_double}, 0.02, rng).ok());
}

TEST_F(WorkloadSamplerTest, EngineAdaptToWorkloadLoop) {
  // Run a hot query repeatedly on a uniform-sample engine, adapt, and check
  // the interval tightens while staying honest.
  EngineOptions opts;
  opts.sample_rate = 0.02;
  opts.cube_budget = 16;  // tiny cube so the sample dominates accuracy
  opts.seed = 77;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());

  // Adapting without history fails cleanly.
  {
    EngineOptions fresh_opts = opts;
    auto fresh = std::move(AqppEngine::Create(table_, fresh_opts)).value();
    ASSERT_TRUE(fresh->Prepare(tmpl).ok());
    EXPECT_FALSE(fresh->AdaptToWorkload().ok());
  }

  RangeQuery hot = HistQuery(13, 27);
  double before_width = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = engine->Execute(hot);
    ASSERT_TRUE(r.ok());
    before_width = r->ci.half_width;
  }
  EXPECT_EQ(engine->recorded_workload().size(), 20u);

  ASSERT_TRUE(engine->AdaptToWorkload().ok());
  EXPECT_EQ(engine->sample().method, SamplingMethod::kWorkloadAware);
  auto after = engine->Execute(hot);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->ci.half_width, before_width * 0.8);
  double truth = *executor_->Execute(hot);
  EXPECT_NEAR(after->ci.estimate, truth, 5 * after->ci.half_width + 1e-9);
}

TEST_F(WorkloadSamplerTest, EngineIntegration) {
  EngineOptions opts;
  opts.sample_rate = 0.02;
  opts.cube_budget = 128;
  opts.sampling = SamplingMethod::kWorkloadAware;
  opts.workload_history = history_;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  EXPECT_EQ(engine->sample().method, SamplingMethod::kWorkloadAware);
  RangeQuery q = HistQuery(11, 27);
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 5 * r->ci.half_width + 1e-9);
}

}  // namespace
}  // namespace aqpp
