#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/executor.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 60000, .dom1 = 200, .dom2 = 60,
                            .correlated = true, .seed = 401});
    executor_ = std::make_unique<ExactExecutor>(table_.get());
  }

  EngineOptions DefaultOptions() {
    EngineOptions opts;
    opts.sample_rate = 0.05;
    opts.cube_budget = 128;
    opts.seed = 5;
    return opts;
  }

  QueryTemplate SumTemplate() {
    QueryTemplate t;
    t.func = AggregateFunction::kSum;
    t.agg_column = 2;
    t.condition_columns = {0, 1};
    return t;
  }

  RangeQuery SumQuery(int64_t lo1, int64_t hi1, int64_t lo2, int64_t hi2) {
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 2;
    q.predicate.Add({0, lo1, hi1});
    q.predicate.Add({1, lo2, hi2});
    return q;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
};

TEST_F(EngineTest, CreateValidatesOptions) {
  EngineOptions opts = DefaultOptions();
  opts.sample_rate = 0;
  EXPECT_FALSE(AqppEngine::Create(table_, opts).ok());
  opts = DefaultOptions();
  opts.cube_budget = 0;
  EXPECT_FALSE(AqppEngine::Create(table_, opts).ok());
  EXPECT_FALSE(AqppEngine::Create(nullptr, DefaultOptions()).ok());
}

TEST_F(EngineTest, ExecuteWithoutPrepareIsPlainAqp) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  RangeQuery q = SumQuery(20, 120, 10, 40);
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->used_pre);
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 4 * r->ci.half_width + 1e-9);
}

TEST_F(EngineTest, PreparePopulatesStats) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  const auto& stats = engine->prepare_stats();
  EXPECT_GT(stats.sample_bytes, 0u);
  EXPECT_GT(stats.cube_bytes, 0u);
  EXPECT_GT(stats.cube_cells, 0u);
  EXPECT_LE(stats.cube_cells, 128u);
  EXPECT_GT(stats.stage2_seconds, 0.0);
  ASSERT_EQ(stats.shape.size(), 2u);
  EXPECT_TRUE(engine->has_cube());
}

TEST_F(EngineTest, AqppBeatsAqpOnWideQueries) {
  EngineOptions opts = DefaultOptions();
  auto aqpp = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(aqpp->Prepare(SumTemplate()).ok());
  opts.enable_precompute = false;
  auto aqp = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(aqp->Prepare(SumTemplate()).ok());

  Rng qrng(7);
  double aqpp_total = 0, aqp_total = 0;
  int used_pre = 0;
  constexpr int kQueries = 25;
  for (int i = 0; i < kQueries; ++i) {
    int64_t lo1 = qrng.NextInt(1, 80);
    int64_t hi1 = lo1 + qrng.NextInt(60, 110);
    int64_t lo2 = qrng.NextInt(1, 20);
    int64_t hi2 = lo2 + qrng.NextInt(25, 39);
    RangeQuery q = SumQuery(lo1, std::min<int64_t>(hi1, 200), lo2,
                            std::min<int64_t>(hi2, 60));
    auto rp = aqpp->Execute(q);
    auto rq = aqp->Execute(q);
    ASSERT_TRUE(rp.ok());
    ASSERT_TRUE(rq.ok());
    aqpp_total += rp->ci.half_width;
    aqp_total += rq->ci.half_width;
    if (rp->used_pre) ++used_pre;
    double truth = *executor_->Execute(q);
    EXPECT_NEAR(rp->ci.estimate, truth, 5 * rq->ci.half_width + 1e-9);
  }
  // Most wide queries should use a pre and the aggregate error must shrink.
  EXPECT_GE(used_pre, kQueries / 2);
  EXPECT_LT(aqpp_total, aqp_total * 0.9);
}

TEST_F(EngineTest, ExactlyAlignedQueryIsNearExact) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  // Build a query exactly matching cube cut boundaries.
  const auto& scheme = engine->cube()->scheme();
  const auto& d1 = scheme.dim(0);
  const auto& d2 = scheme.dim(1);
  ASSERT_GE(d1.num_cuts(), 3u);
  RangeQuery q = SumQuery(d1.CutValue(1) + 1, d1.CutValue(d1.num_cuts() - 1),
                          std::numeric_limits<int64_t>::min(),
                          d2.CutValue(d2.num_cuts()));
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_pre);
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, std::fabs(truth) * 1e-9);
  EXPECT_NEAR(r->ci.half_width, 0.0, 1e-6);
}

TEST_F(EngineTest, TemplateDriftFewerDimensions) {
  // Fig. 9 scenario: cube built for {c1, c2}; query restricts only c1.
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 30, 150});
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 4 * r->ci.half_width + 1e-9);
}

TEST_F(EngineTest, TemplateDriftExtraDimensions) {
  // Query restricts a column the cube does not know about.
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  QueryTemplate t = SumTemplate();
  t.condition_columns = {0};  // cube only on c1
  ASSERT_TRUE(engine->Prepare(t).ok());
  RangeQuery q = SumQuery(20, 160, 10, 50);  // conditions on both columns
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 4 * r->ci.half_width + 1e-9);
}

TEST_F(EngineTest, GroupByExecution) {
  // Group-by support (Appendix C): group column becomes an exhaustive cube
  // dimension.
  Schema schema({{"c", DataType::kInt64},
                 {"g", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng gen(9);
  for (int i = 0; i < 40000; ++i) {
    t->AddRow()
        .Int64(gen.NextInt(1, 100))
        .Int64(gen.NextInt(0, 3))
        .Double(50.0 + 5.0 * gen.NextGaussian());
  }
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 200;
  auto engine = std::move(AqppEngine::Create(t, opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  tmpl.group_columns = {1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());

  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 20, 70});
  q.group_by = {1};
  auto results = engine->ExecuteGroupBy(q);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(results->size(), 4u);

  ExactExecutor ex(t.get());
  auto exact_groups = ex.ExecuteGroupBy(q);
  ASSERT_TRUE(exact_groups.ok());
  ASSERT_EQ(exact_groups->size(), results->size());
  for (size_t g = 0; g < results->size(); ++g) {
    EXPECT_EQ((*results)[g].key.values, (*exact_groups)[g].key.values);
    double truth = (*exact_groups)[g].value;
    EXPECT_NEAR((*results)[g].result.ci.estimate, truth,
                5 * (*results)[g].result.ci.half_width + 1e-6)
        << "group " << g;
  }
}

// GROUP BY estimates every group through the live synopsis. The AVG
// difference estimate's default interval is a bootstrap that draws from the
// seed; under "reservoir_closed" it is closed-form, so the answers cannot
// depend on the seed.
TEST_F(EngineTest, GroupByAnswersThroughTheSelectedSynopsis) {
  Schema schema({{"c", DataType::kInt64},
                 {"g", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng gen(9);
  for (int i = 0; i < 40000; ++i) {
    t->AddRow()
        .Int64(gen.NextInt(1, 100))
        .Int64(gen.NextInt(0, 3))
        .Double(50.0 + 5.0 * gen.NextGaussian());
  }
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 200;
  auto engine = std::move(AqppEngine::Create(t, opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kAvg;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  tmpl.group_columns = {1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());

  RangeQuery q;
  q.func = AggregateFunction::kAvg;
  q.agg_column = 2;
  q.predicate.Add({0, 23, 71});
  q.group_by = {1};
  auto run = [&](uint64_t seed) {
    ExecuteControl control;
    control.seed = seed;
    auto groups = engine->ExecuteGroupBy(q, control);
    AQPP_CHECK_OK(groups.status());
    return std::move(groups).value();
  };
  auto same_answers = [](const std::vector<GroupApproximateResult>& a,
                         const std::vector<GroupApproximateResult>& b) {
    if (a.size() != b.size()) return false;
    for (size_t g = 0; g < a.size(); ++g) {
      if (a[g].key.values != b[g].key.values ||
          !SameBits(a[g].result.ci.estimate, b[g].result.ci.estimate) ||
          !SameBits(a[g].result.ci.half_width, b[g].result.ci.half_width)) {
        return false;
      }
    }
    return true;
  };
  auto first = run(11);
  ASSERT_EQ(first.size(), 4u);
  for (const GroupApproximateResult& group : first) {
    EXPECT_TRUE(group.result.used_pre) << group.result.pre_description;
  }
  EXPECT_FALSE(same_answers(first, run(12)));

  ASSERT_TRUE(engine->SetSynopsis("reservoir_closed").ok());
  first = run(11);
  for (const GroupApproximateResult& group : first) {
    EXPECT_TRUE(group.result.used_pre) << group.result.pre_description;
  }
  EXPECT_TRUE(same_answers(first, run(12)));
}

TEST_F(EngineTest, GroupByRejectsScalarPath) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  RangeQuery q = SumQuery(1, 100, 1, 50);
  q.group_by = {0};
  EXPECT_FALSE(engine->Execute(q).ok());
  q.group_by.clear();
  EXPECT_FALSE(engine->ExecuteGroupBy(q).ok());
}

TEST_F(EngineTest, StratifiedSamplingConfig) {
  EngineOptions opts = DefaultOptions();
  opts.sampling = SamplingMethod::kStratified;
  opts.stratify_columns = {1};
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  EXPECT_TRUE(engine->sample().stratified());
  RangeQuery q = SumQuery(10, 150, 5, 55);
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 5 * r->ci.half_width + 1e-9);
}

TEST_F(EngineTest, MeasureBiasedSamplingConfig) {
  EngineOptions opts = DefaultOptions();
  opts.sampling = SamplingMethod::kMeasureBiased;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  EXPECT_EQ(engine->sample().method, SamplingMethod::kMeasureBiased);
  RangeQuery q = SumQuery(10, 150, 5, 55);
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 5 * r->ci.half_width + 1e-9);
}

TEST_F(EngineTest, AvgAndCountEndToEnd) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  ASSERT_TRUE(engine->Prepare(SumTemplate()).ok());
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kAvg,
                 AggregateFunction::kVar}) {
    RangeQuery q = SumQuery(20, 150, 10, 50);
    q.func = f;
    auto r = engine->Execute(q);
    ASSERT_TRUE(r.ok()) << AggregateFunctionToString(f);
    double truth = *executor_->Execute(q);
    double tolerance = f == AggregateFunction::kVar
                           ? truth * 0.3
                           : 5 * r->ci.half_width + std::fabs(truth) * 0.02;
    EXPECT_NEAR(r->ci.estimate, truth, tolerance)
        << AggregateFunctionToString(f);
  }
}

TEST_F(EngineTest, PrepareRejectsEmptyTemplate) {
  auto engine = std::move(AqppEngine::Create(table_, DefaultOptions())).value();
  QueryTemplate t;
  t.agg_column = 2;
  EXPECT_FALSE(engine->Prepare(t).ok());
}

// ---- A query on a measure no template has --------------------------------

// Two measures over one condition column; the engine's template covers `a`
// only, so a query on `b` has no cube to lean on.
class EngineMeasureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"c1", DataType::kInt64},
                   {"a", DataType::kDouble},
                   {"b", DataType::kDouble}});
    table_ = std::make_shared<Table>(schema);
    Rng gen(testutil::TestSeed(2409));
    for (int i = 0; i < 60000; ++i) {
      table_->AddRow()
          .Int64(gen.NextInt(1, 1000))
          .Double(100.0 + 20.0 * gen.NextGaussian())
          .Double(10000.0 + 50.0 * gen.NextGaussian());
    }
    executor_ = std::make_unique<ExactExecutor>(table_.get());
  }

  EngineOptions Options() {
    EngineOptions opts;
    opts.sample_rate = 0.05;
    opts.cube_budget = 128;
    opts.seed = 5;
    return opts;
  }

  static QueryTemplate SumOfA() {
    QueryTemplate t;
    t.agg_column = 1;
    t.condition_columns = {0};
    return t;
  }

  static RangeQuery On(AggregateFunction func, size_t measure) {
    RangeQuery q;
    q.func = func;
    q.agg_column = measure;
    q.predicate.Add({0, 100, 700});
    return q;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
};

TEST_F(EngineMeasureTest, OtherMeasureIsAnsweredByPlainAqp) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare(SumOfA()).ok());
  // The same sample and synopsis without a cube: the plain-AQP answer.
  EngineOptions plain_opts = Options();
  plain_opts.enable_precompute = false;
  auto plain = std::move(AqppEngine::Create(table_, plain_opts)).value();
  ASSERT_TRUE(plain->Prepare(SumOfA()).ok());

  uint64_t seed = 90;
  for (auto f : {AggregateFunction::kSum, AggregateFunction::kAvg,
                 AggregateFunction::kVar}) {
    const RangeQuery q = On(f, 2);
    EXPECT_EQ(engine->RouteFor(q), -1);
    ExecuteControl control;
    control.seed = seed++;
    auto got = engine->Execute(q, control);
    auto want = plain->Execute(q, control);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_FALSE(got->used_pre) << AggregateFunctionToString(f);
    EXPECT_TRUE(SameBits(got->ci.estimate, want->ci.estimate))
        << AggregateFunctionToString(f);
    EXPECT_TRUE(SameBits(got->ci.half_width, want->ci.half_width))
        << AggregateFunctionToString(f);
    // Near the truth on the scale of its own interval: a 95% interval may
    // miss it, while an answer built on another measure's cube is off by
    // orders of magnitude.
    const double truth = *executor_->Execute(q);
    EXPECT_NEAR(got->ci.estimate, truth, 3 * got->ci.half_width)
        << AggregateFunctionToString(f) << ": " << got->ci.ToString();
  }
}

TEST_F(EngineMeasureTest, ExtremaOfAnotherMeasureAreUnimplemented) {
  EngineOptions opts = Options();
  opts.enable_extrema = true;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(engine->Prepare(SumOfA()).ok());
  auto other = engine->Execute(On(AggregateFunction::kMax, 2));
  EXPECT_EQ(other.status().code(), StatusCode::kUnimplemented);
  // The template's own measure keeps its deterministic bounds.
  auto own = engine->Execute(On(AggregateFunction::kMax, 1));
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_EQ(own->ci.level, 1.0);
}

TEST_F(EngineMeasureTest, FullTableQueryOnTheTemplateMeasureStaysExact) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare(SumOfA()).ok());
  RangeQuery all;
  all.func = AggregateFunction::kSum;
  all.agg_column = 1;
  EXPECT_EQ(engine->RouteFor(all), 0);
  auto r = engine->Execute(all);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->used_pre);
  EXPECT_EQ(r->ci.half_width, 0.0);
  const double truth = *executor_->Execute(all);
  EXPECT_NEAR(r->ci.estimate, truth, 1e-9 * std::fabs(truth));
}

}  // namespace
}  // namespace aqpp
