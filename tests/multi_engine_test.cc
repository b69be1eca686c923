// Multi-template sessions (Appendix C) on the one engine: several templates
// share one sample, split one cube budget, and the router picks the template
// that answers each query.

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/executor.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

class MultiEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three condition columns so templates can differ meaningfully.
    Schema schema({{"c1", DataType::kInt64},
                   {"c2", DataType::kInt64},
                   {"c3", DataType::kInt64},
                   {"a", DataType::kDouble}});
    table_ = std::make_shared<Table>(schema);
    Rng gen(31);
    for (int i = 0; i < 50000; ++i) {
      table_->AddRow()
          .Int64(gen.NextInt(1, 200))
          .Int64(gen.NextInt(1, 100))
          .Int64(gen.NextInt(1, 50))
          .Double(100.0 + 20.0 * gen.NextGaussian());
    }
    executor_ = std::make_unique<ExactExecutor>(table_.get());
  }

  QueryTemplate Template(std::vector<size_t> cols) {
    QueryTemplate t;
    t.func = AggregateFunction::kSum;
    t.agg_column = 3;
    t.condition_columns = std::move(cols);
    return t;
  }

  RangeQuery Query(std::vector<RangeCondition> conds) {
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 3;
    q.predicate = RangePredicate(std::move(conds));
    return q;
  }

  EngineOptions Options() {
    EngineOptions o;
    o.sample_rate = 0.05;
    o.cube_budget = 4000;
    o.seed = 32;
    return o;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
};

TEST_F(MultiEngineTest, CreateValidates) {
  EXPECT_FALSE(AqppEngine::Create(nullptr, Options()).ok());
  auto opts = Options();
  opts.cube_budget = 0;
  EXPECT_FALSE(AqppEngine::Create(table_, opts).ok());
}

TEST_F(MultiEngineTest, PrepareSplitsBudget) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0}), Template({1, 2})}).ok());
  EXPECT_EQ(engine->num_templates(), 2u);
  size_t total = engine->budget_of(0) + engine->budget_of(1);
  EXPECT_LE(total, 4000u);
  EXPECT_GE(engine->budget_of(0), 1u);
  EXPECT_GE(engine->budget_of(1), 1u);
  EXPECT_LE(engine->cube_of(0)->NumCells(), engine->budget_of(0) + 1);
}

TEST_F(MultiEngineTest, RoutesToCoveringTemplate) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0}), Template({1, 2})}).ok());
  EXPECT_EQ(engine->RouteFor(Query({{0, 50, 150}})), 0);
  EXPECT_EQ(engine->RouteFor(Query({{1, 20, 80}, {2, 10, 40}})), 1);
  EXPECT_EQ(engine->RouteFor(Query({{1, 20, 80}})), 1);
  // A query that constrains nothing still routes to a template on its
  // measure — the narrower one, which leaves fewer columns unused — and
  // PRE[ALL] answers it exactly.
  RangeQuery empty;
  empty.func = AggregateFunction::kSum;
  empty.agg_column = 3;
  EXPECT_EQ(engine->RouteFor(empty), 0);
  auto r = engine->Execute(empty);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->used_pre);
  EXPECT_EQ(r->ci.half_width, 0.0);
  EXPECT_NEAR(r->ci.estimate, *executor_->Execute(empty),
              1e-9 * std::fabs(r->ci.estimate));
}

TEST_F(MultiEngineTest, CountRoutesToAnyTemplate) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  QueryTemplate other_measure = Template({1, 2});
  other_measure.agg_column = 0;
  ASSERT_TRUE(engine->Prepare({Template({0}), other_measure}).ok());
  RangeQuery count = Query({{1, 20, 80}});
  count.func = AggregateFunction::kCount;
  count.agg_column = 3;
  EXPECT_EQ(engine->RouteFor(count), 1);
  RangeQuery sum = count;
  sum.func = AggregateFunction::kSum;
  EXPECT_EQ(engine->RouteFor(sum), 0);
}

TEST_F(MultiEngineTest, MeasureMismatchFallsBack) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0})}).ok());
  RangeQuery q = Query({{0, 50, 150}});
  q.agg_column = 2;  // different measure: no cube applies
  EXPECT_EQ(engine->RouteFor(q), -1);
}

TEST_F(MultiEngineTest, ExecuteAccurateOnBothTemplates) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0}), Template({1, 2})}).ok());
  for (auto& q : {Query({{0, 40, 160}}), Query({{1, 10, 90}, {2, 5, 45}})}) {
    auto r = engine->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
    double truth = *executor_->Execute(q);
    EXPECT_NEAR(r->ci.estimate, truth, 5 * r->ci.half_width + 1e-9);
  }
}

TEST_F(MultiEngineTest, UncoveredQueryRoutesOnItsMeasure) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0})}).ok());
  RangeQuery q = Query({{2, 10, 40}});  // column outside every template
  // c3 is in no template, but the template is on the query's measure, so it
  // answers (identification may still pick phi).
  int route = engine->RouteFor(q);
  auto r = engine->Execute(q);
  ASSERT_TRUE(r.ok());
  double truth = *executor_->Execute(q);
  EXPECT_NEAR(r->ci.estimate, truth, 5 * r->ci.half_width + 1e-9);
  EXPECT_EQ(route, 0);
}

TEST_F(MultiEngineTest, PrepareRejectsBadTemplates) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  EXPECT_FALSE(engine->Prepare(std::vector<QueryTemplate>{}).ok());
  QueryTemplate no_cols;
  no_cols.agg_column = 3;
  EXPECT_FALSE(engine->Prepare({no_cols}).ok());
  QueryTemplate grouped = Template({0});
  grouped.group_columns = {1};
  EXPECT_EQ(engine->Prepare({Template({1}), grouped}).code(),
            StatusCode::kUnimplemented);
}

TEST_F(MultiEngineTest, ExecuteBeforePrepareIsPlainAqp) {
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  EXPECT_EQ(engine->RouteFor(Query({{0, 1, 10}})), -1);
  auto r = engine->Execute(Query({{0, 1, 10}}));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->used_pre);
}

TEST_F(MultiEngineTest, StateRoundTripCoversEveryTemplate) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "aqpp_multi_state_test";
  std::filesystem::remove_all(dir);
  auto engine = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(engine->Prepare({Template({0}), Template({1, 2})}).ok());
  ASSERT_TRUE(engine->SaveState(dir.string()).ok());

  auto warm = std::move(AqppEngine::Create(table_, Options())).value();
  ASSERT_TRUE(warm->LoadState(dir.string()).ok());
  ASSERT_EQ(warm->num_templates(), 2u);
  EXPECT_EQ(warm->sample().size(), engine->sample().size());
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_NE(warm->cube_of(t), nullptr);
    EXPECT_EQ(warm->cube_of(t)->NumCells(), engine->cube_of(t)->NumCells());
  }
  const RangeQuery q1 = Query({{1, 10, 90}, {2, 5, 45}});
  EXPECT_EQ(warm->RouteFor(q1), 1);
  auto r = warm->Execute(q1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->ci.estimate, *executor_->Execute(q1),
              5 * r->ci.half_width + 1e-9);

  // A directory in the single-template format is refused, typed.
  {
    std::fstream f(dir / "template.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(7);
    f.put('1');
  }
  EXPECT_EQ(warm->LoadState(dir.string()).code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aqpp
