// Parameterized property suites: the paper's invariants swept across
// sampling methods, aggregate functions, dimensionalities, and data
// regimes (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/identification.h"
#include "core/ingest.h"
#include "core/precompute.h"
#include "cube/extrema_grid.h"
#include "cube/prefix_cube.h"
#include "exec/executor.h"
#include "sampling/samplers.h"
#include "sampling/workload_sampler.h"
#include "sql/binder.h"
#include "synopsis/estimator.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;
using testutil::SyntheticOptions;

// ---- Estimator properties across (sampling method x aggregate) -------------

using EstimatorParam = std::tuple<SamplingMethod, AggregateFunction>;

class EstimatorPropertyTest
    : public ::testing::TestWithParam<EstimatorParam> {
 protected:
  static void SetUpTestSuite() {
    table_ = MakeSynthetic({.rows = 40000, .dom1 = 100, .dom2 = 40,
                            .seed = 901});
  }
  static void TearDownTestSuite() { table_.reset(); }

  Result<Sample> Draw(SamplingMethod method, Rng& rng) {
    switch (method) {
      case SamplingMethod::kUniform:
        return CreateUniformSample(*table_, 0.05, rng);
      case SamplingMethod::kBernoulli:
        return CreateBernoulliSample(*table_, 0.05, rng);
      case SamplingMethod::kStratified:
        return CreateStratifiedSample(*table_, {1}, 0.05, rng);
      case SamplingMethod::kMeasureBiased:
        return CreateMeasureBiasedSample(*table_, 2, 0.05, rng);
      case SamplingMethod::kWorkloadAware: {
        RangeQuery hist;
        hist.func = AggregateFunction::kSum;
        hist.agg_column = 2;
        hist.predicate.Add({0, 20, 70});
        return CreateWorkloadAwareSample(*table_, {hist}, 0.05, rng);
      }
    }
    return Status::Internal("unreachable");
  }

  static std::shared_ptr<Table> table_;
};

std::shared_ptr<Table> EstimatorPropertyTest::table_;

TEST_P(EstimatorPropertyTest, DirectEstimateTracksTruth) {
  auto [method, func] = GetParam();
  RangeQuery q;
  q.func = func;
  q.agg_column = 2;
  q.predicate.Add({0, 20, 70});
  ExactExecutor exact(table_.get());
  double truth = *exact.Execute(q);

  Rng rng = testutil::MakeTestRng(1000 + static_cast<uint64_t>(method) * 7 +
          static_cast<uint64_t>(func));
  auto sample = Draw(method, rng);
  ASSERT_TRUE(sample.ok()) << sample.status();
  SampleEstimator est(&*sample);
  auto ci = est.EstimateDirect(q, rng);
  ASSERT_TRUE(ci.ok()) << ci.status();
  // Estimate within 6 half-widths of the truth (overwhelming probability),
  // plus a floor for near-zero-variance cases.
  double tolerance = 6 * ci->half_width + std::fabs(truth) * 0.05 + 1e-9;
  EXPECT_NEAR(ci->estimate, truth, tolerance)
      << SamplingMethodToString(method) << " / "
      << AggregateFunctionToString(func);
}

TEST_P(EstimatorPropertyTest, SubsumptionPhiEqualsDirect) {
  auto [method, func] = GetParam();
  RangeQuery q;
  q.func = func;
  q.agg_column = 2;
  q.predicate.Add({0, 10, 60});
  Rng rng = testutil::MakeTestRng(2000 + static_cast<uint64_t>(method) * 7 +
          static_cast<uint64_t>(func));
  auto sample = Draw(method, rng);
  ASSERT_TRUE(sample.ok());
  SampleEstimator est(&*sample);
  RangePredicate phi;
  phi.Add({0, 1, 0});
  Rng rng_a(42), rng_b(42);
  auto direct = est.EstimateDirect(q, rng_a);
  auto with_phi = est.EstimateWithPre(q, phi, PreValues{}, rng_b);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(with_phi.ok());
  // With identical RNG streams the two paths coincide for SUM/COUNT and
  // agree closely for the bootstrap paths.
  double tol = std::fabs(direct->estimate) * 0.02 + 1e-9;
  EXPECT_NEAR(with_phi->estimate, direct->estimate, tol);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByAggregates, EstimatorPropertyTest,
    ::testing::Combine(
        ::testing::Values(SamplingMethod::kUniform,
                          SamplingMethod::kBernoulli,
                          SamplingMethod::kStratified,
                          SamplingMethod::kMeasureBiased,
                          SamplingMethod::kWorkloadAware),
        ::testing::Values(AggregateFunction::kSum, AggregateFunction::kCount,
                          AggregateFunction::kAvg, AggregateFunction::kVar)),
    [](const ::testing::TestParamInfo<EstimatorParam>& info) {
      std::string name =
          std::string(SamplingMethodToString(std::get<0>(info.param))) + "_" +
          AggregateFunctionToString(std::get<1>(info.param));
      // gtest test names must be alphanumeric/underscore.
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- Cube correctness across dimensionalities and granularities ------------

using CubeParam = std::tuple<int, int>;  // (dimensions, cuts per dimension)

class CubePropertyTest : public ::testing::TestWithParam<CubeParam> {};

TEST_P(CubePropertyTest, RandomBoxesMatchExactScan) {
  auto [d, cuts_per_dim] = GetParam();
  // Build a d-dimensional table with domain 24 per condition column.
  std::vector<ColumnSchema> cols;
  for (int i = 0; i < d; ++i) {
    cols.push_back({"c" + std::to_string(i), DataType::kInt64});
  }
  cols.push_back({"a", DataType::kDouble});
  auto t = std::make_shared<Table>(Schema(cols));
  Rng gen(static_cast<uint64_t>(d * 131 + cuts_per_dim));
  for (int r = 0; r < 20000; ++r) {
    auto row = t->AddRow();
    for (int i = 0; i < d; ++i) row.Int64(gen.NextInt(1, 24));
    row.Double(gen.NextDouble() * 10 - 2);
  }
  std::vector<DimensionPartition> dims;
  for (int i = 0; i < d; ++i) {
    DimensionPartition dim;
    dim.column = static_cast<size_t>(i);
    for (int c = 1; c <= cuts_per_dim; ++c) {
      dim.cuts.push_back(24 * c / cuts_per_dim);
    }
    dims.push_back(std::move(dim));
  }
  PartitionScheme scheme(std::move(dims));
  auto cube = PrefixCube::Build(*t, scheme,
                                {MeasureSpec::Sum(static_cast<size_t>(d)),
                                 MeasureSpec::Count()});
  ASSERT_TRUE(cube.ok()) << cube.status();
  ExactExecutor exact(t.get());
  for (int trial = 0; trial < 30; ++trial) {
    PreAggregate box;
    box.lo.resize(static_cast<size_t>(d));
    box.hi.resize(static_cast<size_t>(d));
    for (int i = 0; i < d; ++i) {
      size_t lo = static_cast<size_t>(gen.NextBounded(
          static_cast<uint64_t>(cuts_per_dim)));
      size_t hi = lo + 1 + static_cast<size_t>(gen.NextBounded(
                               static_cast<uint64_t>(cuts_per_dim) - lo));
      box.lo[static_cast<size_t>(i)] = lo;
      box.hi[static_cast<size_t>(i)] = hi;
    }
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = static_cast<size_t>(d);
    q.predicate = box.ToPredicate(scheme);
    EXPECT_NEAR(cube->get()->BoxValue(box, 0), *exact.Execute(q), 1e-6);
    q.func = AggregateFunction::kCount;
    EXPECT_NEAR(cube->get()->BoxValue(box, 1), *exact.Execute(q), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsByCuts, CubePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<CubeParam>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Hill climbing across data regimes -------------------------------------

using HillClimbParam = std::tuple<bool, bool, int>;  // correlated, skewed, k

class HillClimbPropertyTest
    : public ::testing::TestWithParam<HillClimbParam> {};

TEST_P(HillClimbPropertyTest, NeverWorseThanEqualDepthAndValid) {
  auto [correlated, skewed, k] = GetParam();
  auto table = MakeSynthetic({.rows = 25000, .dom1 = 250,
                              .correlated = correlated, .skewed = skewed,
                              .seed = 55});
  Rng rng = testutil::MakeTestRng(56);
  auto sample = CreateUniformSample(*table, 0.3, rng);
  ASSERT_TRUE(sample.ok());
  HillClimbOptimizer climber(sample->rows.get(), 0, 2, table->num_rows());
  HillClimbOptimizer eq_only(sample->rows.get(), 0, 2, table->num_rows(),
                             {.equal_partition_only = true});
  auto hc = climber.Optimize(static_cast<size_t>(k));
  auto eq = eq_only.Optimize(static_cast<size_t>(k));
  ASSERT_TRUE(hc.ok());
  ASSERT_TRUE(eq.ok());
  EXPECT_LE(hc->error_up, eq->error_up + 1e-9);
  // Structural validity: sorted cuts, within budget, pinned to sample max.
  const auto& cuts = hc->partition.cuts;
  EXPECT_LE(cuts.size(), static_cast<size_t>(k));
  for (size_t i = 1; i < cuts.size(); ++i) EXPECT_LT(cuts[i - 1], cuts[i]);
  EXPECT_EQ(cuts.back(), *sample->rows->column(0).MaxInt64());
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, HillClimbPropertyTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(4, 12, 40)),
    [](const ::testing::TestParamInfo<HillClimbParam>& info) {
      return std::string(std::get<0>(info.param) ? "corr" : "indep") +
             (std::get<1>(info.param) ? "_skew" : "_unif") + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Identification: the chosen pre never loses to phi ----------------------

class IdentificationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IdentificationPropertyTest, IdentifiedPreNeverWorseThanPhi) {
  int width = GetParam();
  auto table = MakeSynthetic({.rows = 30000, .dom1 = 100, .seed = 77});
  Rng rng = testutil::MakeTestRng(78);
  auto sample = CreateUniformSample(*table, 0.1, rng);
  ASSERT_TRUE(sample.ok());
  PartitionScheme scheme(
      {DimensionPartition{0, {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}});
  auto cube = PrefixCube::Build(*table, scheme,
                                {MeasureSpec::Sum(2), MeasureSpec::Count(),
                                 MeasureSpec::SumSquares(2)});
  ASSERT_TRUE(cube.ok());
  IdentificationOptions opts;
  opts.score_on_full_sample = true;  // deterministic: exact error(q, pre)
  AggregateIdentifier ident(cube->get(), &*sample, opts, rng);
  SampleEstimator est(&*sample);

  Rng qrng(79);
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = qrng.NextInt(1, 100 - width);
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 2;
    q.predicate.Add({0, lo, lo + width - 1});
    auto best = ident.Identify(q, qrng);
    ASSERT_TRUE(best.ok());
    auto phi_ci = est.EstimateDirect(q, qrng);
    ASSERT_TRUE(phi_ci.ok());
    EXPECT_LE(best->scored_error, phi_ci->half_width * 1.001 + 1e-9)
        << "width=" << width << " lo=" << lo;
  }
}

INSTANTIATE_TEST_SUITE_P(QueryWidths, IdentificationPropertyTest,
                         ::testing::Values(3, 10, 25, 50, 80),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "w" + std::to_string(info.param);
                         });

// ---- Extrema bounds across granularities and query widths --------------------

using ExtremaParam = std::tuple<int, int>;  // (blocks per dim, query width)

class ExtremaPropertyTest : public ::testing::TestWithParam<ExtremaParam> {};

TEST_P(ExtremaPropertyTest, BoundsAlwaysBracketTruth) {
  auto [blocks, width] = GetParam();
  auto table = MakeSynthetic({.rows = 20000, .dom1 = 120, .dom2 = 60,
                              .seed = 1501});
  DimensionPartition dim;
  dim.column = 0;
  for (int b = 1; b <= blocks; ++b) {
    dim.cuts.push_back(120 * b / blocks);
  }
  PartitionScheme scheme({dim});
  auto grid = std::move(ExtremaGrid::Build(*table, scheme, 2)).value();
  ExactExecutor exact(table.get());

  Rng rng = testutil::MakeTestRng(
      static_cast<uint64_t>(blocks * 1000 + width));
  for (int trial = 0; trial < 15; ++trial) {
    int64_t lo = rng.NextInt(1, 120 - width);
    RangePredicate pred;
    pred.Add({0, lo, lo + width - 1});
    RangeQuery q;
    q.func = AggregateFunction::kMax;
    q.agg_column = 2;
    q.predicate = pred;
    double truth = *exact.Execute(q);
    auto bounds = grid->MaxBounds(pred);
    ASSERT_TRUE(bounds.ok()) << bounds.status();
    EXPECT_LE(truth, bounds->upper + 1e-9);
    if (bounds->has_lower) EXPECT_GE(truth, bounds->lower - 1e-9);
    if (bounds->exact) EXPECT_NEAR(truth, bounds->upper, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlocksByWidths, ExtremaPropertyTest,
    ::testing::Combine(::testing::Values(3, 12, 60),
                       ::testing::Values(5, 30, 90)),
    [](const ::testing::TestParamInfo<ExtremaParam>& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Maintenance equivalence across batch splits ------------------------------

class MaintenancePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaintenancePropertyTest, AnyBatchSplitEqualsOneBigBuild) {
  // Appending the same rows in any number of batches (absorbing after every
  // other batch, and once more at the end) must publish a cube that answers
  // every box exactly like a cube built over all rows at once.
  const int num_batches = GetParam();
  auto base = MakeSynthetic({.rows = 8000, .dom1 = 50, .dom2 = 20,
                             .seed = 1601});
  auto extra = MakeSynthetic({.rows = 6000, .dom1 = 50, .dom2 = 20,
                              .seed = 1602});
  EngineOptions eopts;
  eopts.sample_rate = 0.05;
  eopts.cube_budget = 64;
  auto engine = std::move(AqppEngine::Create(base, eopts)).value();
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  RangeQuery warm;
  warm.func = AggregateFunction::kCount;
  warm.predicate.Add({0, 1, 50});
  ASSERT_TRUE(engine->Execute(warm).ok());  // draws the sample

  IngestOptions opts;
  opts.background = false;
  IngestManager ingest(engine.get(), opts);
  size_t per_batch = extra->num_rows() / static_cast<size_t>(num_batches);
  for (int b = 0; b < num_batches; ++b) {
    size_t begin = static_cast<size_t>(b) * per_batch;
    size_t end = b == num_batches - 1 ? extra->num_rows()
                                      : begin + per_batch;
    std::vector<size_t> rows;
    for (size_t r = begin; r < end; ++r) rows.push_back(r);
    auto batch = std::move(TakeRows(*extra, rows)).value();
    ASSERT_TRUE(ingest.Append(*batch).ok());
    if (b % 2 == 1) ASSERT_TRUE(ingest.AbsorbNow().ok());
  }
  ASSERT_TRUE(ingest.AbsorbNow().ok());
  ASSERT_EQ(ingest.snapshot().rows_absorbed, extra->num_rows());

  // Reference: one cube over base + extra.
  auto combined = std::make_shared<Table>(base->schema());
  for (size_t c = 0; c < base->num_columns(); ++c) {
    Column& dst = combined->mutable_column(c);
    const Column& b_col = base->column(c);
    const Column& e_col = extra->column(c);
    if (dst.type() == DataType::kDouble) {
      auto& data = dst.MutableDoubleData();
      data.insert(data.end(), b_col.DoubleData().begin(),
                  b_col.DoubleData().end());
      data.insert(data.end(), e_col.DoubleData().begin(),
                  e_col.DoubleData().end());
    } else {
      auto& data = dst.MutableInt64Data();
      data.insert(data.end(), b_col.Int64Data().begin(),
                  b_col.Int64Data().end());
      data.insert(data.end(), e_col.Int64Data().begin(),
                  e_col.Int64Data().end());
    }
  }
  combined->SetRowCountFromColumns();
  const PrefixCube& published = *engine->cube();
  auto reference = std::move(PrefixCube::Build(*combined, published.scheme(),
                                               published.measures()))
                       .value();

  const auto& dims = published.scheme().dims();
  ASSERT_EQ(dims.size(), 2u);
  for (size_t lo1 = 0; lo1 < dims[0].num_cuts(); ++lo1) {
    for (size_t hi1 = lo1 + 1; hi1 <= dims[0].num_cuts(); ++hi1) {
      for (size_t lo2 = 0; lo2 < dims[1].num_cuts(); ++lo2) {
        for (size_t hi2 = lo2 + 1; hi2 <= dims[1].num_cuts(); ++hi2) {
          for (size_t m = 0; m < published.measures().size(); ++m) {
            PreAggregate box;
            box.lo = {lo1, lo2};
            box.hi = {hi1, hi2};
            EXPECT_NEAR(published.BoxValue(box, m),
                        reference->BoxValue(box, m),
                        std::fabs(reference->BoxValue(box, m)) * 1e-9 + 1e-9);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSplits, MaintenancePropertyTest,
                         ::testing::Values(1, 2, 5, 11),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "batches" + std::to_string(info.param);
                         });

// ---- SQL round trip across aggregate functions -------------------------------

class SqlPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlPropertyTest, ParseBindExecuteAgreesWithDirectQuery) {
  const char* func = GetParam();
  auto table = MakeSynthetic({.rows = 5000, .seed = 88});
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("t", table).ok());
  std::string sql = std::string("SELECT ") + func +
                    "(a) FROM t WHERE c1 BETWEEN 20 AND 60 AND c2 >= 10";
  auto bound = ParseAndBind(sql, catalog);
  ASSERT_TRUE(bound.ok()) << bound.status();

  RangeQuery direct;
  auto parsed_func = AggregateFunctionFromString(func);
  ASSERT_TRUE(parsed_func.ok());
  direct.func = *parsed_func;
  direct.agg_column = 2;
  direct.predicate.Add({0, 20, 60});
  direct.predicate.Add({1, 10, std::numeric_limits<int64_t>::max()});

  ExactExecutor exact(table.get());
  auto via_sql = exact.Execute(bound->query);
  auto via_api = exact.Execute(direct);
  ASSERT_TRUE(via_sql.ok());
  ASSERT_TRUE(via_api.ok());
  EXPECT_DOUBLE_EQ(*via_sql, *via_api);
}

INSTANTIATE_TEST_SUITE_P(Aggregates, SqlPropertyTest,
                         ::testing::Values("SUM", "COUNT", "AVG", "VAR",
                                           "MIN", "MAX"));

}  // namespace
}  // namespace aqpp
