#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "cube/partition.h"
#include "cube/prefix_cube.h"
#include "exec/executor.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

// ---- DimensionPartition brackets ------------------------------------------------

TEST(DimensionPartitionTest, Brackets) {
  DimensionPartition dim;
  dim.column = 0;
  dim.cuts = {10, 20, 30};
  // LowerBracket: largest cut index with value <= bound (0 = none).
  EXPECT_EQ(dim.LowerBracket(5), 0u);
  EXPECT_EQ(dim.LowerBracket(10), 1u);
  EXPECT_EQ(dim.LowerBracket(15), 1u);
  EXPECT_EQ(dim.LowerBracket(30), 3u);
  EXPECT_EQ(dim.LowerBracket(99), 3u);
  // UpperBracket: smallest cut index with value >= bound (clamped).
  EXPECT_EQ(dim.UpperBracket(5), 1u);
  EXPECT_EQ(dim.UpperBracket(10), 1u);
  EXPECT_EQ(dim.UpperBracket(11), 2u);
  EXPECT_EQ(dim.UpperBracket(30), 3u);
  EXPECT_EQ(dim.UpperBracket(31), 3u);  // clamp to full prefix
}

TEST(DimensionPartitionTest, BucketOf) {
  DimensionPartition dim;
  dim.cuts = {10, 20, 30};
  EXPECT_EQ(dim.BucketOf(1), 1u);
  EXPECT_EQ(dim.BucketOf(10), 1u);
  EXPECT_EQ(dim.BucketOf(11), 2u);
  EXPECT_EQ(dim.BucketOf(30), 3u);
}

TEST(PartitionSchemeTest, NumCellsAndValidate) {
  auto t = MakeSynthetic({.rows = 1000, .dom1 = 100, .dom2 = 50});
  DimensionPartition d1{0, {25, 50, 75, 100}};
  DimensionPartition d2{1, {25, 50}};
  PartitionScheme scheme({d1, d2});
  EXPECT_EQ(scheme.NumCells(), 8u);
  EXPECT_TRUE(scheme.Validate(*t).ok());

  // Last cut below the max must fail.
  PartitionScheme bad({DimensionPartition{0, {25, 50}}, d2});
  EXPECT_FALSE(bad.Validate(*t).ok());
  // Non-increasing cuts must fail.
  PartitionScheme bad2({DimensionPartition{0, {50, 50, 100}}, d2});
  EXPECT_FALSE(bad2.Validate(*t).ok());
  // Condition on a DOUBLE column must fail.
  PartitionScheme bad3({DimensionPartition{2, {100}}});
  EXPECT_FALSE(bad3.Validate(*t).ok());
}

TEST(PartitionSchemeTest, EqualDepthOnUniformData) {
  auto t = MakeSynthetic({.rows = 50000, .dom1 = 100});
  auto dim = PartitionScheme::EqualDepthPartition(*t, 0, 10);
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim->cuts.size(), 10u);
  // Uniform domain: cuts should be close to 10, 20, ..., 100.
  for (size_t i = 0; i < dim->cuts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(dim->cuts[i]),
                10.0 * static_cast<double>(i + 1), 3.0);
  }
  EXPECT_EQ(dim->cuts.back(), *t->column(0).MaxInt64());
}

TEST(PartitionSchemeTest, EqualDepthOnSkewedDataBalancesRows) {
  auto t = MakeSynthetic({.rows = 50000, .dom1 = 100, .skewed = true});
  auto dim = PartitionScheme::EqualDepthPartition(*t, 0, 10);
  ASSERT_TRUE(dim.ok());
  // Row counts between consecutive cuts should be near-equal even though the
  // value spacing is not.
  const auto& data = t->column(0).Int64Data();
  int64_t prev = 0;
  for (int64_t cut : dim->cuts) {
    size_t count = 0;
    for (int64_t v : data) {
      if (v > prev && v <= cut) ++count;
    }
    EXPECT_NEAR(static_cast<double>(count), 5000.0, 1500.0);
    prev = cut;
  }
}

TEST(DistinctSortedTest, Works) {
  Schema schema({{"c", DataType::kInt64}});
  Table t(schema);
  for (int64_t v : {5, 3, 5, 1, 3}) t.AddRow().Int64(v);
  auto d = DistinctSorted(t, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, (std::vector<int64_t>{1, 3, 5}));
}

// ---- PreAggregate ---------------------------------------------------------------

TEST(PreAggregateTest, PredicateConversion) {
  DimensionPartition d1{0, {10, 20, 30}};
  PartitionScheme scheme({d1});
  PreAggregate pre;
  pre.lo = {1};
  pre.hi = {3};
  RangePredicate pred = pre.ToPredicate(scheme);
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_EQ(pred.conditions()[0].lo, 11);
  EXPECT_EQ(pred.conditions()[0].hi, 30);

  PreAggregate full;
  full.lo = {0};
  full.hi = {3};
  pred = full.ToPredicate(scheme);
  EXPECT_EQ(pred.conditions()[0].lo, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(pred.conditions()[0].hi, 30);

  PreAggregate phi;
  phi.lo = {0};
  phi.hi = {0};
  EXPECT_TRUE(phi.IsEmpty());
  pred = phi.ToPredicate(scheme);
  EXPECT_TRUE(pred.IsEmpty());
}

// ---- PrefixCube -----------------------------------------------------------------

class PrefixCubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 20000, .dom1 = 100, .dom2 = 50,
                            .seed = 77});
    executor_ = std::make_unique<ExactExecutor>(table_.get());
  }

  double ExactBox(const PartitionScheme& scheme, const PreAggregate& box,
                  AggregateFunction f) {
    RangeQuery q;
    q.func = f;
    q.agg_column = 2;
    q.predicate = box.ToPredicate(scheme);
    return *executor_->Execute(q);
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<ExactExecutor> executor_;
};

TEST_F(PrefixCubeTest, OneDimensionalMatchesExactScan) {
  DimensionPartition d1{0, {20, 40, 60, 80, 100}};
  PartitionScheme scheme({d1});
  auto cube = PrefixCube::Build(*table_, scheme,
                                {MeasureSpec::Sum(2), MeasureSpec::Count()});
  ASSERT_TRUE(cube.ok()) << cube.status();
  for (size_t lo = 0; lo <= 5; ++lo) {
    for (size_t hi = lo + 1; hi <= 5; ++hi) {
      PreAggregate box;
      box.lo = {lo};
      box.hi = {hi};
      EXPECT_NEAR((*cube)->BoxValue(box, 0),
                  ExactBox(scheme, box, AggregateFunction::kSum), 1e-6)
          << "box (" << lo << ", " << hi << "]";
      EXPECT_NEAR((*cube)->BoxValue(box, 1),
                  ExactBox(scheme, box, AggregateFunction::kCount), 1e-9);
    }
  }
}

TEST_F(PrefixCubeTest, TwoDimensionalExhaustive) {
  DimensionPartition d1{0, {25, 50, 75, 100}};
  DimensionPartition d2{1, {10, 25, 50}};
  PartitionScheme scheme({d1, d2});
  auto cube = PrefixCube::Build(*table_, scheme, {MeasureSpec::Sum(2)});
  ASSERT_TRUE(cube.ok());
  // Every box in P+ must match the exact scan (the 2^d inclusion-exclusion
  // of Figure 1).
  for (size_t l1 = 0; l1 <= 4; ++l1) {
    for (size_t h1 = l1 + 1; h1 <= 4; ++h1) {
      for (size_t l2 = 0; l2 <= 3; ++l2) {
        for (size_t h2 = l2 + 1; h2 <= 3; ++h2) {
          PreAggregate box;
          box.lo = {l1, l2};
          box.hi = {h1, h2};
          EXPECT_NEAR((*cube)->BoxValue(box, 0),
                      ExactBox(scheme, box, AggregateFunction::kSum), 1e-6);
        }
      }
    }
  }
}

TEST_F(PrefixCubeTest, ThreeDimensionalRandomizedBoxes) {
  // Add a third dimension by reusing c2 with different cuts? Use c1, c2 and
  // derive a third condition column from c1 (c1 itself with finer cuts is
  // legal: dimensions may repeat columns in principle, but keep it honest by
  // building a 3-column table).
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"z", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  Rng rng(123);
  for (int i = 0; i < 30000; ++i) {
    t->AddRow()
        .Int64(rng.NextInt(1, 20))
        .Int64(rng.NextInt(1, 16))
        .Int64(rng.NextInt(1, 12))
        .Double(rng.NextDouble() * 10);
  }
  PartitionScheme scheme({DimensionPartition{0, {5, 10, 15, 20}},
                          DimensionPartition{1, {4, 8, 12, 16}},
                          DimensionPartition{2, {3, 6, 9, 12}}});
  auto cube = PrefixCube::Build(*t, scheme, {MeasureSpec::Sum(3)});
  ASSERT_TRUE(cube.ok());
  ExactExecutor ex(t.get());
  for (int trial = 0; trial < 50; ++trial) {
    PreAggregate box;
    box.lo.resize(3);
    box.hi.resize(3);
    for (size_t d = 0; d < 3; ++d) {
      size_t lo = static_cast<size_t>(rng.NextBounded(4));
      size_t hi = lo + 1 + static_cast<size_t>(rng.NextBounded(4 - lo));
      box.lo[d] = lo;
      box.hi[d] = hi;
    }
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 3;
    q.predicate = box.ToPredicate(scheme);
    EXPECT_NEAR((*cube)->BoxValue(box, 0), *ex.Execute(q), 1e-6);
  }
}

TEST_F(PrefixCubeTest, SumSquaresPlane) {
  DimensionPartition d1{0, {50, 100}};
  PartitionScheme scheme({d1});
  auto cube = PrefixCube::Build(
      *table_, scheme,
      {MeasureSpec::Sum(2), MeasureSpec::Count(), MeasureSpec::SumSquares(2)});
  ASSERT_TRUE(cube.ok());
  PreAggregate box;
  box.lo = {0};
  box.hi = {1};
  double ss = 0;
  for (size_t i = 0; i < table_->num_rows(); ++i) {
    if (table_->column(0).GetInt64(i) <= 50) {
      double a = table_->column(2).GetDouble(i);
      ss += a * a;
    }
  }
  EXPECT_NEAR((*cube)->BoxValue(box, 2), ss, std::fabs(ss) * 1e-12);
}

TEST_F(PrefixCubeTest, EmptyBoxIsZero) {
  DimensionPartition d1{0, {50, 100}};
  PartitionScheme scheme({d1});
  auto cube = PrefixCube::Build(*table_, scheme, {MeasureSpec::Sum(2)});
  ASSERT_TRUE(cube.ok());
  PreAggregate phi;
  phi.lo = {1};
  phi.hi = {1};
  EXPECT_DOUBLE_EQ((*cube)->BoxValue(phi, 0), 0.0);
}

TEST_F(PrefixCubeTest, CostAccounting) {
  DimensionPartition d1{0, {20, 40, 60, 80, 100}};
  DimensionPartition d2{1, {25, 50}};
  PartitionScheme scheme({d1, d2});
  auto cube = PrefixCube::Build(*table_, scheme,
                                {MeasureSpec::Sum(2), MeasureSpec::Count()});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->NumCells(), 10u);
  // Two planes of (5+1)*(2+1) doubles.
  EXPECT_EQ((*cube)->MemoryUsage(), 2u * 18u * sizeof(double));
  EXPECT_GT((*cube)->build_seconds(), 0.0);
}

TEST_F(PrefixCubeTest, RejectsOversizedCube) {
  // 2^28-cell guard: 3 dims of 1024 cuts would be ~2^30 cells.
  std::vector<int64_t> cuts;
  for (int64_t i = 1; i <= 1024; ++i) cuts.push_back(i);
  // Build a table whose domain covers the cuts.
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"z", DataType::kInt64},
                 {"a", DataType::kDouble}});
  Table t(schema);
  t.AddRow().Int64(1024).Int64(1024).Int64(1024).Double(1.0);
  PartitionScheme scheme({DimensionPartition{0, cuts},
                          DimensionPartition{1, cuts},
                          DimensionPartition{2, cuts}});
  EXPECT_FALSE(PrefixCube::Build(t, scheme, {MeasureSpec::Sum(3)}).ok());
}

TEST_F(PrefixCubeTest, RejectsInvalidMeasure) {
  DimensionPartition d1{0, {100}};
  PartitionScheme scheme({d1});
  EXPECT_FALSE(PrefixCube::Build(*table_, scheme, {}).ok());
  EXPECT_FALSE(
      PrefixCube::Build(*table_, scheme, {MeasureSpec::Sum(99)}).ok());
}

// ---- Delta-cube merge (the ingest absorber's cube path) --------------------

class CubeMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = MakeSynthetic({.rows = 20000, .dom1 = 100, .dom2 = 50,
                           .seed = 701});
    scheme_ = PartitionScheme({DimensionPartition{0, {25, 50, 75, 100}},
                               DimensionPartition{1, {25, 50}}});
    cube_ = std::move(PrefixCube::Build(
                          *base_, scheme_,
                          {MeasureSpec::Sum(2), MeasureSpec::Count(),
                           MeasureSpec::SumSquares(2)}))
                .value();
  }

  // Exact SUM over a box for base + appended batches.
  double ExactCombined(const std::vector<std::shared_ptr<Table>>& tables,
                       const PreAggregate& box) {
    RangePredicate pred = box.ToPredicate(scheme_);
    double total = 0;
    for (const auto& t : tables) {
      for (size_t r = 0; r < t->num_rows(); ++r) {
        if (pred.Matches(*t, r)) total += t->column(2).GetDouble(r);
      }
    }
    return total;
  }

  std::shared_ptr<Table> base_;
  PartitionScheme scheme_;
  std::shared_ptr<PrefixCube> cube_;
};

TEST_F(CubeMergeTest, MergeFromIsExact) {
  auto batch = MakeSynthetic({.rows = 5000, .dom1 = 100, .dom2 = 50,
                              .seed = 702});
  auto delta = PrefixCube::Build(*batch, scheme_,
                                 {MeasureSpec::Sum(2), MeasureSpec::Count(),
                                  MeasureSpec::SumSquares(2)});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(cube_->MergeFrom(**delta).ok());
  PreAggregate box;
  box.lo = {1, 0};
  box.hi = {3, 2};
  EXPECT_NEAR(cube_->BoxValue(box, 0), ExactCombined({base_, batch}, box),
              1e-6);
}

TEST_F(CubeMergeTest, MergeFromRejectsMismatch) {
  PartitionScheme other({DimensionPartition{0, {50, 100}},
                         DimensionPartition{1, {25, 50}}});
  auto delta = PrefixCube::Build(*base_, other, {MeasureSpec::Sum(2)});
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(cube_->MergeFrom(**delta).ok());
}

TEST_F(CubeMergeTest, DeltaPastTheLastCutIsRejected) {
  // dom1 = 300 exceeds the last cut (100) on dimension 0: the delta cube
  // cannot be built, so it can never be merged.
  auto bad = MakeSynthetic({.rows = 10, .dom1 = 300, .dom2 = 50, .seed = 708});
  EXPECT_FALSE(PrefixCube::Build(*bad, scheme_, {MeasureSpec::Sum(2)}).ok());
}

}  // namespace
}  // namespace aqpp
