// Equivalence and determinism tests for the vectorized kernel layer.
//
// The core property: every ScanStrategy (adaptive, forced-masked,
// forced-selection-vector, and the row-at-a-time scalar oracle) produces
// bit-identical moments at every thread count, because they share the lane
// accumulators and the fixed chunk/shard grid. The scalar oracle is itself
// checked against naive std:: loops with tolerances (COUNT exact).

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exact_scan_oracle.h"
#include "exec/executor.h"
#include "kernels/binning.h"
#include "kernels/kernels.h"
#include "kernels/multi_scan.h"
#include "kernels/scan.h"
#include "test_util.h"

namespace aqpp {
namespace {

using kernels::ScanProfile;
using kernels::ScanStats;
using kernels::ScanStrategy;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Bitwise comparison of scan results (EXPECT_EQ on doubles would let
// -0.0 == +0.0 and NaN != NaN slip through).
void ExpectBitIdentical(const ScanStats& a, const ScanStats& b,
                        const char* what) {
  EXPECT_EQ(Bits(a.count), Bits(b.count)) << what << " count";
  EXPECT_EQ(Bits(a.sum), Bits(b.sum)) << what << " sum";
  EXPECT_EQ(Bits(a.sum_sq), Bits(b.sum_sq)) << what << " sum_sq";
  EXPECT_EQ(Bits(a.min), Bits(b.min)) << what << " min";
  EXPECT_EQ(Bits(a.max), Bits(b.max)) << what << " max";
}

// A table sized to land on/around chunk and shard boundaries, with an int64
// measure next to the standard double one.
std::shared_ptr<Table> FuzzTable(size_t rows, uint64_t seed) {
  Schema schema({{"c1", DataType::kInt64},
                 {"c2", DataType::kInt64},
                 {"a", DataType::kDouble},
                 {"m", DataType::kInt64}});
  auto table = std::make_shared<Table>(schema);
  table->Reserve(rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    table->AddRow()
        .Int64(rng.NextInt(0, 99))
        .Int64(rng.NextInt(0, 49))
        .Double(rng.NextGaussian() * 50.0 + 10.0)
        .Int64(rng.NextInt(-1000, 1000));
  }
  table->SetRowCountFromColumns();
  return table;
}

// Random conjunction of 0..4 conditions; occasionally empty (lo > hi) or
// full-domain (matches every row).
std::vector<RangeCondition> FuzzConditions(Rng& rng) {
  std::vector<RangeCondition> conds;
  const size_t k = static_cast<size_t>(rng.NextBounded(5));
  for (size_t c = 0; c < k; ++c) {
    RangeCondition cond;
    cond.column = rng.NextBounded(2) == 0 ? 0 : 1;
    const int64_t dom = cond.column == 0 ? 99 : 49;
    switch (rng.NextBounded(4)) {
      case 0:  // full domain
        cond.lo = std::numeric_limits<int64_t>::min();
        cond.hi = std::numeric_limits<int64_t>::max();
        break;
      case 1: {  // empty
        cond.lo = 10;
        cond.hi = 5;
        break;
      }
      default: {
        int64_t a = rng.NextInt(0, dom);
        int64_t b = rng.NextInt(0, dom);
        cond.lo = std::min(a, b);
        cond.hi = std::max(a, b);
        break;
      }
    }
    conds.push_back(cond);
  }
  return conds;
}

TEST(KernelScanTest, StrategiesBitIdenticalAcrossThreadCounts) {
  // Sizes straddle chunk (2048) and shard (65536) boundaries.
  const size_t sizes[] = {1, 7, 2047, 2048, 2049, 70000};
  const ScanProfile profiles[] = {ScanProfile::kCount, ScanProfile::kSum,
                                  ScanProfile::kMoments, ScanProfile::kMinMax,
                                  ScanProfile::kFull};
  Rng rng(42);
  for (size_t rows : sizes) {
    auto table = FuzzTable(rows, 1000 + rows);
    for (int iter = 0; iter < 8; ++iter) {
      auto conds = FuzzConditions(rng);
      const size_t agg_col = rng.NextBounded(2) == 0 ? 2 : 3;  // double / int64
      auto values = kernels::ValueRef::FromColumn(table->column(agg_col));
      for (ScanProfile profile : profiles) {
        // Reference: scalar oracle, sequential.
        kernels::ScanOptions ref_opts;
        ref_opts.strategy = ScanStrategy::kScalarRows;
        ref_opts.parallel = false;
        ScanStats ref =
            *kernels::ScanAggregate(*table, conds, values, profile, ref_opts);
        for (ScanStrategy strategy :
             {ScanStrategy::kAdaptive, ScanStrategy::kMasked,
              ScanStrategy::kSelectionVector, ScanStrategy::kScalarRows}) {
          for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
            ThreadPool pool(threads);
            kernels::ScanOptions opts;
            opts.strategy = strategy;
            opts.pool = &pool;
            ScanStats got =
                *kernels::ScanAggregate(*table, conds, values, profile, opts);
            ExpectBitIdentical(ref, got, "strategy/threads");
          }
        }
      }
    }
  }
}

TEST(KernelScanTest, MatchesNaiveLoops) {
  auto table = FuzzTable(20000, 7);
  const auto& c1 = table->column(0).Int64Data();
  const auto& c2 = table->column(1).Int64Data();
  const auto& a = table->column(2).DoubleData();
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    auto conds = FuzzConditions(rng);
    size_t count = 0;
    double sum = 0, sum_sq = 0;
    double mn = std::numeric_limits<double>::infinity(), mx = -mn;
    for (size_t i = 0; i < table->num_rows(); ++i) {
      bool match = true;
      for (const auto& c : conds) {
        int64_t v = c.column == 0 ? c1[i] : c2[i];
        if (v < c.lo || v > c.hi) match = false;
      }
      if (!match) continue;
      ++count;
      sum += a[i];
      sum_sq += a[i] * a[i];
      mn = std::min(mn, a[i]);
      mx = std::max(mx, a[i]);
    }
    auto values = kernels::ValueRef::FromColumn(table->column(2));
    ScanStats got = *kernels::ScanAggregate(*table, conds, values,
                                            ScanProfile::kFull, {});
    EXPECT_EQ(static_cast<size_t>(got.count), count);  // COUNT is exact
    const double tol = 1e-9 * (1.0 + std::abs(sum));
    EXPECT_NEAR(got.sum, sum, tol);
    EXPECT_NEAR(got.sum_sq, sum_sq, 1e-9 * (1.0 + sum_sq));
    if (count > 0) {
      EXPECT_EQ(Bits(got.min), Bits(mn));  // min/max are order-free
      EXPECT_EQ(Bits(got.max), Bits(mx));
    }
  }
}

TEST(KernelScanTest, FullRangeElisionAndDisjointRanges) {
  auto table = FuzzTable(5000, 3);
  kernels::ColumnStatsCache stats(table.get());
  auto values = kernels::ValueRef::FromColumn(table->column(2));

  // A condition covering the whole observed domain must not change the
  // result, with or without the stats-based elision.
  std::vector<RangeCondition> covering{{0, 0, 99}};
  ScanStats none = *kernels::ScanAggregate(*table, {}, values,
                                           ScanProfile::kFull, {});
  ScanStats elided = *kernels::ScanAggregate(*table, covering, values,
                                             ScanProfile::kFull, {}, &stats);
  ScanStats scanned = *kernels::ScanAggregate(*table, covering, values,
                                              ScanProfile::kFull, {});
  ExpectBitIdentical(none, elided, "elided");
  ExpectBitIdentical(none, scanned, "scanned");

  // A range disjoint from the domain is provably empty with stats.
  std::vector<RangeCondition> disjoint{{0, 200, 300}};
  ScanStats empty = *kernels::ScanAggregate(*table, disjoint, values,
                                            ScanProfile::kFull, {}, &stats);
  EXPECT_EQ(empty.count, 0.0);
  EXPECT_EQ(empty.sum, 0.0);
}

TEST(KernelMaskTest, EvaluateMaskMatchesRowPredicate) {
  auto table = FuzzTable(10000, 11);
  Rng rng(5);
  std::vector<std::vector<RangeCondition>> members;
  for (int iter = 0; iter < 10; ++iter) {
    members.push_back(FuzzConditions(rng));
    RangePredicate pred(members.back());
    auto mask = *pred.EvaluateMask(*table);
    ASSERT_EQ(mask.size(), table->num_rows());
    for (size_t i = 0; i < table->num_rows(); ++i) {
      EXPECT_EQ(mask[i] != 0, pred.Matches(*table, i)) << "row " << i;
    }
  }

  // The same ten predicates as one fused batch, with a member on a missing
  // column in the middle: its error must leave the other masks intact.
  const size_t bad = 5;
  members.insert(members.begin() + bad,
                 std::vector<RangeCondition>{{0, 10, 20}, {99, 0, 1}});
  auto fused = kernels::MultiEvaluateMask(*table, members);
  ASSERT_EQ(fused.size(), members.size());
  EXPECT_EQ(fused[bad].status().code(), StatusCode::kInvalidArgument);
  for (size_t m = 0; m < members.size(); ++m) {
    if (m == bad) continue;
    ASSERT_TRUE(fused[m].ok()) << "member " << m;
    ASSERT_EQ(fused[m]->size(), table->num_rows());
    RangePredicate pred(members[m]);
    for (size_t i = 0; i < table->num_rows(); ++i) {
      EXPECT_EQ((*fused[m])[i] != 0, pred.Matches(*table, i))
          << "member " << m << " row " << i;
    }
  }
}

TEST(KernelMaskTest, SelectionCompressionRoundTrip) {
  Rng rng(21);
  alignas(64) int64_t mask[kernels::kChunkRows];
  alignas(64) uint32_t sel[kernels::kChunkRows];
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, kernels::kChunkRows}) {
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      bool on = rng.NextBernoulli(0.3);
      mask[i] = on ? -1 : 0;
      expected += on;
    }
    size_t k = kernels::MaskToSelection(mask, n, sel);
    ASSERT_EQ(k, expected);
    for (size_t j = 1; j < k; ++j) EXPECT_LT(sel[j - 1], sel[j]);
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(mask[sel[j]], -1);
  }
}

// The fused single-condition kernels must reproduce the mask pipeline's
// output exactly: FillSelection == FillMask + MaskToSelection (entry for
// entry, including the SIMD compress-store path when compiled in) and
// CountRange == FillMask's count. Sizes straddle the 16-row vector width.
TEST(KernelMaskTest, FusedSelectionMatchesMaskPipeline) {
  Rng rng(22);
  alignas(64) int64_t mask[kernels::kChunkRows];
  alignas(64) uint32_t sel_mask[kernels::kChunkRows];
  alignas(64) uint32_t sel_fused[kernels::kChunkRows];
  std::vector<int64_t> data(kernels::kChunkRows);
  for (int64_t& v : data) v = rng.NextInt(0, 99);
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{100}, size_t{2047}, kernels::kChunkRows}) {
    for (auto [lo, hi] : {std::pair<int64_t, int64_t>{10, 40},
                          {0, 99},
                          {50, 50},
                          {95, 99},
                          {60, 20}}) {
      size_t count = kernels::FillMask(data.data(), n, lo, hi, mask);
      size_t k_mask = kernels::MaskToSelection(mask, n, sel_mask);
      size_t k_fused = kernels::FillSelection(data.data(), n, lo, hi,
                                              sel_fused);
      ASSERT_EQ(k_fused, k_mask);
      ASSERT_EQ(kernels::CountRange(data.data(), n, lo, hi), count);
      for (size_t j = 0; j < k_mask; ++j) {
        ASSERT_EQ(sel_fused[j], sel_mask[j]);
      }
    }
  }
}

TEST(ExecutorKernelTest, KernelAndLegacyAgree) {
  auto table = testutil::MakeSynthetic({.rows = 50000, .seed = 17});
  ExactExecutor kernel_ex(table.get());

  Rng rng(31);
  const AggregateFunction funcs[] = {
      AggregateFunction::kSum, AggregateFunction::kCount,
      AggregateFunction::kAvg, AggregateFunction::kVar,
      AggregateFunction::kMin, AggregateFunction::kMax};
  for (int iter = 0; iter < 15; ++iter) {
    RangeQuery q;
    q.agg_column = 2;
    int64_t a = rng.NextInt(1, 100), b = rng.NextInt(1, 100);
    q.predicate.Add({0, std::min(a, b), std::max(a, b)});
    for (AggregateFunction f : funcs) {
      q.func = f;
      auto kr = kernel_ex.Execute(q);
      auto lr = oracle::ExactScan(*table, q);
      ASSERT_EQ(kr.ok(), lr.ok()) << "status mismatch";
      if (!kr.ok()) continue;  // both empty-selection MIN/MAX errors
      if (f == AggregateFunction::kCount) {
        EXPECT_EQ(*kr, *lr);
      } else {
        EXPECT_NEAR(*kr, *lr, 1e-9 * (1.0 + std::abs(*lr)));
      }
    }
    // Group-by parity (kernel chunked selection vs the row loop).
    q.func = AggregateFunction::kSum;
    q.group_by = {1};
    auto kg = *kernel_ex.ExecuteGroupBy(q);
    auto lg = oracle::ExactGroupBy(*table, q);
    ASSERT_EQ(kg.size(), lg.size());
    for (size_t g = 0; g < kg.size(); ++g) {
      EXPECT_EQ(kg[g].key.values, lg[g].key.values);
      EXPECT_EQ(Bits(kg[g].value), Bits(lg[g].value));
    }
    q.group_by.clear();
  }
}

TEST(ExecutorKernelTest, SumFollowsTheLaneOrderContract) {
  // Ragged last shard, so the shard-order merge is exercised too.
  auto table = testutil::MakeSynthetic(
      {.rows = 3 * kernels::kShardRows + 777, .seed = 29});
  Rng rng(37);
  for (int iter = 0; iter < 10; ++iter) {
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 2;
    int64_t a = rng.NextInt(1, 100), b = rng.NextInt(1, 100);
    q.predicate.Add({0, std::min(a, b), std::max(a, b)});
    if (iter % 2 == 0) q.predicate.Add({1, 1, rng.NextInt(1, 50)});
    const double want = oracle::LaneOrderedSum(*table, q);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      ExecutorOptions opts;
      opts.pool = &pool;
      ExactExecutor ex(table.get(), opts);
      auto got = ex.Execute(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Bits(*got), Bits(want))
          << "iter " << iter << ", " << threads << " threads";
    }
  }
}

TEST(ExecutorKernelTest, ResultsBitIdenticalAcrossThreadCounts) {
  auto table = testutil::MakeSynthetic({.rows = 200000, .seed = 23});
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 10, 60});

  double reference = 0.0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    ExecutorOptions opts;
    opts.pool = &pool;
    ExactExecutor ex(table.get(), opts);
    double got = *ex.Execute(q);
    if (threads == 1) {
      reference = got;
    } else {
      EXPECT_EQ(Bits(got), Bits(reference)) << threads << " threads";
    }
  }
}

TEST(BinningKernelTest, CellIdsMatchBucketSearch) {
  Rng rng(13);
  const size_t n = 5000;
  std::vector<int64_t> codes(n);
  for (size_t i = 0; i < n; ++i) codes[i] = rng.NextInt(0, 999);
  // One short cut list (linear-count path), one long (binary-search path).
  std::vector<int64_t> cuts_short = {100, 400, 999};
  std::vector<int64_t> cuts_long;
  for (int64_t c = 9; c < 1000; c += 10) cuts_long.push_back(c);
  cuts_long.push_back(999);

  std::vector<kernels::BinDimension> dims(2);
  dims[0] = {codes.data(), cuts_short.data(), cuts_short.size(), 100};
  dims[1] = {codes.data(), cuts_long.data(), cuts_long.size(), 1};
  std::vector<uint32_t> flat(n);
  kernels::ComputeCellIds(dims, 0, n, flat.data());
  for (size_t i = 0; i < n; ++i) {
    auto bucket = [&](const std::vector<int64_t>& cuts) {
      return static_cast<uint32_t>(
          std::lower_bound(cuts.begin(), cuts.end(), codes[i]) -
          cuts.begin() + 1);
    };
    EXPECT_EQ(flat[i], bucket(cuts_short) * 100 + bucket(cuts_long))
        << "row " << i;
  }
}

}  // namespace
}  // namespace aqpp
