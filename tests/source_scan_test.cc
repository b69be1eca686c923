// Zone-map-pruning equivalence: scans over a ColumnSource — in-memory or
// extent-backed, pruned or not, at any thread count — must produce answers
// bit-identical to ExactExecutor over the materialized table. Pruning may
// only change which code runs, never the result bits.

#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "exec/executor.h"
#include "kernels/source_scan.h"
#include "storage/column_source.h"
#include "storage/extent_file.h"
#include "test_util.h"

namespace aqpp {
namespace {

using kernels::ExecuteQueryOnSource;
using kernels::ScanAggregateSource;
using kernels::SourceScanOptions;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class SourceScanTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 3 * kExtentRows + 7777;  // 4 extents, ragged
  static constexpr int64_t kDomain = 1000;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aqpp_source_scan_test";
    std::filesystem::create_directories(dir_);

    // k is clustered by row position (so extent zone maps are selective),
    // u is uniform (zone maps cover the whole domain — never prunable),
    // s is a low-cardinality string, a is the double measure.
    Schema schema({{"k", DataType::kInt64},
                   {"u", DataType::kInt64},
                   {"s", DataType::kString},
                   {"a", DataType::kDouble}});
    table_ = std::make_shared<Table>(schema);
    Rng rng(testutil::TestSeed(201));
    for (size_t i = 0; i < kRows; ++i) {
      int64_t k = static_cast<int64_t>(i * kDomain / kRows) + rng.NextInt(0, 2);
      table_->AddRow()
          .Int64(std::min<int64_t>(k, kDomain - 1))
          .Int64(rng.NextInt(0, kDomain - 1))
          .String(i % 5 == 0 ? "aa" : (i % 5 < 3 ? "bb" : "cc"))
          .Double(rng.NextDouble() * 10.0 - 5.0);
    }
    table_->FinalizeDictionaries();

    path_ = (dir_ / "t.ext").string();
    ASSERT_TRUE(WriteExtentFile(*table_, path_).ok());
    auto reader = ExtentFileReader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = *reader;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Asserts that every source/pruning/thread-count combination reproduces
  // the ExactExecutor answer bit for bit (or that all of them fail when the
  // oracle fails, e.g. MIN over an empty selection).
  void ExpectEquivalent(const RangeQuery& q) {
    ExactExecutor exact(table_.get());
    auto oracle = exact.Execute(q);

    TableColumnSource mem(table_.get());
    ExtentColumnSource ext(reader_);
    ColumnSource* sources[] = {&mem, &ext};
    for (ColumnSource* src : sources) {
      for (bool prune : {true, false}) {
        for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
          ThreadPool pool(threads);
          SourceScanOptions opts;
          opts.zone_map_pruning = prune;
          opts.pool = &pool;
          opts.parallel = threads > 1;
          auto got = ExecuteQueryOnSource(*src, q, opts);
          std::string label =
              std::string(src == &mem ? "table" : "extent") +
              (prune ? "/pruned" : "/unpruned") + "/threads=" +
              std::to_string(threads) + " " + q.ToString(table_->schema());
          if (!oracle.ok()) {
            EXPECT_FALSE(got.ok()) << label;
            continue;
          }
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          EXPECT_EQ(Bits(*got), Bits(*oracle))
              << label << " got " << *got << " want " << *oracle;
        }
      }
    }
  }

  std::filesystem::path dir_;
  std::string path_;
  std::shared_ptr<Table> table_;
  std::shared_ptr<ExtentFileReader> reader_;
};

TEST_F(SourceScanTest, SelectivePredicateSkipsExtentsAndMatchesUnpruned) {
  // ~2% window of the clustered key: all but one or two extents are
  // zone-disproved. The pruned scan must skip them yet return the same bits.
  std::vector<RangeCondition> conds = {{0, 500, 519}};
  ExtentColumnSource ext(reader_);
  auto pruned = ScanAggregateSource(ext, conds, 3, kernels::ScanProfile::kSum);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_GT(pruned->extents_skipped, 0u);
  EXPECT_EQ(pruned->extents_total, ext.num_extents());

  SourceScanOptions no_prune;
  no_prune.zone_map_pruning = false;
  auto full = ScanAggregateSource(ext, conds, 3, kernels::ScanProfile::kSum,
                                  no_prune);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->extents_skipped, 0u);
  EXPECT_EQ(Bits(pruned->stats.sum), Bits(full->stats.sum));
  EXPECT_EQ(pruned->stats.count, full->stats.count);
}

TEST_F(SourceScanTest, NeverMatchingPredicateSkipsEverything) {
  ExtentColumnSource ext(reader_);
  // Outside the domain entirely: every extent is zone-disproved.
  std::vector<RangeCondition> conds = {{0, kDomain + 10, kDomain + 20}};
  auto r = ScanAggregateSource(ext, conds, 3, kernels::ScanProfile::kSum);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->extents_skipped, r->extents_total);
  EXPECT_EQ(r->stats.count, 0.0);
  EXPECT_EQ(r->stats.sum, 0.0);
}

TEST_F(SourceScanTest, FuzzEquivalenceAcrossSourcesPruningAndThreads) {
  Rng rng(testutil::TestSeed(202));
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kVar};
  for (int trial = 0; trial < 24; ++trial) {
    RangeQuery q;
    q.func = funcs[trial % 4];
    q.agg_column = 3;
    // Mix selective windows on the clustered key, conditions on the uniform
    // column (never prunable), and occasional string-code conditions.
    int64_t lo = rng.NextInt(0, kDomain - 1);
    int64_t width = rng.NextInt(0, trial % 3 == 0 ? 20 : kDomain / 2);
    q.predicate.Add({0, lo, std::min(lo + width, kDomain - 1)});
    if (trial % 2 == 0) {
      int64_t ulo = rng.NextInt(0, kDomain - 1);
      q.predicate.Add({1, ulo, ulo + rng.NextInt(0, kDomain)});
    }
    if (trial % 3 == 0) q.predicate.Add({2, 0, rng.NextInt(0, 2)});
    ExpectEquivalent(q);
  }
}

TEST_F(SourceScanTest, EdgeCaseQueriesMatchOracle) {
  for (AggregateFunction f :
       {AggregateFunction::kCount, AggregateFunction::kSum,
        AggregateFunction::kAvg, AggregateFunction::kVar,
        AggregateFunction::kMin, AggregateFunction::kMax}) {
    RangeQuery q;
    q.func = f;
    q.agg_column = 3;

    // Unconstrained (empty predicate).
    ExpectEquivalent(q);

    // Full-range condition — bind-time elision must kick in identically.
    q.predicate = RangePredicate({{0, 0, kDomain}});
    ExpectEquivalent(q);

    // Empty selection (lo > hi): COUNT/SUM/AVG/VAR are 0, MIN/MAX error.
    q.predicate = RangePredicate({{0, 5, 4}});
    ExpectEquivalent(q);

    // Single-value selection at the domain edge.
    q.predicate = RangePredicate({{0, 0, 0}});
    ExpectEquivalent(q);
  }
}

// Both exact paths share one answer contract (kernels/scan.h). Pin its
// error codes and messages byte for byte: an empty predicate (lo > hi)
// short-circuits before any scan, a valid range that selects no rows fails
// in the stats mapping, and both paths must say the same thing.
TEST_F(SourceScanTest, EmptyPredicateAndEmptySelectionShareOneContract) {
  struct Case {
    AggregateFunction func;
    RangePredicate predicate;
    const char* message;  // nullptr: the answer is 0
  };
  const RangePredicate empty_predicate({{0, 5, 4}});
  const RangePredicate empty_selection({{0, kDomain + 10, kDomain + 20}});
  const char* kMinMax = "MIN/MAX over empty selection";
  const Case cases[] = {
      {AggregateFunction::kMin, empty_predicate, kMinMax},
      {AggregateFunction::kMax, empty_predicate, kMinMax},
      {AggregateFunction::kMin, empty_selection, "MIN over empty selection"},
      {AggregateFunction::kMax, empty_selection, "MAX over empty selection"},
      {AggregateFunction::kCount, empty_predicate, nullptr},
      {AggregateFunction::kSum, empty_selection, nullptr},
      {AggregateFunction::kAvg, empty_selection, nullptr},
      {AggregateFunction::kVar, empty_predicate, nullptr},
  };
  ExactExecutor exact(table_.get());
  ExtentColumnSource ext(reader_);
  for (const Case& c : cases) {
    RangeQuery q;
    q.func = c.func;
    q.agg_column = 3;
    q.predicate = c.predicate;
    const std::string label = q.ToString(table_->schema());
    auto want = exact.Execute(q);
    auto got = ExecuteQueryOnSource(ext, q);
    if (c.message == nullptr) {
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      EXPECT_EQ(*want, 0.0) << label;
      EXPECT_EQ(Bits(*got), Bits(*want)) << label;
      continue;
    }
    ASSERT_FALSE(want.ok()) << label;
    ASSERT_FALSE(got.ok()) << label;
    EXPECT_EQ(want.status().code(), StatusCode::kFailedPrecondition) << label;
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(want.status().message(), c.message) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
  }
}

TEST_F(SourceScanTest, MinMaxOverClusteredWindow) {
  RangeQuery q;
  q.func = AggregateFunction::kMin;
  q.agg_column = 3;
  q.predicate = RangePredicate({{0, 100, 149}});
  ExpectEquivalent(q);
  q.func = AggregateFunction::kMax;
  ExpectEquivalent(q);
}

}  // namespace
}  // namespace aqpp
