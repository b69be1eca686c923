// Online aggregation through AqppEngine::ExecuteOnline: every round is the
// engine's sample estimator over a prefix of one seeded permutation of the
// sample, so the full round is Execute itself and the early rounds are the
// same estimator on fewer rows.

#include <cmath>
#include <cstring>

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

class OnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = MakeSynthetic({.rows = 60000, .dom1 = 100, .dom2 = 50,
                            .seed = 1201});
    engine_ = MakeEngine(/*precompute=*/true, SamplingMethod::kUniform);
    plain_ = MakeEngine(/*precompute=*/false, SamplingMethod::kUniform);
  }
  static void TearDownTestSuite() {
    engine_.reset();
    plain_.reset();
    table_.reset();
  }

  // One template, SUM(a) over c1, on a 10-cell cube.
  static std::unique_ptr<AqppEngine> MakeEngine(bool precompute,
                                                SamplingMethod sampling) {
    EngineOptions opts;
    opts.sample_rate = 0.1;
    opts.cube_budget = 10;
    opts.enable_precompute = precompute;
    opts.sampling = sampling;
    if (sampling == SamplingMethod::kStratified) opts.stratify_columns = {1};
    auto engine = std::move(AqppEngine::Create(table_, opts)).value();
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0};
    AQPP_CHECK_OK(engine->Prepare(tmpl));
    return engine;
  }

  // The cube's c1 cut at 1-based index `idx`.
  static int64_t Cut(size_t idx) {
    return engine_->cube()->scheme().dim(0).CutValue(idx);
  }

  static RangeQuery Query(AggregateFunction func, size_t agg_column,
                          int64_t lo, int64_t hi) {
    RangeQuery q;
    q.func = func;
    q.agg_column = agg_column;
    q.predicate.Add({0, lo, hi});
    return q;
  }

  // Broad and misaligned: identification picks a non-phi pre.
  static RangeQuery PreQuery(AggregateFunction func) {
    return Query(func, 2, Cut(2) + 3, Cut(7) - 2);
  }
  // Two values deep inside one cube cell: every candidate box adds far more
  // difference rows than the query has, so identification keeps phi.
  static RangeQuery PhiQuery(AggregateFunction func) {
    return Query(func, 2, Cut(4) + 4, Cut(4) + 5);
  }

  static Result<std::vector<ProgressiveStep>> Online(
      AqppEngine& engine, const RangeQuery& q, uint64_t seed,
      const CancellationToken* cancel = nullptr) {
    ExecuteControl control;
    control.seed = seed;
    control.record = false;
    control.cancel = cancel;
    return engine.ExecuteOnline(q, control);
  }

  static Result<ApproximateResult> Once(AqppEngine& engine,
                                        const RangeQuery& q, uint64_t seed) {
    ExecuteControl control;
    control.seed = seed;
    control.record = false;
    return engine.Execute(q, control);
  }

  static inline std::shared_ptr<Table> table_;
  static inline std::unique_ptr<AqppEngine> engine_;
  static inline std::unique_ptr<AqppEngine> plain_;
};

constexpr AggregateFunction kStreamable[] = {
    AggregateFunction::kSum, AggregateFunction::kCount,
    AggregateFunction::kAvg, AggregateFunction::kVar};

TEST_F(OnlineTest, QueriesExercisePrePhiAndNoTemplate) {
  auto with_pre = Once(*engine_, PreQuery(AggregateFunction::kSum), 5);
  ASSERT_TRUE(with_pre.ok()) << with_pre.status();
  EXPECT_TRUE(with_pre->used_pre);
  auto phi = Once(*engine_, PhiQuery(AggregateFunction::kSum), 5);
  ASSERT_TRUE(phi.ok()) << phi.status();
  EXPECT_FALSE(phi->used_pre);
  EXPECT_EQ(engine_->RouteFor(Query(AggregateFunction::kSum, 1, 10, 60)), -1);
}

TEST_F(OnlineTest, FullRoundIsExecuteBitForBit) {
  for (AggregateFunction func : kStreamable) {
    const std::vector<std::pair<AqppEngine*, RangeQuery>> cases = {
        {engine_.get(), PreQuery(func)},
        {engine_.get(), PhiQuery(func)},
        // No template on c2; COUNT has none on the plain engine.
        {engine_.get(), Query(func, 1, 10, 60)},
        {plain_.get(), Query(func, 2, 10, 60)},
    };
    for (size_t c = 0; c < cases.size(); ++c) {
      AqppEngine& engine = *cases[c].first;
      const RangeQuery& q = cases[c].second;
      SCOPED_TRACE(std::string(AggregateFunctionToString(func)) + " case " +
                   std::to_string(c));
      for (uint64_t seed : {3u, 77u}) {
        auto once = Once(engine, q, seed);
        auto steps = Online(engine, q, seed);
        ASSERT_TRUE(once.ok()) << once.status();
        ASSERT_TRUE(steps.ok()) << steps.status();
        ASSERT_EQ(steps->size(), 7u);
        const ProgressiveStep& full = steps->back();
        EXPECT_EQ(full.rows_used, engine.sample().size());
        EXPECT_TRUE(SameBits(full.ci.estimate, once->ci.estimate));
        EXPECT_TRUE(SameBits(full.ci.half_width, once->ci.half_width));
        EXPECT_TRUE(SameBits(full.ci.level, once->ci.level));
      }
    }
  }
}

TEST_F(OnlineTest, RoundsFollowTheGeometricScheduleAndTighten) {
  const size_t n = engine_->sample().size();
  for (AggregateFunction func : kStreamable) {
    auto steps = Online(*plain_, Query(func, 2, 15, 65), 2);
    ASSERT_TRUE(steps.ok()) << steps.status();
    ASSERT_EQ(steps->size(), 7u);
    for (size_t i = 0; i < steps->size(); ++i) {
      const double f = std::ldexp(1.0, static_cast<int>(i) - 6);
      EXPECT_EQ((*steps)[i].rows_used,
                static_cast<size_t>(std::llround(f * static_cast<double>(n))));
    }
    EXPECT_LT(steps->back().ci.half_width,
              steps->front().ci.half_width * 0.4)
        << AggregateFunctionToString(func);
  }
}

// COUNT over a prefix estimates N/m times the prefix's matching rows, so the
// matching-row count k_r can be read back from every round. Nested prefixes
// make k_r non-decreasing, growing by at most the rows each round adds; an
// independent draw per round would break that across these queries.
TEST_F(OnlineTest, RoundsAreNestedPrefixes) {
  const double population = static_cast<double>(table_->num_rows());
  for (int64_t lo = 1; lo <= 91; lo += 10) {
    RangeQuery q = Query(AggregateFunction::kCount, 2, lo, lo + 4);
    auto steps = Online(*plain_, q, 11);
    ASSERT_TRUE(steps.ok()) << steps.status();
    long long prev_k = 0;
    size_t prev_m = 0;
    for (const ProgressiveStep& s : *steps) {
      const long long k = std::llround(
          s.ci.estimate * static_cast<double>(s.rows_used) / population);
      EXPECT_GE(k, prev_k) << "lo=" << lo << " m=" << s.rows_used;
      EXPECT_LE(k - prev_k, static_cast<long long>(s.rows_used - prev_m));
      prev_k = k;
      prev_m = s.rows_used;
    }
  }
}

TEST_F(OnlineTest, SameSeedSameBitsDifferentSeedDifferentStream) {
  for (AggregateFunction func : kStreamable) {
    RangeQuery q = PreQuery(func);
    auto s1 = Online(*engine_, q, 42);
    auto s2 = Online(*engine_, q, 42);
    auto s3 = Online(*engine_, q, 43);
    ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
    ASSERT_EQ(s1->size(), s2->size());
    for (size_t i = 0; i < s1->size(); ++i) {
      EXPECT_EQ((*s1)[i].rows_used, (*s2)[i].rows_used);
      EXPECT_TRUE(SameBits((*s1)[i].ci.estimate, (*s2)[i].ci.estimate));
      EXPECT_TRUE(SameBits((*s1)[i].ci.half_width, (*s2)[i].ci.half_width));
    }
    // Another seed draws another order, so an early round differs.
    bool any_diff = false;
    for (size_t i = 0; i + 1 < s1->size(); ++i) {
      any_diff |= !SameBits((*s1)[i].ci.estimate, (*s3)[i].ci.estimate);
    }
    EXPECT_TRUE(any_diff) << AggregateFunctionToString(func);
  }
}

TEST_F(OnlineTest, StoppedTokenYieldsExactlyTheFirstRound) {
  CancellationToken stopped;
  stopped.Cancel();
  for (AggregateFunction func : kStreamable) {
    RangeQuery q = PreQuery(func);
    auto first = Online(*engine_, q, 9, &stopped);
    auto all = Online(*engine_, q, 9);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(all.ok()) << all.status();
    ASSERT_EQ(first->size(), 1u);
    EXPECT_EQ(first->front().rows_used, all->front().rows_used);
    EXPECT_LT(first->front().rows_used, engine_->sample().size());
    EXPECT_TRUE(SameBits(first->front().ci.estimate, all->front().ci.estimate));
    EXPECT_TRUE(
        SameBits(first->front().ci.half_width, all->front().ci.half_width));
  }
}

TEST_F(OnlineTest, RefusesWhatCannotStream) {
  auto stratified = MakeEngine(/*precompute=*/true,
                               SamplingMethod::kStratified);
  EXPECT_EQ(Online(*stratified, PreQuery(AggregateFunction::kSum), 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Online(*engine_, PreQuery(AggregateFunction::kMax), 1)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  RangeQuery grouped = PreQuery(AggregateFunction::kSum);
  grouped.group_by = {1};
  EXPECT_EQ(Online(*engine_, grouped, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OnlineTest, AlignedQueryStreamsExactZeroWidthRounds) {
  // (Cut(2), Cut(6)] is a union of whole cube cells: the difference support
  // is empty in every prefix, so each round reports the exact pre with zero
  // width. QueryService::OnlineRounds relies on this when it treats a zero
  // width short of the full sample as "no evidence yet" for misaligned
  // queries.
  ExactExecutor exact(table_.get());
  for (AggregateFunction func : {AggregateFunction::kSum,
                                 AggregateFunction::kCount}) {
    RangeQuery q = Query(func, 2, Cut(2) + 1, Cut(6));
    const double truth = *exact.Execute(q);
    auto steps = Online(*engine_, q, 10);
    ASSERT_TRUE(steps.ok()) << steps.status();
    ASSERT_EQ(steps->size(), 7u);
    for (const ProgressiveStep& s : *steps) {
      EXPECT_EQ(s.ci.half_width, 0.0);
      EXPECT_NEAR(s.ci.estimate, truth, std::fabs(truth) * 1e-9);
    }
  }
}

TEST_F(OnlineTest, PreTightensEveryRoundAndTheStreamCovers) {
  ExactExecutor exact(table_.get());
  RangeQuery q = PreQuery(AggregateFunction::kSum);
  const double truth = *exact.Execute(q);
  auto plain = Online(*plain_, q, 6);
  auto aqpp = Online(*engine_, q, 6);
  ASSERT_TRUE(plain.ok() && aqpp.ok());
  ASSERT_EQ(plain->size(), aqpp->size());
  size_t tighter = 0;
  size_t covered = 0;
  for (size_t i = 0; i < aqpp->size(); ++i) {
    if ((*aqpp)[i].ci.half_width < (*plain)[i].ci.half_width * 0.9) ++tighter;
    if ((*aqpp)[i].ci.Contains(truth)) ++covered;
  }
  EXPECT_GE(tighter, aqpp->size() - 1);
  // 95% per round; allow one miss along the stream.
  EXPECT_GE(covered + 1, aqpp->size());
}

}  // namespace
}  // namespace aqpp
