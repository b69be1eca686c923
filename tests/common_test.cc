#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace aqpp {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  AQPP_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sum_sq = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(19);
  Rng b = a.Fork();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---- Binomial draws --------------------------------------------------------
//
// The support-sparse bootstrap draws its per-resample hit count from
// std::binomial_distribution<uint64_t> driven by Rng; these pin that pairing.

// Pearson chi-square statistic of `draws` against the Binomial(n, p) pmf,
// pooling adjacent values until each bin expects at least 5 draws; `df`
// receives bins - 1.
double BinomialChiSquare(const std::vector<int>& counts, uint64_t n, double p,
                         int draws, int* df) {
  const double dn = static_cast<double>(n);
  auto expected = [&](uint64_t x) {
    const double dx = static_cast<double>(x);
    return draws * std::exp(std::lgamma(dn + 1) - std::lgamma(dx + 1) -
                            std::lgamma(dn - dx + 1) + dx * std::log(p) +
                            (dn - dx) * std::log1p(-p));
  };
  std::vector<std::pair<double, double>> bins;  // (expected, observed)
  double e = 0, o = 0;
  for (uint64_t x = 0; x <= n; ++x) {
    e += expected(x);
    o += counts[x];
    if (e >= 5.0) {
      bins.emplace_back(e, o);
      e = o = 0;
    }
  }
  bins.back().first += e;  // the thin upper tail joins the last bin
  bins.back().second += o;
  double chi2 = 0;
  for (const auto& [be, bo] : bins) chi2 += (bo - be) * (bo - be) / be;
  *df = static_cast<int>(bins.size()) - 1;
  return chi2;
}

TEST(BinomialDrawTest, ChiSquareGoodnessOfFit) {
  struct Case {
    uint64_t n;
    double p;
  };
  // The bootstrap's operating points: a 25k-row sample at 0.1%, 2% and 50%
  // support, plus a small scoring subsample.
  const Case kCases[] = {
      {25000, 0.001}, {25000, 0.02}, {25000, 0.5}, {1562, 0.05}};
  constexpr int kDraws = 20000;
  for (const Case& c : kCases) {
    Rng rng(600 + c.n + static_cast<uint64_t>(c.p * 1000));
    std::binomial_distribution<uint64_t> binomial(c.n, c.p);
    std::vector<int> counts(c.n + 1, 0);
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t x = binomial(rng);
      ASSERT_LE(x, c.n);
      ++counts[x];
    }
    int df = 0;
    const double chi2 = BinomialChiSquare(counts, c.n, c.p, kDraws, &df);
    ASSERT_GT(df, 0);
    // Wilson-Hilferty upper 0.1% point of chi-square(df).
    const double h = 2.0 / (9.0 * df);
    const double critical = df * std::pow(1 - h + 3.09 * std::sqrt(h), 3);
    EXPECT_LT(chi2, critical)
        << "n=" << c.n << " p=" << c.p << " df=" << df;
  }
}

TEST(BinomialDrawTest, DegenerateProbabilities) {
  Rng rng(61);
  std::binomial_distribution<uint64_t> never(25000, 0.0), always(25000, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(never(rng), 0u);
    EXPECT_EQ(always(rng), 25000u);
  }
}

TEST(BinomialDrawTest, FreshDistributionReplaysTheSameDraws) {
  Rng a(62), b(62);
  std::binomial_distribution<uint64_t> first(25000, 0.3), second(25000, 0.3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(first(a), second(b));
}

TEST(SampleWithoutReplacementTest, ReturnsSortedDistinct) {
  Rng rng(23);
  for (size_t n : {10u, 100u, 1000u}) {
    for (size_t k : {1u, 3u, 7u}) {
      auto idx = SampleWithoutReplacement(n, std::min(k, n), rng);
      EXPECT_EQ(idx.size(), std::min(k, n));
      EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
      EXPECT_EQ(std::set<size_t>(idx.begin(), idx.end()).size(), idx.size());
      for (size_t i : idx) EXPECT_LT(i, n);
    }
  }
}

TEST(SampleWithoutReplacementTest, FullDraw) {
  Rng rng(29);
  auto idx = SampleWithoutReplacement(5, 5, rng);
  ASSERT_EQ(idx.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(idx[i], i);
}

TEST(SampleWithoutReplacementTest, UniformInclusion) {
  // Each element should appear with probability k/n.
  Rng rng(31);
  constexpr size_t kN = 20, kK = 5;
  constexpr int kTrials = 20000;
  int counts[kN] = {0};
  for (int t = 0; t < kTrials; ++t) {
    for (size_t i : SampleWithoutReplacement(kN, kK, rng)) ++counts[i];
  }
  double expected = static_cast<double>(kTrials) * kK / kN;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.1);
}

TEST(ShuffleTest, PreservesMultiset) {
  Rng rng(37);
  std::vector<int> v{1, 2, 2, 3, 4, 5};
  auto orig = v;
  Shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---- String utils -----------------------------------------------------------

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("SUM", "sum"));
  EXPECT_FALSE(EqualsIgnoreCase("SUM", "su"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(51.2 * 1024 * 1024), "51.2 MB");
}

TEST(StringUtilTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.6), "600 ms");
  EXPECT_EQ(FormatDuration(1.5), "1.50 sec");
  EXPECT_EQ(FormatDuration(258), "4.3 min");
  EXPECT_EQ(FormatDuration(90000), "25.0 hr");
  EXPECT_EQ(FormatDuration(86400.0 * 3), "3.0 day");
}

// ---- ParallelFor -------------------------------------------------------------

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  constexpr size_t kN = 100000;
  std::vector<int> hits(kN, 0);
  ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, HandlesSmallAndZero) {
  int calls = 0;
  ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  ParallelFor(3, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPoolTest, ReusedAcrossManyRegions) {
  // One pool, many parallel regions: every region must cover each job
  // exactly once (workers are persistent, not respawned per call).
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (int round = 0; round < 50; ++round) {
    constexpr size_t kJobs = 257;
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto& h : hits) h.store(0);
    ParallelForEach(kJobs, [&](size_t j) { hits[j].fetch_add(1); }, &pool);
    for (size_t j = 0; j < kJobs; ++j) ASSERT_EQ(hits[j].load(), 1) << j;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  ParallelForEach(16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }, &pool);
}

TEST(ThreadPoolTest, NestedRegionsFallBackInline) {
  // A parallel region launched from inside a pool worker must not deadlock:
  // the inner region runs inline on the calling worker.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelForEach(8, [&](size_t outer) {
    ParallelForEach(8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    }, &pool);
  }, &pool);
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<size_t> sum{0};
  ParallelForEach(100, [&](size_t j) { sum.fetch_add(j + 1); });
  EXPECT_EQ(sum.load(), 5050u);
}

}  // namespace
}  // namespace aqpp
