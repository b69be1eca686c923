// Statistical-correctness battery: empirical confidence-interval coverage.
//
// The paper's correctness claim is that the reported 95% CI covers the true
// aggregate with (about) the nominal probability. For each template shape
// (SUM/COUNT/AVG x d in {1,2}) this suite runs >= 200 seeded (dataset, query)
// draws, executes both the plain-sample estimator (AQP) and the AQP++
// engine, and checks the empirical coverage against a binomial tolerance
// band around the nominal level.
//
// Band construction: with n = 200 draws at p = 0.95 the binomial sd is
// sqrt(.95*.05/200) ~= 0.0154, so a z = 4 band is ~0.062 wide — at n = 200
// the upper edge exceeds 1, so only the lower edge binds. Two systematic
// effects push realized coverage below nominal and get an explicit bias
// allowance on top of the sampling band:
//  * CLT/bootstrap approximation error at ~10-100 predicate rows per sample
//    (affects both estimators; small, a few points).
//  * Winner's curse in aggregate identification: AQP++ picks the candidate
//    with the smallest *estimated* interval, so the chosen interval is
//    biased short (Section 5; the integration suite documents the same
//    effect). This costs AQP++ several points of coverage that plain AQP
//    does not pay.
//
// Draw count is overridable with AQPP_COVERAGE_DRAWS (e.g. 1000 for a
// tighter band in a nightly job); seeds route through testutil::TestSeed so
// AQPP_TEST_SEED reproduces any failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "expr/query.h"
#include "service/service.h"
#include "shard/partial.h"
#include "synopsis/synopsis.h"
#include "test_util.h"
#include "workload/query_gen.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

int CoverageDraws() {
  const char* env = std::getenv("AQPP_COVERAGE_DRAWS");
  if (env == nullptr || env[0] == '\0') return 200;
  int n = std::atoi(env);
  return n > 0 ? n : 200;
}

struct ShapeParam {
  AggregateFunction func;
  int dims;
};

std::string ShapeName(const ::testing::TestParamInfo<ShapeParam>& info) {
  return std::string(AggregateFunctionToString(info.param.func)) + "_d" +
         std::to_string(info.param.dims);
}

class CoverageTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(CoverageTest, EmpiricalCoverageWithinBinomialBand) {
  const auto [func, dims] = GetParam();
  const int draws = CoverageDraws();
  const int datasets = 10;
  const int per_dataset = (draws + datasets - 1) / datasets;

  // One master stream per shape; every dataset/engine/query seed derives
  // from it, so AQPP_TEST_SEED alone reproduces the whole battery.
  uint64_t shape_tag = 7000 + static_cast<uint64_t>(func) * 10 +
                       static_cast<uint64_t>(dims);
  Rng master = testutil::MakeTestRng(shape_tag);

  int total = 0;
  int aqpp_hits = 0;
  int plain_hits = 0;

  for (int ds = 0; ds < datasets && total < draws; ++ds) {
    // Alternate the iid and correlated regimes so coverage is not an
    // artifact of one variance structure.
    auto table = MakeSynthetic({.rows = 2500,
                                .dom1 = 100,
                                .dom2 = 50,
                                .correlated = (ds % 2 == 1),
                                .seed = master.Next()});
    ExactExecutor exact(table.get());

    QueryTemplate tmpl;
    tmpl.func = func;
    tmpl.agg_column = 2;
    tmpl.condition_columns = dims == 1 ? std::vector<size_t>{0}
                                       : std::vector<size_t>{0, 1};

    EngineOptions opts;
    opts.sample_rate = 0.1;
    opts.cube_budget = dims == 1 ? 64 : 512;
    opts.confidence_level = 0.95;
    opts.seed = master.Next();
    auto aqpp = std::move(AqppEngine::Create(table, opts)).value();
    ASSERT_TRUE(aqpp->Prepare(tmpl).ok());

    EngineOptions plain_opts = opts;
    plain_opts.enable_precompute = false;
    plain_opts.seed = opts.seed;  // same sample as the AQP++ engine
    auto plain = std::move(AqppEngine::Create(table, plain_opts)).value();
    ASSERT_TRUE(plain->Prepare(tmpl).ok());

    for (int t = 0; t < per_dataset && total < draws; ++t) {
      // Wide-ish random ranges: enough predicate rows land in the 250-row
      // sample for the CLT/bootstrap machinery to be in its regime.
      RangeQuery q;
      q.func = func;
      q.agg_column = 2;
      {
        int64_t width = master.NextInt(30, 60);
        int64_t lo = master.NextInt(1, 100 - width);
        q.predicate.Add({0, lo, lo + width});
      }
      if (dims == 2) {
        int64_t width = master.NextInt(20, 40);
        int64_t lo = master.NextInt(1, 50 - width);
        q.predicate.Add({1, lo, lo + width});
      }
      double truth = *exact.Execute(q);

      ExecuteControl control;
      control.seed = master.Next();
      control.record = false;
      auto ar = aqpp->Execute(q, control);
      ASSERT_TRUE(ar.ok()) << ar.status();
      auto pr = plain->Execute(q, control);
      ASSERT_TRUE(pr.ok()) << pr.status();

      ++total;
      if (std::fabs(ar->ci.estimate - truth) <=
          ar->ci.half_width * (1 + 1e-12) + 1e-9) {
        ++aqpp_hits;
      }
      if (std::fabs(pr->ci.estimate - truth) <=
          pr->ci.half_width * (1 + 1e-12) + 1e-9) {
        ++plain_hits;
      }
    }
  }

  ASSERT_GE(total, std::min(draws, 200));
  const double aqpp_cov = static_cast<double>(aqpp_hits) / total;
  const double plain_cov = static_cast<double>(plain_hits) / total;
  // Always print the measured coverage: a passing-but-drifting value is the
  // early warning this suite exists for.
  std::fprintf(stderr,
               "[coverage] %s d=%d n=%d aqpp=%.3f plain=%.3f\n",
               AggregateFunctionToString(func), dims, total, aqpp_cov,
               plain_cov);

  const double nominal = 0.95;
  const double sd = std::sqrt(nominal * (1 - nominal) / total);
  // Plain AQP pays only the sampling band plus a CLT/bootstrap
  // approximation allowance (calibrated: worst observed 0.835 over 20 seeds
  // x 6 shapes, COUNT d=1 where the discrete count CI bites hardest).
  EXPECT_GE(plain_cov, nominal - 4 * sd - 0.07)
      << "plain-sample estimator undercovers: " << plain_cov;
  // AQP++ additionally pays the identification winner's curse (see header
  // comment): calibrated across shapes and seeds the realized coverage sits
  // around 0.75-0.87 here (worst shape SUM d=1, where the 64-cell cube makes
  // candidate scoring noisiest; worst observed 0.710 over 20 seeds x 6
  // shapes), so the allowance is 0.22 — the same ~0.70 effective floor the
  // integration suite asserts.
  EXPECT_GE(aqpp_cov, nominal - 4 * sd - 0.22)
      << "AQP++ estimator undercovers: " << aqpp_cov;
  // Upper edge: at n = 200 the binomial band tops out above 1.0, so only a
  // sanity cap applies (a CI that always covers is suspicious only once the
  // band is tighter than ~1 - 1/n).
  EXPECT_LE(aqpp_cov, 1.0);
  EXPECT_LE(plain_cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoverageTest,
    ::testing::Values(ShapeParam{AggregateFunction::kSum, 1},
                      ShapeParam{AggregateFunction::kSum, 2},
                      ShapeParam{AggregateFunction::kCount, 1},
                      ShapeParam{AggregateFunction::kCount, 2},
                      ShapeParam{AggregateFunction::kAvg, 1},
                      ShapeParam{AggregateFunction::kAvg, 2}),
    ShapeName);

// ---- Online-mode rounds -----------------------------------------------------
//
// MODE ONLINE streams QueryService::OnlineRounds to the client as PROGRESS
// lines. Three statistical contracts, asserted across datasets and random
// queries:
//
//  1. Per-session rounds never widen (the stream only refines) and a
//     zero-width round appears only at the full sample, where it certifies
//     an exact cube-aligned answer.
//  2. Rounds are a deterministic function of the canonical query: asking
//     again streams bit-identical rounds.
//  3. The last round — the tightest interval the stream commits to — covers
//     the exact ground truth at a rate inside a calibrated band around the
//     nominal level.
TEST(OnlineCoverageTest, RoundsRefineDeterministicallyAndFinalRoundCovers) {
  const int datasets = 6;
  const int per_dataset = 40;
  Rng master = testutil::MakeTestRng(7600);

  int total = 0;
  int hits = 0;
  for (int ds = 0; ds < datasets; ++ds) {
    auto table = MakeSynthetic({.rows = 2500,
                                .dom1 = 100,
                                .dom2 = 50,
                                .correlated = (ds % 2 == 1),
                                .seed = master.Next()});
    ExactExecutor exact(table.get());
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0, 1};
    EngineOptions opts;
    opts.sample_rate = 0.1;
    opts.cube_budget = 512;
    opts.confidence_level = 0.95;
    opts.seed = master.Next();
    auto engine = std::move(AqppEngine::Create(table, opts)).value();
    ASSERT_TRUE(engine->Prepare(tmpl).ok());
    QueryService service{engine.get()};
    auto session = service.sessions().Open("online-coverage");
    ASSERT_TRUE(session.ok());
    const uint64_t sid = (*session)->id();
    const size_t sample_rows = engine->sample().size();

    for (int t = 0; t < per_dataset; ++t) {
      RangeQuery q;
      q.func = AggregateFunction::kSum;
      q.agg_column = 2;
      {
        int64_t width = master.NextInt(30, 60);
        int64_t lo = master.NextInt(1, 100 - width);
        q.predicate.Add({0, lo, lo + width});
      }
      {
        int64_t width = master.NextInt(20, 40);
        int64_t lo = master.NextInt(1, 50 - width);
        q.predicate.Add({1, lo, lo + width});
      }
      double truth = *exact.Execute(q);

      std::vector<ProgressiveStep> rounds;
      ASSERT_TRUE(service.OnlineRounds(sid, q, &rounds).ok());
      ASSERT_FALSE(rounds.empty());
      for (size_t i = 0; i < rounds.size(); ++i) {
        if (i > 0) {
          EXPECT_LE(rounds[i].ci.half_width, rounds[i - 1].ci.half_width)
              << "round " << i << " widened";
          EXPECT_GT(rounds[i].rows_used, rounds[i - 1].rows_used);
        }
        if (rounds[i].ci.half_width == 0.0) {
          EXPECT_EQ(rounds[i].rows_used, sample_rows)
              << "zero-width round short of the full sample leaked through";
        }
      }
      if (t == 0) {
        std::vector<ProgressiveStep> again;
        ASSERT_TRUE(service.OnlineRounds(sid, q, &again).ok());
        ASSERT_EQ(rounds.size(), again.size());
        for (size_t i = 0; i < rounds.size(); ++i) {
          EXPECT_EQ(std::memcmp(&rounds[i].ci.estimate,
                                &again[i].ci.estimate, sizeof(double)),
                    0);
          EXPECT_EQ(std::memcmp(&rounds[i].ci.half_width,
                                &again[i].ci.half_width, sizeof(double)),
                    0);
        }
      }
      ++total;
      const auto& last = rounds.back();
      if (std::fabs(last.ci.estimate - truth) <=
          last.ci.half_width * (1 + 1e-12) + 1e-9) {
        ++hits;
      }
    }
    service.Stop();
  }

  ASSERT_GT(total, 0);
  const double cov = static_cast<double>(hits) / total;
  std::fprintf(stderr, "[coverage] online-rounds n=%d cov=%.3f\n", total, cov);
  const double nominal = 0.95;
  const double sd = std::sqrt(nominal * (1 - nominal) / total);
  // The last round is the full-sample difference estimator under the
  // identified pre, so it pays the same winner's-curse allowance the main
  // AQP++ battery grants (see the band rationale above).
  EXPECT_GE(cov, nominal - 4 * sd - 0.22)
      << "online final round undercovers: " << cov;
  EXPECT_LE(cov, 1.0);
}

// ---- Shard-merge coverage --------------------------------------------------
//
// The scatter-gather tier's merged answer is a stratified-by-shard estimator
// (src/shard/partial.h): each shard is one stratum, reporting Welford
// moments of its per-row match/value series over an independent per-shard
// sample; MergePartials folds est = sum_h N_h * mean_h,
// var = sum_h N_h^2 s_h^2 / n_h. Its nominal-coverage claim deserves the
// same empirical check as the single-engine estimators — and it must hold
// at every shard count, since sharding is supposed to be statistically
// invisible. Strata here are built directly from table slices (with-
// replacement per-stratum draws, so the CLT variance is the exact sampling
// variance and only the normal approximation separates realized from
// nominal coverage).

struct ShardShapeParam {
  AggregateFunction func;
  size_t shards;
};

std::string ShardShapeName(
    const ::testing::TestParamInfo<ShardShapeParam>& info) {
  return std::string(AggregateFunctionToString(info.param.func)) + "_s" +
         std::to_string(info.param.shards);
}

class ShardCoverageTest : public ::testing::TestWithParam<ShardShapeParam> {};

TEST_P(ShardCoverageTest, MergedStratifiedEstimatorCoversNominally) {
  const auto [func, shards] = GetParam();
  const int draws = CoverageDraws();
  const int datasets = 10;
  const int per_dataset = (draws + datasets - 1) / datasets;
  const size_t per_stratum_sample = 100;

  uint64_t shape_tag = 8000 + static_cast<uint64_t>(func) * 10 +
                       static_cast<uint64_t>(shards);
  Rng master = testutil::MakeTestRng(shape_tag);

  int total = 0;
  int hits = 0;
  for (int ds = 0; ds < datasets && total < draws; ++ds) {
    auto table = MakeSynthetic({.rows = 4000,
                                .dom1 = 100,
                                .dom2 = 50,
                                .correlated = (ds % 2 == 1),
                                .seed = master.Next()});
    ExactExecutor exact(table.get());
    const auto& c1 = table->column(0).Int64Data();
    const auto& a = table->column(2).DoubleData();
    const size_t rows = table->num_rows();

    for (int t = 0; t < per_dataset && total < draws; ++t) {
      RangeQuery q;
      q.func = func;
      q.agg_column = 2;
      {
        int64_t width = master.NextInt(30, 60);
        int64_t lo = master.NextInt(1, 100 - width);
        q.predicate.Add({0, lo, lo + width});
      }
      double truth = *exact.Execute(q);

      // One partial per shard: contiguous row slices as strata, an
      // independent with-replacement sample per stratum, Welford moments of
      // c_i = match_i and s_i = match_i * a_i.
      std::vector<std::optional<shard::ShardPartial>> partials(shards);
      for (size_t h = 0; h < shards; ++h) {
        const size_t begin = rows * h / shards;
        const size_t end = rows * (h + 1) / shards;
        double n = 0, mean_c = 0, m2_c = 0, mean_s = 0, m2_s = 0;
        for (size_t k = 0; k < per_stratum_sample; ++k) {
          const size_t row =
              begin + static_cast<size_t>(master.NextInt(
                          0, static_cast<int64_t>(end - begin - 1)));
          const double match =
              q.predicate.conditions()[0].Matches(c1[row]) ? 1.0 : 0.0;
          const double s = match * a[row];
          n += 1.0;
          double dc = match - mean_c;
          mean_c += dc / n;
          m2_c += dc * (match - mean_c);
          double dsv = s - mean_s;
          mean_s += dsv / n;
          m2_s += dsv * (s - mean_s);
        }
        shard::ShardPartial p;
        p.shard_index = static_cast<uint32_t>(h);
        p.num_shards = static_cast<uint32_t>(shards);
        p.rows = end - begin;
        p.has_sample = true;
        p.stratum.sample_rows = per_stratum_sample;
        p.stratum.population_rows = end - begin;
        p.stratum.mean_c = mean_c;
        p.stratum.mean_s = mean_s;
        p.stratum.var_c = m2_c / (n - 1.0);
        p.stratum.var_s = m2_s / (n - 1.0);
        partials[h] = std::move(p);
      }

      shard::MergeOptions mopt;
      mopt.mode = shard::MergeMode::kSample;
      mopt.total_rows = rows;
      auto merged = shard::MergePartials(q, partials, mopt);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ASSERT_FALSE(merged->degraded);

      ++total;
      if (std::fabs(merged->ci.estimate - truth) <=
          merged->ci.half_width * (1 + 1e-12) + 1e-9) {
        ++hits;
      }
    }
  }

  ASSERT_GE(total, std::min(draws, 200));
  const double cov = static_cast<double>(hits) / total;
  std::fprintf(stderr, "[coverage] shard-merge %s shards=%zu n=%d cov=%.3f\n",
               AggregateFunctionToString(func), shards, total, cov);

  const double nominal = 0.95;
  const double sd = std::sqrt(nominal * (1 - nominal) / total);
  // With-replacement strata make the variance formula exact, so the only
  // systematic allowance is the normal approximation at ~100 draws per
  // stratum (a few points at most, worst for the discrete COUNT series).
  EXPECT_GE(cov, nominal - 4 * sd - 0.05)
      << "merged stratified estimator undercovers: " << cov;
  EXPECT_LE(cov, 1.0);
}

// ---- Synopsis coverage ------------------------------------------------------
//
// Every registered synopsis kind must hold its nominal-coverage claim on its
// own — direct estimation over a table, no cube, no identification — across
// SUM/COUNT/AVG and across both the friendly synthetic workload and the
// adversarial generators (workload/query_gen.h: Pareto and lognormal heavy
// tails, duplicate-heavy near-zero-variance measures, correlated
// predicates). The adversarial lane is the battery's point: a synopsis whose
// CIs only hold on Gaussian data fails here, and the allowance it gets is
// explicitly larger because heavy tails genuinely defeat small-sample
// CLT/bootstrap intervals by a calibrated, bounded amount — not unboundedly.
//
// Calibrated allowances (20 seeds x all combos at 200 draws):
//  * standard: worst observed 0.856 (grouped AVG — per-bubble subsamples put
//    only a few rows behind each group's residual estimate), so 0.12 on top
//    of the binomial band.
//  * adversarial: worst observed ~0.70 (duplicate-heavy SUM/AVG, where a
//    bubble/stratum whose sample missed every rare 1000-valued row reports
//    near-zero variance; the classic hard case) => 0.27 allowance. The
//    nightly 1000-draw soak tightens the binomial term and keeps the same
//    allowances, so systematic regressions still surface there.

struct SynopsisShapeParam {
  std::string kind;
  AggregateFunction func;
  bool adversarial;
};

std::string SynopsisShapeName(
    const ::testing::TestParamInfo<SynopsisShapeParam>& info) {
  return info.param.kind + "_" +
         std::string(AggregateFunctionToString(info.param.func)) +
         (info.param.adversarial ? "_adv" : "_std");
}

std::vector<SynopsisShapeParam> AllSynopsisShapes() {
  std::vector<SynopsisShapeParam> shapes;
  for (const std::string& kind : synopsis::RegisteredSynopses()) {
    for (AggregateFunction func :
         {AggregateFunction::kSum, AggregateFunction::kCount,
          AggregateFunction::kAvg}) {
      for (bool adversarial : {false, true}) {
        shapes.push_back({kind, func, adversarial});
      }
    }
  }
  return shapes;
}

class SynopsisCoverageTest
    : public ::testing::TestWithParam<SynopsisShapeParam> {};

TEST_P(SynopsisCoverageTest, EmpiricalCoverageWithinBinomialBand) {
  const auto& [kind, func, adversarial] = GetParam();
  const int draws = CoverageDraws();
  const int datasets = 10;
  const int per_dataset = (draws + datasets - 1) / datasets;

  // Deterministic per-shape master stream (FNV-style fold of the kind name
  // keeps tags distinct without std::hash's platform dependence).
  uint64_t shape_tag = 9600 + static_cast<uint64_t>(func) * 10 +
                       (adversarial ? 5 : 0);
  for (char c : kind) {
    shape_tag = shape_tag * 31 + static_cast<unsigned char>(c);
  }
  Rng master = testutil::MakeTestRng(shape_tag);

  int total = 0;
  int hits = 0;
  for (int ds = 0; ds < datasets && total < draws; ++ds) {
    std::shared_ptr<Table> table;
    if (adversarial) {
      AdversarialTableOptions aopt;
      aopt.distribution =
          AllAdversarialDistributions()[static_cast<size_t>(ds) % 4];
      aopt.rows = 2500;
      aopt.seed = master.Next();
      table = MakeAdversarialTable(aopt);
    } else {
      table = MakeSynthetic({.rows = 2500,
                             .dom1 = 100,
                             .dom2 = 50,
                             .correlated = (ds % 2 == 1),
                             .seed = master.Next()});
    }
    ExactExecutor exact(table.get());

    synopsis::SynopsisOptions sopt;
    sopt.confidence_level = 0.95;
    sopt.sample_rate = 0.2;
    // Key on c2 (domain 50): ~10 sampled rows per stratum/bubble, enough
    // for per-stratum variance everywhere.
    sopt.key_columns = {1};
    sopt.measure_column = 2;
    sopt.seed = master.Next();
    auto created = synopsis::CreateSynopsis(kind, sopt);
    ASSERT_TRUE(created.ok()) << created.status();
    auto syn = std::move(created).value();
    ASSERT_TRUE(syn->BuildFromTable(*table).ok());

    for (int t = 0; t < per_dataset && total < draws; ++t) {
      RangeQuery q;
      q.func = func;
      q.agg_column = 2;
      {
        int64_t width = master.NextInt(30, 60);
        int64_t lo = master.NextInt(1, 100 - width);
        q.predicate.Add({0, lo, lo + width});
      }
      double truth = *exact.Execute(q);

      ExecuteControl control;
      control.seed = master.Next();
      control.record = false;
      auto ci = syn->Estimate(q, control);
      ASSERT_TRUE(ci.ok()) << ci.status();

      ++total;
      if (std::fabs(ci->estimate - truth) <=
          ci->half_width * (1 + 1e-12) + 1e-9) {
        ++hits;
      }
    }
  }

  ASSERT_GE(total, std::min(draws, 200));
  const double cov = static_cast<double>(hits) / total;
  std::fprintf(stderr, "[coverage] synopsis %s %s %s n=%d cov=%.3f\n",
               kind.c_str(), AggregateFunctionToString(func),
               adversarial ? "adversarial" : "standard", total, cov);

  const double nominal = 0.95;
  const double sd = std::sqrt(nominal * (1 - nominal) / total);
  const double allowance = adversarial ? 0.27 : 0.12;
  EXPECT_GE(cov, nominal - 4 * sd - allowance)
      << kind << " undercovers on the "
      << (adversarial ? "adversarial" : "standard") << " workload: " << cov;
  EXPECT_LE(cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(SynopsisShapes, SynopsisCoverageTest,
                         ::testing::ValuesIn(AllSynopsisShapes()),
                         SynopsisShapeName);

INSTANTIATE_TEST_SUITE_P(
    ShardShapes, ShardCoverageTest,
    ::testing::Values(ShardShapeParam{AggregateFunction::kSum, 2},
                      ShardShapeParam{AggregateFunction::kSum, 4},
                      ShardShapeParam{AggregateFunction::kSum, 8},
                      ShardShapeParam{AggregateFunction::kCount, 2},
                      ShardShapeParam{AggregateFunction::kCount, 4},
                      ShardShapeParam{AggregateFunction::kCount, 8}),
    ShardShapeName);

}  // namespace
}  // namespace aqpp
