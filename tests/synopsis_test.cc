// Property battery for the pluggable Synopsis layer (src/synopsis/).
//
// Every registered kind must honor the statistical contract stated in
// synopsis/synopsis.h, and the battery enforces it property by property:
//   * Estimate is a pure function of (built state, query, seed) — repeated
//     calls are bit-identical, and so are concurrent calls at 1/4/8 threads
//     (the TSan lane runs this file via the `concurrency` label);
//   * Degrade never tightens an interval (conservative inflation);
//   * SerializeTo is deterministic: restore + re-serialize is byte-equal,
//     and the restored synopsis estimates bit-identically;
//   * Absorb is stage-validate-commit: under the "synopsis/absorb"
//     failpoint a torn absorb leaves the serialized state byte-identical
//     (chaos label; needs -DAQPP_ENABLE_FAILPOINTS=ON), while a successful
//     absorb tracks the grown population exactly like a rebuild;
//   * the engine's default synopsis (an engine-aligned "reservoir" sharing
//     the engine's sample) reproduces the hand-wired identification +
//     SampleEstimator path RNG-step-for-step for every sampling method, and
//     Absorb on it copies the shared rows before overwriting any.
//
// Seeds route through testutil::TestSeed, so AQPP_TEST_SEED alone
// reproduces any failure.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/engine.h"
#include "engine_oracle.h"
#include "expr/query.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"
#include "storage/table.h"
#include "synopsis/reservoir.h"
#include "synopsis/synopsis.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

synopsis::SynopsisOptions MakeOptions(uint64_t seed) {
  synopsis::SynopsisOptions opts;
  opts.confidence_level = 0.95;
  opts.sample_rate = 0.2;
  // Stratify / bubble on c2 (domain 50): ~10 sampled rows per stratum at
  // 2500 rows x 0.2 — enough for per-stratum variance everywhere.
  opts.key_columns = {1};
  opts.measure_column = 2;
  opts.seed = seed;
  return opts;
}

std::unique_ptr<synopsis::Synopsis> BuildSynopsis(const std::string& kind,
                                                  const Table& table,
                                                  uint64_t seed) {
  auto created = synopsis::CreateSynopsis(kind, MakeOptions(seed));
  EXPECT_TRUE(created.ok()) << created.status();
  auto syn = std::move(created).value();
  Status built = syn->BuildFromTable(table);
  EXPECT_TRUE(built.ok()) << built;
  EXPECT_TRUE(syn->built());
  return syn;
}

// A fixed probe set spanning SUM/COUNT/AVG and 1-d / 2-d predicates, wide
// enough that every kind's sample sees predicate rows.
std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> qs;
  auto add = [&qs](AggregateFunction f, std::vector<RangeCondition> conds) {
    RangeQuery q;
    q.func = f;
    q.agg_column = 2;
    q.predicate = RangePredicate(std::move(conds));
    qs.push_back(std::move(q));
  };
  add(AggregateFunction::kSum, {{0, 20, 70}});
  add(AggregateFunction::kSum, {{0, 10, 60}, {1, 10, 35}});
  add(AggregateFunction::kCount, {{0, 30, 90}});
  add(AggregateFunction::kCount, {{0, 1, 100}, {1, 1, 50}});
  add(AggregateFunction::kAvg, {{0, 15, 80}});
  add(AggregateFunction::kAvg, {{0, 5, 55}, {1, 5, 30}});
  return qs;
}

Result<ConfidenceInterval> EstimateSeeded(const synopsis::Synopsis& syn,
                                          const RangeQuery& q, uint64_t seed) {
  ExecuteControl control;
  control.seed = seed;
  control.record = false;
  return syn.Estimate(q, control);
}

class SynopsisPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 2500,
                            .dom1 = 100,
                            .dom2 = 50,
                            .correlated = false,
                            .seed = testutil::TestSeed(9100)});
    synopsis_ = BuildSynopsis(GetParam(), *table_, testutil::TestSeed(9101));
    ASSERT_NE(synopsis_, nullptr);
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<synopsis::Synopsis> synopsis_;
};

std::string KindName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

// ---- Registry ---------------------------------------------------------------

TEST(SynopsisRegistryTest, BuiltinsAreRegisteredAndSorted) {
  auto kinds = synopsis::RegisteredSynopses();
  ASSERT_GE(kinds.size(), 4u);
  for (const char* k : {"grouped", "reservoir", "reservoir_closed",
                        "stratified"}) {
    EXPECT_TRUE(synopsis::IsSynopsisRegistered(k)) << k;
  }
  for (size_t i = 1; i < kinds.size(); ++i) EXPECT_LT(kinds[i - 1], kinds[i]);

  auto missing = synopsis::CreateSynopsis("no_such_kind", MakeOptions(1));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---- Purity -----------------------------------------------------------------

TEST_P(SynopsisPropertyTest, EstimateIsPureFunctionOfQueryAndSeed) {
  // Repeated calls with the same (query, seed) are bit-identical, and an
  // independently built synopsis over the same table with the same build
  // seed estimates bit-identically too.
  auto rebuilt = BuildSynopsis(GetParam(), *table_, testutil::TestSeed(9101));
  ASSERT_NE(rebuilt, nullptr);
  uint64_t call_seed = testutil::TestSeed(9102);
  for (const RangeQuery& q : ProbeQueries()) {
    auto a = EstimateSeeded(*synopsis_, q, call_seed);
    auto b = EstimateSeeded(*synopsis_, q, call_seed);
    auto c = EstimateSeeded(*rebuilt, q, call_seed);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok() && c.ok());
    EXPECT_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->half_width, b->half_width);
    EXPECT_EQ(a->estimate, c->estimate);
    EXPECT_EQ(a->half_width, c->half_width);
    EXPECT_TRUE(std::isfinite(a->estimate));
    EXPECT_GE(a->half_width, 0.0);
  }
}

// ---- Concurrency ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, ConcurrentEstimatesAreBitIdentical) {
  // Per-call seeds make Estimate safe to run from many threads against one
  // shared synopsis; 4- and 8-thread runs must reproduce the 1-thread
  // answers bit for bit.
  const auto queries = ProbeQueries();
  const uint64_t base_seed = testutil::TestSeed(9103);

  std::vector<ConfidenceInterval> baseline(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], base_seed + i);
    ASSERT_TRUE(r.ok()) << r.status();
    baseline[i] = *r;
  }

  for (size_t num_threads : {4u, 8u}) {
    std::vector<ConfidenceInterval> got(queries.size());
    std::vector<std::thread> threads;
    for (size_t tid = 0; tid < num_threads; ++tid) {
      threads.emplace_back([&, tid] {
        for (size_t i = tid; i < queries.size(); i += num_threads) {
          auto r = EstimateSeeded(*synopsis_, queries[i], base_seed + i);
          if (r.ok()) got[i] = *r;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(baseline[i].estimate, got[i].estimate)
          << "threads=" << num_threads << " query#" << i;
      EXPECT_EQ(baseline[i].half_width, got[i].half_width)
          << "threads=" << num_threads << " query#" << i;
    }
  }
}

// ---- Degradation ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, DegradeNeverTightensIntervals) {
  const auto queries = ProbeQueries();
  const uint64_t call_seed = testutil::TestSeed(9104);

  std::vector<double> before;
  for (const RangeQuery& q : queries) {
    auto r = EstimateSeeded(*synopsis_, q, call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    before.push_back(r->half_width);
  }

  Rng degrade_rng = testutil::MakeTestRng(9105);
  ASSERT_TRUE(synopsis_->Degrade(0.5, degrade_rng).ok());
  EXPECT_GE(synopsis_->ci_inflation(), 2.0 * (1 - 1e-12));
  EXPECT_FALSE(synopsis_->engine_aligned());

  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GE(r->half_width, before[i] * (1 - 1e-12))
        << "query#" << i << " tightened after Degrade";
  }

  // A second degrade compounds the inflation.
  ASSERT_TRUE(synopsis_->Degrade(0.5, degrade_rng).ok());
  EXPECT_GE(synopsis_->ci_inflation(), 4.0 * (1 - 1e-12));

  auto bad = synopsis_->Degrade(0.0, degrade_rng);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---- Persistence ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, SerializationRoundTripIsByteStable) {
  std::string bytes;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes).ok());
  ASSERT_FALSE(bytes.empty());

  auto restored =
      std::move(synopsis::CreateSynopsis(GetParam(), MakeOptions(1))).value();
  ASSERT_TRUE(restored->DeserializeFrom(bytes).ok());
  EXPECT_TRUE(restored->built());
  EXPECT_FALSE(restored->engine_aligned());

  std::string again;
  ASSERT_TRUE(restored->SerializeTo(&again).ok());
  EXPECT_EQ(bytes, again) << "restore + re-serialize is not byte-stable";

  uint64_t call_seed = testutil::TestSeed(9106);
  for (const RangeQuery& q : ProbeQueries()) {
    auto a = EstimateSeeded(*synopsis_, q, call_seed);
    auto b = EstimateSeeded(*restored, q, call_seed);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->half_width, b->half_width);
  }

  // Garbage rejects cleanly.
  auto fresh =
      std::move(synopsis::CreateSynopsis(GetParam(), MakeOptions(1))).value();
  EXPECT_FALSE(fresh->DeserializeFrom("not a synopsis").ok());
  EXPECT_FALSE(fresh->built());
}

// ---- Maintenance ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, AbsorbTracksPopulationLikeRebuild) {
  // An all-matching COUNT is answered exactly by every kind (zero sample
  // variance), so it pins the absorbed population: after absorbing a batch
  // the count must equal base + batch rows — exactly what a rebuild over the
  // concatenation reports.
  RangeQuery count_all;
  count_all.func = AggregateFunction::kCount;
  count_all.agg_column = 2;
  count_all.predicate.Add({0, 1, 100});

  const uint64_t call_seed = testutil::TestSeed(9107);
  auto before = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NEAR(before->estimate, 2500.0, 1e-6);

  auto batch = MakeSynthetic({.rows = 500,
                              .dom1 = 100,
                              .dom2 = 50,
                              .correlated = false,
                              .seed = testutil::TestSeed(9108)});
  Status absorbed = synopsis_->Absorb(*batch);
  ASSERT_TRUE(absorbed.ok()) << absorbed;
  EXPECT_FALSE(synopsis_->engine_aligned());

  auto after = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NEAR(after->estimate, 3000.0, 1e-6);

  // Schema drift is rejected before any mutation.
  Schema other({{"x", DataType::kInt64}});
  Table wrong(other);
  EXPECT_FALSE(synopsis_->Absorb(wrong).ok());
  auto still = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(after->estimate, still->estimate);
}

TEST_P(SynopsisPropertyTest, TornAbsorbLeavesNoPartialState) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)";
  }
  const auto queries = ProbeQueries();
  const uint64_t call_seed = testutil::TestSeed(9109);

  std::string bytes_before;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes_before).ok());
  std::vector<ConfidenceInterval> estimates_before;
  for (const RangeQuery& q : queries) {
    auto r = EstimateSeeded(*synopsis_, q, call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    estimates_before.push_back(*r);
  }

  fail::Registry::Global().Enable(
      "synopsis/absorb", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected absorb fault"});
  auto batch = MakeSynthetic({.rows = 400,
                              .dom1 = 100,
                              .dom2 = 50,
                              .correlated = false,
                              .seed = testutil::TestSeed(9110)});
  Status torn = synopsis_->Absorb(*batch);
  fail::Registry::Global().DisableAll();
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.message().find("injected absorb fault"), std::string::npos);

  // Stage-validate-commit: the failed absorb left the synopsis byte-for-byte
  // as it was, and every estimate is bit-identical.
  std::string bytes_after;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes_after).ok());
  EXPECT_EQ(bytes_before, bytes_after)
      << "torn absorb committed partial state";
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], call_seed);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(estimates_before[i].estimate, r->estimate) << "query#" << i;
    EXPECT_EQ(estimates_before[i].half_width, r->half_width) << "query#" << i;
  }

  // The same batch absorbs cleanly once the fault clears.
  ASSERT_TRUE(synopsis_->Absorb(*batch).ok());
}

// ---- Algorithm R continuation ----------------------------------------------
//
// synopsis::ContinueReservoir is the one reservoir continuation: the
// "reservoir" kinds' Absorb and the ingest absorber both run it.

TEST(ContinueReservoirTest, KeepsSizeAndUpdatesWeights) {
  auto base = MakeSynthetic({.rows = 10000, .seed = 710});
  Rng rng(1);
  auto sample = std::move(CreateUniformSample(*base, 0.02, rng)).value();
  size_t rows_seen = sample.population_size;
  auto batch = MakeSynthetic({.rows = 5000, .seed = 711});
  Rng absorb_rng(2);
  ASSERT_TRUE(
      synopsis::ContinueReservoir(&sample, &rows_seen, *batch, absorb_rng)
          .ok());
  EXPECT_EQ(sample.size(), 200u);
  EXPECT_EQ(rows_seen, 15000u);
  EXPECT_EQ(sample.population_size, 15000u);
  for (double w : sample.weights) {
    EXPECT_NEAR(w, 15000.0 / 200.0, 1e-9);
  }
}

TEST(ContinueReservoirTest, StaysUnbiasedAcrossAppends) {
  // Append data with a very different measure mean; the continued sample
  // must track the combined population total.
  Schema schema({{"c", DataType::kInt64}, {"a", DataType::kDouble}});
  auto base = std::make_shared<Table>(schema);
  Rng gen(3);
  double truth = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = 10 + gen.NextGaussian();
    base->AddRow().Int64(gen.NextInt(1, 100)).Double(v);
    truth += v;
  }
  auto batch = std::make_shared<Table>(schema);
  for (int i = 0; i < 20000; ++i) {
    double v = 500 + gen.NextGaussian();
    batch->AddRow().Int64(gen.NextInt(1, 100)).Double(v);
    truth += v;
  }

  double mean_est = 0;
  constexpr int kDraws = 40;
  Rng rng(4);
  for (int d = 0; d < kDraws; ++d) {
    auto s = std::move(CreateUniformSample(*base, 0.01, rng)).value();
    size_t rows_seen = s.population_size;
    Rng absorb_rng(100 + d);
    ASSERT_TRUE(
        synopsis::ContinueReservoir(&s, &rows_seen, *batch, absorb_rng).ok());
    double est = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      est += s.weights[i] * s.rows->column(1).GetDouble(i);
    }
    mean_est += est / kDraws;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.03);
}

TEST(ContinueReservoirTest, RejectsUnknownDictionaryValues) {
  Schema schema({{"flag", DataType::kString}, {"a", DataType::kDouble}});
  auto base = std::make_shared<Table>(schema);
  Rng gen(5);
  for (int i = 0; i < 1000; ++i) {
    base->AddRow().String(i % 2 == 0 ? "A" : "B").Double(gen.NextDouble());
  }
  base->FinalizeDictionaries();
  Rng rng(6);
  auto sample = std::move(CreateUniformSample(*base, 0.1, rng)).value();
  size_t rows_seen = sample.population_size;

  auto batch = std::make_shared<Table>(schema);
  for (int i = 0; i < 500; ++i) {
    batch->AddRow().String("Z").Double(0.5);  // unseen category
  }
  batch->FinalizeDictionaries();
  // Statistically certain to try an overwrite within 500 rows.
  Rng absorb_rng(7);
  EXPECT_FALSE(
      synopsis::ContinueReservoir(&sample, &rows_seen, *batch, absorb_rng)
          .ok());
}

TEST(ContinueReservoirTest, RequiresUniformSample) {
  auto base = MakeSynthetic({.rows = 2000, .seed = 712});
  Rng rng(8);
  auto stratified =
      std::move(CreateStratifiedSample(*base, {0}, 0.05, rng)).value();
  size_t rows_seen = stratified.population_size;
  const std::vector<double> weights_before = stratified.weights;
  auto batch = MakeSynthetic({.rows = 100, .seed = 713});
  Rng absorb_rng(9);
  Status st =
      synopsis::ContinueReservoir(&stratified, &rows_seen, *batch, absorb_rng);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("uniform"), std::string::npos);
  EXPECT_EQ(rows_seen, stratified.population_size);
  EXPECT_EQ(stratified.weights, weights_before);
}

// Regression (production defect): an unknown category used to surface from
// the slot overwrite mid-batch, after earlier columns of the victim sample
// row were already overwritten (torn row) and the seen-row counter had
// advanced past rows that were never absorbed. The continuation must
// pre-validate and reject the batch with the sample bit-identical to before.
TEST(ContinueReservoirTest, RejectsUnknownCategoryWithoutTearingRows) {
  // Double column FIRST: the old code overwrote it before discovering the
  // bad string value in the second column.
  Schema schema({{"a", DataType::kDouble}, {"s", DataType::kString}});
  auto base = std::make_shared<Table>(schema);
  Rng gen(802);
  for (int i = 0; i < 1000; ++i) {
    base->AddRow().Double(gen.NextDouble()).String(i % 2 == 0 ? "x" : "y");
  }
  base->FinalizeDictionaries();
  Rng rng(803);
  auto sample = std::move(CreateUniformSample(*base, 0.1, rng)).value();
  size_t rows_seen = sample.population_size;
  Rng absorb_rng(804);

  std::vector<double> before_a = sample.rows->column(0).DoubleData();
  std::vector<int64_t> before_s = sample.rows->column(1).Int64Data();
  size_t before_population = sample.population_size;
  std::vector<double> before_weights = sample.weights;

  auto bad = std::make_shared<Table>(schema);
  for (int i = 0; i < 500; ++i) {
    bad->AddRow().Double(12345.0).String("zzz");  // unseen category
  }
  bad->FinalizeDictionaries();
  EXPECT_FALSE(
      synopsis::ContinueReservoir(&sample, &rows_seen, *bad, absorb_rng).ok());

  EXPECT_EQ(sample.rows->column(0).DoubleData(), before_a);
  EXPECT_EQ(sample.rows->column(1).Int64Data(), before_s);
  EXPECT_EQ(sample.population_size, before_population);
  EXPECT_EQ(sample.weights, before_weights);
  EXPECT_EQ(rows_seen, before_population);

  // A subsequent valid batch is accounted from the pre-failure population —
  // the old defect had silently advanced the counter by the rejected rows.
  auto good = std::make_shared<Table>(schema);
  for (int i = 0; i < 10; ++i) {
    good->AddRow().Double(1.0).String("x");
  }
  good->FinalizeDictionaries();
  ASSERT_TRUE(
      synopsis::ContinueReservoir(&sample, &rows_seen, *good, absorb_rng).ok());
  EXPECT_EQ(sample.population_size, before_population + 10);
}

// ---- Sample adoption gates --------------------------------------------------

std::unique_ptr<AqppEngine> PreparedEngine(std::shared_ptr<Table> table,
                                           EngineOptions opts) {
  auto engine = std::move(AqppEngine::Create(std::move(table), opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  EXPECT_TRUE(engine->Prepare(tmpl).ok());
  return engine;
}

TEST(SynopsisAdoptionTest, ReservoirSharesAnyEngineSample) {
  auto table = MakeSynthetic({.rows = 2000, .seed = testutil::TestSeed(9114)});
  EngineOptions opts;
  opts.sample_rate = 0.1;
  opts.enable_precompute = false;
  opts.seed = testutil::TestSeed(9115);
  auto uniform = PreparedEngine(table, opts);
  opts.sampling = SamplingMethod::kStratified;
  opts.stratify_columns = {1};
  auto stratified_engine = PreparedEngine(table, opts);

  // "reservoir" adopts uniform and stratified samples alike, sharing the
  // rows (no copy) and becoming engine-aligned.
  for (const AqppEngine* engine : {uniform.get(), stratified_engine.get()}) {
    auto reservoir = std::move(synopsis::CreateSynopsis(
                                   "reservoir", MakeOptions(1)))
                         .value();
    ASSERT_TRUE(reservoir->BuildFromSample(engine->sample()).ok());
    EXPECT_TRUE(reservoir->engine_aligned());
    EXPECT_EQ(static_cast<const synopsis::ReservoirSynopsis&>(*reservoir)
                  .sample()
                  .rows.get(),
              engine->sample().rows.get());
  }

  // The closed-form intervals assume a uniform draw; the stratified kind
  // wants stratified samples.
  auto closed = std::move(synopsis::CreateSynopsis("reservoir_closed",
                                                   MakeOptions(1)))
                    .value();
  EXPECT_EQ(closed->BuildFromSample(stratified_engine->sample()).code(),
            StatusCode::kUnimplemented);
  EXPECT_FALSE(closed->built());
  auto stratified = std::move(synopsis::CreateSynopsis(
                                  "stratified", MakeOptions(1)))
                        .value();
  Status declined = stratified->BuildFromSample(uniform->sample());
  EXPECT_EQ(declined.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(stratified->built());
}

TEST(SynopsisAdoptionTest, AbsorbCopiesSharedRowsBeforeOverwriting) {
  auto table = MakeSynthetic({.rows = 2000, .seed = testutil::TestSeed(9120)});
  EngineOptions opts;
  opts.sample_rate = 0.1;
  opts.enable_precompute = false;
  opts.seed = testutil::TestSeed(9121);
  auto engine = PreparedEngine(table, opts);
  const Sample& source = engine->sample();
  std::vector<std::vector<int64_t>> ints;
  for (size_t c = 0; c < 2; ++c) ints.push_back(source.rows->column(c).Int64Data());
  const std::vector<double> measure = source.rows->column(2).DoubleData();

  synopsis::ReservoirSynopsis reservoir("reservoir", MakeOptions(9122));
  ASSERT_TRUE(reservoir.BuildFromSample(source).ok());
  ASSERT_EQ(reservoir.sample().rows.get(), source.rows.get());
  // A batch as large as the population overwrites many reservoir slots.
  auto batch = MakeSynthetic({.rows = 2000, .seed = testutil::TestSeed(9123)});
  ASSERT_TRUE(reservoir.Absorb(*batch).ok());

  EXPECT_NE(reservoir.sample().rows.get(), source.rows.get());
  EXPECT_FALSE(reservoir.engine_aligned());
  EXPECT_EQ(source.rows->column(0).Int64Data(), ints[0]);
  EXPECT_EQ(source.rows->column(1).Int64Data(), ints[1]);
  const std::vector<double>& after = source.rows->column(2).DoubleData();
  ASSERT_EQ(after.size(), measure.size());
  EXPECT_EQ(std::memcmp(after.data(), measure.data(),
                        measure.size() * sizeof(double)),
            0)
      << "Absorb wrote through to the adopted engine sample";
  // And the absorb really moved the reservoir off the source rows.
  EXPECT_NE(reservoir.sample().rows->column(2).DoubleData(), measure);
}

// ---- Engine bit-parity (the one-estimator-path acceptance criterion) --------

TEST(SynopsisEngineParityTest, DefaultSynopsisMatchesHandWiredOracle) {
  // The default engine answers through its synopsis; the oracle runs
  // identification and SampleEstimator over engine.sample() by hand on the
  // same seed. Every sampling method, every sample-estimable aggregate, both
  // the phi and the pre branch.
  auto table = MakeSynthetic({.rows = 4000,
                              .dom1 = 100,
                              .dom2 = 50,
                              .seed = testutil::TestSeed(9116)});
  std::vector<RangeQuery> history;
  for (int64_t lo : {10, 30, 50}) {
    RangeQuery h;
    h.func = AggregateFunction::kSum;
    h.agg_column = 2;
    h.predicate = RangePredicate({{0, lo, lo + 20}});
    history.push_back(h);
  }
  std::vector<RangeQuery> queries;
  for (AggregateFunction f :
       {AggregateFunction::kSum, AggregateFunction::kCount,
        AggregateFunction::kAvg, AggregateFunction::kVar}) {
    RangeQuery q;
    q.func = f;
    q.agg_column = 2;
    // Wide boxes: a cube box covers most of the query, so pre wins.
    q.predicate = RangePredicate({{0, 5, 95}});
    queries.push_back(q);
    q.predicate = RangePredicate({{0, 3, 90}, {1, 2, 48}});
    queries.push_back(q);
    // One-value boxes inside a single cell: nothing to bracket, phi wins.
    q.predicate = RangePredicate({{0, 41, 41}, {1, 17, 17}});
    queries.push_back(q);
    q.predicate = RangePredicate({{0, 63, 63}});
    queries.push_back(q);
  }

  Rng seeder = testutil::MakeTestRng(9118);
  for (SamplingMethod method :
       {SamplingMethod::kUniform, SamplingMethod::kBernoulli,
        SamplingMethod::kStratified, SamplingMethod::kMeasureBiased,
        SamplingMethod::kWorkloadAware}) {
    SCOPED_TRACE(SamplingMethodToString(method));
    EngineOptions opts;
    opts.sample_rate = 0.1;
    opts.cube_budget = 256;
    opts.sampling = method;
    opts.stratify_columns = {1};
    opts.workload_history = history;
    opts.seed = testutil::TestSeed(9117);
    auto engine = PreparedEngine(table, opts);
    ASSERT_NE(engine->identifier(), nullptr);
    auto syn = engine->active_synopsis();
    ASSERT_NE(syn, nullptr);
    EXPECT_STREQ(syn->kind(), "reservoir");
    EXPECT_TRUE(syn->engine_aligned());

    size_t with_pre = 0, with_phi = 0;
    for (const RangeQuery& q : queries) {
      for (int rep = 0; rep < 2; ++rep) {
        ExecuteControl control;
        control.seed = seeder.Next();
        control.record = false;
        auto got = engine->Execute(q, control);
        auto want = testutil::OracleEstimate(*engine, q, *control.seed);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_EQ(got->ci.estimate, want->ci.estimate)
            << AggregateFunctionToString(q.func) << " rep=" << rep;
        EXPECT_EQ(got->ci.half_width, want->ci.half_width)
            << AggregateFunctionToString(q.func) << " rep=" << rep;
        EXPECT_EQ(got->used_pre, want->used_pre);
        (want->used_pre ? with_pre : with_phi) += 1;
      }
    }
    EXPECT_GT(with_pre, 0u) << "no query took the difference branch";
    EXPECT_GT(with_phi, 0u) << "no query took the phi branch";
  }
}

TEST(SynopsisEngineParityTest, OffSelectsTheDefaultReservoir) {
  auto table = MakeSynthetic({.rows = 2500, .seed = testutil::TestSeed(9124)});
  EngineOptions opts;
  opts.sample_rate = 0.1;
  opts.cube_budget = 256;
  opts.seed = testutil::TestSeed(9125);
  auto engine = PreparedEngine(table, opts);

  ASSERT_TRUE(engine->SetSynopsis("reservoir_closed").ok());
  EXPECT_STREQ(engine->active_synopsis()->kind(), "reservoir_closed");
  // The selection survives a re-prepare.
  QueryTemplate tmpl = *engine->prepared_template();
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  EXPECT_STREQ(engine->active_synopsis()->kind(), "reservoir_closed");

  for (const std::string off : {"off", ""}) {
    ASSERT_TRUE(engine->SetSynopsis("reservoir_closed").ok());
    ASSERT_TRUE(engine->SetSynopsis(off).ok());
    auto syn = engine->active_synopsis();
    ASSERT_NE(syn, nullptr);
    EXPECT_STREQ(syn->kind(), "reservoir");
    EXPECT_TRUE(syn->engine_aligned());
    ExecuteControl control;
    control.seed = testutil::TestSeed(9119);
    control.record = false;
    RangeQuery q = ProbeQueries()[1];
    auto got = engine->Execute(q, control);
    auto want = testutil::OracleEstimate(*engine, q, *control.seed);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->ci.estimate, want->ci.estimate);
    EXPECT_EQ(got->ci.half_width, want->ci.half_width);
  }

  EXPECT_EQ(engine->SetSynopsis("no_such_kind").code(), StatusCode::kNotFound);
  EXPECT_STREQ(engine->active_synopsis()->kind(), "reservoir");
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SynopsisPropertyTest,
    ::testing::ValuesIn(synopsis::RegisteredSynopses()), KindName);

}  // namespace
}  // namespace aqpp
