// Round-trip tests for prepared-state persistence: cube files, sample
// files, and the engine-visible Explain plan facility.

#include <filesystem>
#include <cmath>
#include <fstream>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "cube/prefix_cube.h"
#include "sampling/sample_io.h"
#include "sampling/samplers.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aqpp_persist_test";
    std::filesystem::create_directories(dir_);
    table_ = MakeSynthetic({.rows = 20000, .dom1 = 100, .dom2 = 50,
                            .seed = 1001});
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const char* name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  std::shared_ptr<Table> table_;
};

TEST_F(PersistenceTest, CubeRoundTrip) {
  PartitionScheme scheme({DimensionPartition{0, {25, 50, 75, 100}},
                          DimensionPartition{1, {25, 50}}});
  auto cube = std::move(PrefixCube::Build(
                            *table_, scheme,
                            {MeasureSpec::Sum(2), MeasureSpec::Count(),
                             MeasureSpec::SumSquares(2)}))
                  .value();
  ASSERT_TRUE(cube->WriteTo(Path("cube.bin")).ok());
  auto loaded = PrefixCube::ReadFrom(Path("cube.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ((*loaded)->NumCells(), cube->NumCells());
  EXPECT_EQ((*loaded)->num_measures(), 3u);
  EXPECT_EQ((*loaded)->scheme().dim(0).cuts, scheme.dim(0).cuts);
  // Every box agrees on every plane.
  for (size_t lo1 = 0; lo1 < 4; ++lo1) {
    for (size_t hi1 = lo1 + 1; hi1 <= 4; ++hi1) {
      for (size_t m = 0; m < 3; ++m) {
        PreAggregate box;
        box.lo = {lo1, 0};
        box.hi = {hi1, 2};
        EXPECT_DOUBLE_EQ((*loaded)->BoxValue(box, m), cube->BoxValue(box, m));
      }
    }
  }
}

TEST_F(PersistenceTest, CubeRejectsGarbage) {
  {
    std::ofstream out(Path("junk.bin"), std::ios::binary);
    out << "nope";
  }
  EXPECT_FALSE(PrefixCube::ReadFrom(Path("junk.bin")).ok());
  EXPECT_FALSE(PrefixCube::ReadFrom(Path("missing.bin")).ok());
}

TEST_F(PersistenceTest, UniformSampleRoundTrip) {
  Rng rng(1);
  auto sample = std::move(CreateUniformSample(*table_, 0.05, rng)).value();
  ASSERT_TRUE(SaveSample(sample, Path("s")).ok());
  auto loaded = LoadSample(Path("s"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), sample.size());
  EXPECT_EQ(loaded->population_size, sample.population_size);
  EXPECT_EQ(loaded->method, SamplingMethod::kUniform);
  EXPECT_EQ(loaded->weights, sample.weights);
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_EQ(loaded->rows->column(0).GetInt64(i),
              sample.rows->column(0).GetInt64(i));
  }
}

TEST_F(PersistenceTest, StratifiedSampleRoundTrip) {
  Rng rng(2);
  auto sample =
      std::move(CreateStratifiedSample(*table_, {1}, 0.05, rng)).value();
  ASSERT_TRUE(SaveSample(sample, Path("strat")).ok());
  auto loaded = LoadSample(Path("strat"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->stratified());
  EXPECT_EQ(loaded->strata, sample.strata);
  ASSERT_EQ(loaded->stratum_info.size(), sample.stratum_info.size());
  for (size_t s = 0; s < sample.stratum_info.size(); ++s) {
    EXPECT_EQ(loaded->stratum_info[s].population_rows,
              sample.stratum_info[s].population_rows);
    EXPECT_EQ(loaded->stratum_info[s].sample_rows,
              sample.stratum_info[s].sample_rows);
  }
}

TEST_F(PersistenceTest, SampleLoadRejectsStrataThatDisagreeWithRows) {
  // The stratified interval divides by each stratum's sample_rows and
  // indexes per-stratum moments by stratum id, so a file that breaks either
  // is refused at load.
  Rng rng(4);
  const Sample sample =
      std::move(CreateStratifiedSample(*table_, {1}, 0.05, rng)).value();
  Sample miscounted = sample;
  ++miscounted.stratum_info[0].sample_rows;
  Sample bad_id = sample;
  bad_id.strata[0] = static_cast<int32_t>(sample.stratum_info.size());
  for (const Sample* bad : {&miscounted, &bad_id}) {
    ASSERT_TRUE(SaveSample(*bad, Path("bad_strata")).ok());
    auto loaded = LoadSample(Path("bad_strata"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PersistenceTest, SampleLoadErrors) {
  EXPECT_FALSE(LoadSample(Path("absent")).ok());
  Rng rng(3);
  auto sample = std::move(CreateUniformSample(*table_, 0.05, rng)).value();
  ASSERT_TRUE(SaveSample(sample, Path("broken")).ok());
  // Corrupt the metadata magic.
  {
    std::ofstream out(Path("broken.meta"), std::ios::binary);
    out << "garbage!";
  }
  EXPECT_FALSE(LoadSample(Path("broken")).ok());
}

// ---- Engine warm start ---------------------------------------------------------

TEST_F(PersistenceTest, EngineStateRoundTrip) {
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 64;
  opts.seed = 5;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();

  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 17, 83});
  auto original = std::move(engine->Execute(q)).value();

  ASSERT_TRUE(engine->SaveState(Path("state")).ok());

  // A fresh engine over the same table warm-starts from disk: same sample,
  // same cube, hence the same estimate and interval.
  auto warm = std::move(AqppEngine::Create(table_, opts)).value();
  ASSERT_TRUE(warm->LoadState(Path("state")).ok());
  EXPECT_TRUE(warm->has_cube());
  EXPECT_EQ(warm->prepare_stats().cube_cells,
            engine->prepare_stats().cube_cells);
  EXPECT_EQ(warm->sample().size(), engine->sample().size());
  auto restored = std::move(warm->Execute(q)).value();
  EXPECT_NEAR(restored.ci.estimate, original.ci.estimate,
              std::fabs(original.ci.estimate) * 1e-9);
  EXPECT_NEAR(restored.ci.half_width, original.ci.half_width,
              original.ci.half_width * 1e-9 + 1e-9);
}

TEST_F(PersistenceTest, EngineStateErrors) {
  EngineOptions opts;
  opts.sample_rate = 0.05;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();
  // Nothing prepared yet.
  EXPECT_FALSE(engine->SaveState(Path("empty_state")).ok());
  // Missing directory.
  EXPECT_FALSE(engine->LoadState(Path("no_such_dir")).ok());
  // Schema mismatch: state saved from a differently shaped table.
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  ASSERT_TRUE(engine->SaveState(Path("state2")).ok());
  Schema other({{"x", DataType::kInt64}, {"y", DataType::kDouble}});
  auto other_table = std::make_shared<Table>(other);
  other_table->AddRow().Int64(1).Double(2.0);
  auto mismatched = std::move(AqppEngine::Create(other_table, opts)).value();
  EXPECT_FALSE(mismatched->LoadState(Path("state2")).ok());
  // A corrupt column-list length is refused, not allocated: it sits after
  // the magic, the template count, the aggregate and the measure column.
  {
    std::fstream f(Path("state2") + "/template.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(28);
    const uint64_t huge = uint64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_EQ(engine->LoadState(Path("state2")).code(),
            StatusCode::kInvalidArgument);
}

// ---- Explain -----------------------------------------------------------------

TEST_F(PersistenceTest, ExplainDescribesPlan) {
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 64;
  auto engine = std::move(AqppEngine::Create(table_, opts)).value();

  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 23, 77});

  // Without a cube: direct plan.
  auto plan = engine->Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("direct AQP estimate"), std::string::npos);

  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  plan = engine->Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("candidates (P-"), std::string::npos);
  EXPECT_NE(plan->find("<- chosen"), std::string::npos);
  EXPECT_NE(plan->find("cube:"), std::string::npos);
}

}  // namespace
}  // namespace aqpp
